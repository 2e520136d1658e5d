#include "overlay/gossip.h"

#include <utility>

namespace atum::overlay {

ForwardFn forward_flood() {
  return [](const BroadcastId&, const net::Payload&, const NeighborRef&) { return true; };
}

ForwardFn forward_cycles(std::set<std::size_t> cycles) {
  return [cycles = std::move(cycles)](const BroadcastId&, const net::Payload&,
                                      const NeighborRef& n) { return cycles.contains(n.cycle); };
}

ForwardFn forward_random(double p, std::uint64_t seed) {
  // Deterministic in (broadcast, neighbor): every correct member of a
  // vgroup must make the same relay decision, or the receiving group could
  // fall short of the majority vouches a group message needs.
  auto mix = [](std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  return [p, seed, mix](const BroadcastId& id, const net::Payload&, const NeighborRef& n) {
    std::uint64_t h = mix(seed);
    for (std::uint64_t v :
         {id.origin, id.seq, static_cast<std::uint64_t>(n.group),
          static_cast<std::uint64_t>(n.cycle), static_cast<std::uint64_t>(n.direction)}) {
      h = mix(h ^ mix(v + 0x9e3779b97f4a7c15ULL));
    }
    // Map the hash to [0,1) and compare against p.
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    return u < p;
  };
}

ForwardFn forward_none() {
  return [](const BroadcastId&, const net::Payload&, const NeighborRef&) { return false; };
}

std::vector<NeighborRef> relay_targets(const ForwardFn& forward, const BroadcastId& id,
                                       const net::Payload& payload,
                                       const std::vector<NeighborRef>& neighbors) {
  std::vector<NeighborRef> out;
  for (const NeighborRef& n : neighbors) {
    // Deterministic delivery guarantee: the cycle-0 successor link is always
    // used, whatever the application callback says.
    bool mandatory = (n.cycle == 0 && n.direction == 0);
    if (mandatory || (forward && forward(id, payload, n))) {
      out.push_back(n);
    }
  }
  return out;
}

}  // namespace atum::overlay
