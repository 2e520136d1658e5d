// Gossip dissemination among vgroups (§3.2, §3.3.4).
//
// Broadcast phase two: when a vgroup receives a broadcast for the first
// time it delivers the message and then consults the application-provided
// `forward` callback once per overlay neighbor to decide whether to relay.
// To turn gossip's probabilistic delivery into a deterministic guarantee,
// the engine always relays along a designated cycle (cycle 0, successor
// direction) in addition to whatever the callback chooses — the paper's
// "gossip at least with neighboring vgroups on a specific cycle".
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/types.h"
#include "net/message.h"

namespace atum::overlay {

// A neighbor as seen by the forward callback: which group, reached over
// which cycle and direction (0 = successor, 1 = predecessor).
struct NeighborRef {
  GroupId group = kInvalidGroup;
  std::size_t cycle = 0;
  int direction = 0;
  friend bool operator==(const NeighborRef&, const NeighborRef&) = default;
};

// The application's §3.3.4 `forward(message, neighbor)` callback. The
// payload is a refcounted view of the broadcast body (shared with every
// other consumer of the frame — do not expect a private copy).
using ForwardFn = std::function<bool(const BroadcastId& id, const net::Payload& payload,
                                     const NeighborRef& neighbor)>;

// Built-in forwarding policies.
// Latency-optimal: relay to every neighbor on every cycle (flooding).
ForwardFn forward_flood();
// Throughput-oriented (AStream): relay only along the given cycles.
ForwardFn forward_cycles(std::set<std::size_t> cycles);
// Classic randomized gossip: relay to each neighbor with probability p.
ForwardFn forward_random(double p, std::uint64_t seed);
// Never relay (the unwise choice §3.3.4 warns about; used in tests).
ForwardFn forward_none();

// Per-vgroup-member dedup and relay bookkeeping for broadcasts. Pure logic:
// the group/core layer feeds accepted group messages in and sends the
// relays this class decides on.
class GossipState {
 public:
  explicit GossipState(ForwardFn forward) : forward_(std::move(forward)) {}

  void set_forward(ForwardFn fn) { forward_ = std::move(fn); }

  // First sighting of a broadcast? (also records it)
  bool first_sighting(const BroadcastId& id);
  bool seen(const BroadcastId& id) const;

  // Relay decision for one broadcast across the group's neighbor set;
  // always includes the deterministic cycle-0 successor link.
  std::vector<NeighborRef> relays(const BroadcastId& id, const net::Payload& payload,
                                  const std::vector<NeighborRef>& neighbors) const;

  std::size_t seen_count() const { return seen_.size(); }

 private:
  ForwardFn forward_;
  std::unordered_set<BroadcastId> seen_;
};

}  // namespace atum::overlay
