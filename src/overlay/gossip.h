// Gossip dissemination among vgroups (§3.2, §3.3.4).
//
// Broadcast phase two: when a vgroup receives a broadcast for the first
// time it delivers the message and relays it once (AtumNode::on_broadcast
// owns that first-sighting rule). The relay consults the
// application-provided `forward` callback once per overlay neighbor. To
// turn gossip's probabilistic delivery into a deterministic guarantee,
// relay_targets always relays along a designated cycle (cycle 0, successor
// direction) in addition to whatever the callback chooses — the paper's
// "gossip at least with neighboring vgroups on a specific cycle".
#pragma once

#include <cstdint>
#include <functional>
#include <set>
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

// Relay decision for one broadcast across a vgroup's neighbor set: the
// neighbors `forward` chooses, plus the mandatory cycle-0 successor link.
std::vector<NeighborRef> relay_targets(const ForwardFn& forward, const BroadcastId& id,
                                       const net::Payload& payload,
                                       const std::vector<NeighborRef>& neighbors);

}  // namespace atum::overlay
