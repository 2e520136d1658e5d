// Derived sim-time latencies from obs::Tracer lifecycle events (the
// program's existing message-lifecycle tracing; see src/obs/trace.h).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

// Node -> vgroup id (any stable id works; nodes in no group map to a value
// no event joins against).
using GroupOf = std::function<std::uint64_t(atum::NodeId)>;

struct SmrSplit {
  std::vector<double> queue_ms;  // propose -> pre-prepare of the op's seq
  std::vector<double> agree_ms;  // pre-prepare -> decide at the proposer
};

// Joins kPropose(node, op key) -> kDecide(same node, same key; a = seq) ->
// kPrePrepare(a node of the proposer's group, a = seq, between the two).
// Proposals whose events were evicted from the rings are skipped.
SmrSplit smr_split(const std::vector<atum::obs::TraceEvent>& events, const GroupOf& group_of);

struct OverlaySplit {
  std::vector<double> vouch_ms;  // broadcast send -> vouch at each receiver
  std::vector<double> hops;      // vgroup hops from the origin's group
};

// Per broadcast key: kSend at the origin fixes time zero and hop 0 (the
// origin's group); each kVouch(node, b = sending group) is one hop more
// than the sending group's first vouch, in (at, seq) order.
OverlaySplit overlay_split(const std::vector<atum::obs::TraceEvent>& events,
                           const GroupOf& group_of);

}  // namespace perfbench
