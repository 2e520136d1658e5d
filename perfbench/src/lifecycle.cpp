#include "lifecycle.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>

namespace perfbench {

using atum::NodeId;
using atum::obs::TraceEvent;
using atum::obs::TracePoint;

SmrSplit smr_split(const std::vector<TraceEvent>& events, const GroupOf& group_of) {
  struct Decide {
    std::int64_t at;
    std::uint64_t seq;
  };
  std::map<std::pair<NodeId, std::uint64_t>, std::int64_t> proposed;  // (node, key) -> at
  std::map<std::pair<NodeId, std::uint64_t>, Decide> decided;         // first decide only
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<std::int64_t>> pre_prepared;
  for (const TraceEvent& e : events) {
    switch (e.point) {
      case TracePoint::kPropose:
        proposed.try_emplace({e.node, e.key}, e.at);
        break;
      case TracePoint::kDecide:
        decided.try_emplace({e.node, e.key}, Decide{e.at, e.a});
        break;
      case TracePoint::kPrePrepare:
        pre_prepared[{group_of(e.node), e.a}].push_back(e.at);  // events are time-sorted
        break;
      default:
        break;
    }
  }
  SmrSplit out;
  for (const auto& [nk, t0] : proposed) {
    auto d = decided.find(nk);
    if (d == decided.end()) continue;
    auto pp = pre_prepared.find({group_of(nk.first), d->second.seq});
    if (pp == pre_prepared.end()) continue;
    auto it = std::lower_bound(pp->second.begin(), pp->second.end(), t0);
    if (it == pp->second.end() || *it > d->second.at) continue;
    out.queue_ms.push_back(static_cast<double>(*it - t0) / 1000.0);
    out.agree_ms.push_back(static_cast<double>(d->second.at - *it) / 1000.0);
  }
  return out;
}

OverlaySplit overlay_split(const std::vector<TraceEvent>& events, const GroupOf& group_of) {
  struct Bcast {
    std::int64_t sent_at;
    std::unordered_map<std::uint64_t, std::uint32_t> depth;  // group -> hops
  };
  std::map<std::uint64_t, Bcast> bcasts;  // key -> state
  OverlaySplit out;
  for (const TraceEvent& e : events) {
    if (e.point == TracePoint::kSend) {
      Bcast& b = bcasts[e.key];
      b.sent_at = e.at;
      b.depth[group_of(e.node)] = 0;
    } else if (e.point == TracePoint::kVouch) {
      auto it = bcasts.find(e.key);
      if (it == bcasts.end()) continue;  // send evicted from its ring
      Bcast& b = it->second;
      out.vouch_ms.push_back(static_cast<double>(e.at - b.sent_at) / 1000.0);
      auto from = b.depth.find(e.b);
      if (from == b.depth.end()) continue;
      const std::uint32_t hop = from->second + 1;
      out.hops.push_back(hop);
      auto [mine, fresh] = b.depth.try_emplace(group_of(e.node), hop);
      if (!fresh) mine->second = std::min(mine->second, hop);
    }
  }
  return out;
}

}  // namespace perfbench
