#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "obs/registry.h"

namespace atum::obs {

const char* trace_point_name(TracePoint p) {
  switch (p) {
    case TracePoint::kSend: return "send";
    case TracePoint::kRelay: return "relay";
    case TracePoint::kVouch: return "vouch";
    case TracePoint::kDeliver: return "deliver";
    case TracePoint::kPropose: return "propose";
    case TracePoint::kPrePrepare: return "pre_prepare";
    case TracePoint::kPrepare: return "prepare";
    case TracePoint::kCommit: return "commit";
    case TracePoint::kDecide: return "decide";
  }
  return "?";
}

void Tracer::enable(std::size_t ring_capacity, std::uint64_t key_sample) {
  ring_capacity_ = ring_capacity == 0 ? 1 : ring_capacity;
  key_sample_ = key_sample == 0 ? 1 : key_sample;
  rings_.clear();
  next_seq_ = 0;
  enabled_ = true;
}

void Tracer::record_slow(std::int64_t at, NodeId node, TracePoint point, std::uint64_t key,
                         std::uint64_t a, std::uint64_t b) {
  if (key_sample_ > 1 && key % key_sample_ != 0) return;
  Ring& ring = rings_[node];
  if (ring.buf.size() < ring_capacity_) {
    ring.buf.push_back(TraceEvent{at, next_seq_++, node, point, key, a, b});
    ++ring.total;
  } else {
    ring.buf[ring.total % ring_capacity_] = TraceEvent{at, next_seq_++, node, point, key, a, b};
    ++ring.total;
  }
}

std::size_t Tracer::retained() const {
  std::size_t n = 0;
  for (const auto& kv : rings_) n += kv.second.buf.size();
  return n;
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(retained());
  for (const auto& kv : rings_) {
    out.insert(out.end(), kv.second.buf.begin(), kv.second.buf.end());
  }
  std::sort(out.begin(), out.end(), [](const TraceEvent& x, const TraceEvent& y) {
    if (x.at != y.at) return x.at < y.at;
    return x.seq < y.seq;
  });
  return out;
}

namespace {

void append(std::string& out, const char* fmt, ...) {
  char buf[192];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out.append(buf, std::min(static_cast<std::size_t>(n), sizeof(buf) - 1));
}

void append_hist(std::string& out, const Histogram& h) {
  out += '[';
  bool first = true;
  for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
    const std::uint64_t n = h.bucket(i);
    if (n == 0) continue;
    if (!first) out += ',';
    first = false;
    append(out, "[%" PRIu64 ",%" PRIu64 "]", Histogram::bucket_lower_bound(i), n);
  }
  out += ']';
}

}  // namespace

std::string Tracer::to_chrome_json() const {
  const std::vector<TraceEvent> events = snapshot();

  // Span extents and derived histograms, grouped per (key, node) /
  // per key. std::map keeps emission order deterministic.
  struct Extent {
    std::int64_t first = 0;
    std::int64_t last = 0;
  };
  std::map<std::pair<std::uint64_t, NodeId>, Extent> spans;
  std::map<std::uint64_t, std::uint64_t> relay_hops;  // key -> relay count
  Histogram fanout;
  for (const TraceEvent& e : events) {
    auto [it, fresh] = spans.try_emplace({e.key, e.node}, Extent{e.at, e.at});
    if (!fresh) {
      it->second.first = std::min(it->second.first, e.at);
      it->second.last = std::max(it->second.last, e.at);
    }
    if (e.point == TracePoint::kRelay) {
      ++relay_hops[e.key];
      fanout.record(e.a);
    }
  }
  Histogram hops;
  for (const auto& kv : relay_hops) hops.record(kv.second);

  std::string out;
  out.reserve(256 + events.size() * 160 + spans.size() * 160);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Process-name metadata for every node that recorded anything.
  for (const auto& [node, ring] : rings_) {
    if (ring.buf.empty()) continue;
    if (!first) out += ',';
    first = false;
    append(out,
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%" PRIu64
           ",\"args\":{\"name\":\"node %" PRIu64 "\"}}",
           node, node);
  }
  // One "X" complete span per (key, node): the window this node was
  // involved with this message. dur >= 1 so zero-width spans render.
  for (const auto& [kn, ext] : spans) {
    if (!first) out += ',';
    first = false;
    append(out,
           "{\"name\":\"key %016" PRIx64 "\",\"ph\":\"X\",\"ts\":%" PRId64 ",\"dur\":%" PRId64
           ",\"pid\":%" PRIu64 ",\"tid\":%" PRIu64 ",\"args\":{\"key\":\"%016" PRIx64 "\"}}",
           kn.first, ext.first, std::max<std::int64_t>(ext.last - ext.first, 1), kn.second,
           kn.second, kn.first);
  }
  // One instant per trace point, (ts, seq)-sorted.
  for (const TraceEvent& e : events) {
    if (!first) out += ',';
    first = false;
    append(out,
           "{\"name\":\"%s\",\"ph\":\"i\",\"ts\":%" PRId64 ",\"pid\":%" PRIu64 ",\"tid\":%" PRIu64
           ",\"s\":\"t\",\"args\":{\"key\":\"%016" PRIx64 "\",\"a\":%" PRIu64 ",\"b\":%" PRIu64
           "}}",
           trace_point_name(e.point), e.at, e.node, e.node, e.key, e.a, e.b);
  }
  out += "],\"atum_summary\":{";
  std::size_t distinct_keys = 0;
  std::uint64_t prev_key = 0;
  for (const auto& kv : spans) {
    if (distinct_keys == 0 || kv.first.first != prev_key) ++distinct_keys;
    prev_key = kv.first.first;
  }
  append(out, "\"events\":%zu,\"recorded\":%" PRIu64 ",\"keys\":%zu,", events.size(), next_seq_,
         distinct_keys);
  out += "\"hop_count\":";
  append_hist(out, hops);
  out += ",\"relay_fanout\":";
  append_hist(out, fanout);
  out += "}}";
  return out;
}

}  // namespace atum::obs
