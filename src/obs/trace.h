// obs::Tracer — message-lifecycle tracing (ISSUE 9 tentpole part 2).
//
// Every traced event carries a 64-bit correlation key. For the broadcast
// path the key is the same value at every hop: a BroadcastOp's wire
// encoding IS the kGmGossip frame body relayed at every hop (static
// assert in core/atum.cpp), and prepare_group_payload derives
// GroupMessageId.seq = digest_prefix64(frame digest) — so
//   send → relay → vouch → deliver
// all record digest_prefix64(sha256(frame)) and one key joins the full
// relay path across nodes. The SMR pipeline (propose → pre-prepare →
// prepare → commit → decide) keys on op/batch digests, a separate
// keyspace (ReconfigurableSmr wraps ops before PBFT sees them).
//
// Cost model: disabled (default) is one relaxed bool load and a branch —
// bench_micro pins it at ~0. Enabled, events go into bounded per-node
// ring buffers (oldest dropped), optionally key-sampled (keep keys with
// key % N == 0) so a 100k-message flood cannot grow memory unboundedly.
//
// Determinism: events are stamped with caller-supplied sim-time plus a
// global monotonic sequence number (single-threaded simulator => the
// sequence is reproducible), rings live in a std::map keyed by node, and
// the Chrome-trace exporter sorts by (ts, seq) — same seed => identical
// trace bytes. No wall-clock anywhere (linter-enforced).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace atum::obs {

enum class TracePoint : std::uint8_t {
  // Broadcast lifecycle (group-message keyspace).
  kSend = 0,      // origin proposes the broadcast op
  kRelay,         // node forwards the frame to gossip successors
  kVouch,         // digest-only copy confirmed by majority vouches
  kDeliver,       // app-level delivery
  // SMR pipeline (op/batch-digest keyspace).
  kPropose,       // op submitted to the replicated log
  kPrePrepare,    // primary assigns a sequence (batch digest)
  kPrepare,       // replica prepared (batch digest)
  kCommit,        // replica committed (batch digest)
  kDecide,        // op executed
};

const char* trace_point_name(TracePoint p);

struct TraceEvent {
  std::int64_t at = 0;       // sim-time micros
  std::uint64_t seq = 0;     // global record order (tie-break at equal ts)
  NodeId node = 0;
  TracePoint point = TracePoint::kSend;
  std::uint64_t key = 0;     // correlation key (digest prefix)
  std::uint64_t a = 0;       // point-specific detail (e.g. relay fan-out)
  std::uint64_t b = 0;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Enables recording with a per-node ring capacity. `key_sample` keeps
  // one key in N (keys with key % N == 0); 0 or 1 keeps every key.
  void enable(std::size_t ring_capacity = 4096, std::uint64_t key_sample = 1);
  void disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  // True when `key` survives sampling — callers can skip computing
  // expensive details (digests) for keys that would be dropped anyway.
  bool keeps(std::uint64_t key) const {
    return enabled_ && (key_sample_ <= 1 || key % key_sample_ == 0);
  }

  void record(std::int64_t at, NodeId node, TracePoint point, std::uint64_t key,
              std::uint64_t a = 0, std::uint64_t b = 0) {
    if (!enabled_) return;
    record_slow(at, node, point, key, a, b);
  }

  // Total events recorded (post-sampling, pre-eviction) and currently
  // retained across all rings.
  std::uint64_t recorded() const { return next_seq_; }
  std::size_t retained() const;
  std::size_t ring_capacity() const { return ring_capacity_; }

  // All retained events merged and sorted by (at, seq).
  std::vector<TraceEvent> snapshot() const;

  // Chrome trace-event JSON (load in Perfetto / chrome://tracing):
  // per-(key, node) "X" spans covering first→last sighting, one instant
  // event per trace point, process-name metadata, and an `atum_summary`
  // object with derived hop-count and relay-fan-out histograms.
  std::string to_chrome_json() const;

 private:
  struct Ring {
    std::vector<TraceEvent> buf;
    std::uint64_t total = 0;  // lifetime writes; buf[total % cap] is next
  };

  void record_slow(std::int64_t at, NodeId node, TracePoint point, std::uint64_t key,
                   std::uint64_t a, std::uint64_t b);

  bool enabled_ = false;
  std::uint64_t key_sample_ = 1;
  std::size_t ring_capacity_ = 4096;
  std::uint64_t next_seq_ = 0;
  std::map<NodeId, Ring> rings_;  // sorted => deterministic snapshot order
};

}  // namespace atum::obs
