// PBFT-style asynchronous BFT SMR [20] (Castro & Liskov), the engine behind
// Atum's Async implementation.
//
// g replicas tolerate f = floor((g-1)/3) Byzantine faults. Safety never
// depends on timing; liveness needs eventual synchrony, which the replica
// approximates with view-change timers that double on every failed view.
//
// Protocol surface implemented here:
//   REQUEST      every member doubles as a client: ops are broadcast to all
//                replicas, buffered, and assigned a sequence by the primary
//   PRE-PREPARE  primary -> backups, carries a BATCH of requests: the
//                primary buffers arriving ops and assigns ONE sequence
//                number per batch frame (bounded by batch_max_ops /
//                batch_max_bytes, or flushed by a sim-deterministic
//                deadline), so one quorum and one batch digest are
//                amortized over every op in the frame
//   PREPARE      all -> all; a batch is *prepared* after pre-prepare +
//                2f matching prepares on the batch digest
//   COMMIT       all -> all; *committed-local* after 2f+1 matching commits;
//                executed in sequence order, firing decide per op in batch
//                order
//   CHECKPOINT   every K executions; carries the state digest (a chain
//                over record digests, see state_digest_), the executed-op
//                count and the request ledger at the
//                boundary; stable after 2f+1 matching body digests, which
//                advances the low watermark, truncates the log (executed
//                records included) behind the boundary (memory stops
//                growing), and records the stable checkpoint for serving
//   VIEW-CHANGE / NEW-VIEW
//                timer-driven primary replacement carrying prepared BATCH
//                certificates so decided batches survive the view change
//   STATE FETCH  lagging replicas fetch state from a peer; the reply is
//                either the pinned head range (records above the server's
//                truncation point, chain-validated or f+1-byte-identical)
//                or the latest stable checkpoint + the head above it
//                (checkpoint-install: the fetcher skips the truncated
//                prefix and reports the gap through the install handler)
//
// Batch wire format (pre-prepare body, also embedded in view-change proofs
// and new-view O entries):
//   u64 view, u64 seq, digest, bytes(ops_region)
//   ops_region := varint op_count, op_count x { u64 origin, u64 origin_seq,
//                 bytes op }
// The batch digest is the SHA-256 of the ops_region bytes — the encoding is
// canonical (parse_ops_region rejects any other), so the primary (hashing
// the buffer it wrote) and the backups (hashing a slice of the arrival
// frame, hitting the Payload digest memo) agree byte-for-byte, and the
// digest doubles as the record digest of a batch that executes without a
// null op. An empty ops_region (op_count 0) is the null batch that fills
// view-change gaps; its digest is the all-zero digest and it is never
// hashed or checked.
//
// Zero-copy op path: Request::op is a net::Payload — a refcounted slice of
// the frame the op arrived in (client request, pre-prepare, state reply),
// or of the locally frozen propose() buffer. pending_ and the log (batches
// and executed records alike) share those buffers, and the decide callback
// hands the SAME slice up the stack, so the async decide path copies
// nothing: a committed batch decides k ops as k slices of the one
// pre-prepare frame.
// Lifetime consequence (net/message.h slice-ownership contract): a
// retained op pins its WHOLE arrival frame. The pinned set is bounded: an
// executed record lives in its log slot, collect_garbage resets every slot
// at or below the stable checkpoint, and in_window caps next_exec_ at
// stable_seq_ + watermark_window, so at most watermark_window records stay
// pinned however long the instance runs.
//
// Steady-state agreement allocates per message only the frame it sends
// (one buffer, written once, instance tag first) and, per batch, the
// batch's and the record's op vectors: the log is a ring of reused slots
// (SeqRing), votes are rank bitmaps (VoteSet), and pending_ is a sorted
// vector.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "crypto/keys.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "smr/smr.h"

namespace atum::obs {
class Registry;
class Tracer;
class Counter;
class Histogram;
enum class TracePoint : std::uint8_t;
}  // namespace atum::obs

namespace atum::smr {

struct PbftOptions {
  DurationMicros view_change_timeout = seconds(2.0);
  std::uint64_t checkpoint_interval = 64;
  // Log window size (high watermark = low + window).
  std::uint64_t watermark_window = 256;
  bool verify_signatures = true;
  // --- batching (on by default) ---
  // The primary buffers arriving ops and flushes one pre-prepare per batch:
  // when batch_max_ops ops or batch_max_bytes payload bytes are buffered,
  // or when the flush deadline (armed at the first buffered op; pure sim
  // time, deterministic) fires — whichever comes first. batch_max_ops = 1
  // degenerates to classic one-op-per-seq PBFT.
  std::size_t batch_max_ops = 16;
  std::size_t batch_max_bytes = 64 * 1024;
  DurationMicros batch_flush_delay = millis(5);
  // Instance tag scoping state fetch/reply to one engine instance. 0 (the
  // default) derives the tag from the member list; ReconfigurableSmr sets
  // it from the config-history epoch hash, so two non-adjacent epochs with
  // identical membership (A -> B -> A) can never share a tag.
  std::uint64_t instance_tag = 0;
  // Observability sinks (nullable = off). The registry cells are shared
  // across every engine wired to the same registry — system-wide SMR
  // totals that survive per-epoch engine turnover. The tracer records the
  // propose -> pre-prepare -> prepare -> commit -> decide lifecycle keyed
  // by op/batch digest prefixes (see obs/trace.h on keyspaces).
  obs::Registry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

enum class PbftFaultMode {
  kCorrect,
  kSilent,             // no participation at all
  kSilentPrimary,      // behaves correctly unless primary, then goes quiet
  kEquivocatePrimary,  // as primary, sends conflicting pre-prepares
};

// Compact executed/assigned request-id ledger: per origin, a contiguous low
// watermark (every origin-seq <= low is contained) plus the sparse set of
// seqs above it. Origins submit with consecutive origin-seqs, so the sparse
// part stays tiny and the ledger is O(group size) however many requests
// execute — unlike the std::set<RequestId> it replaces, which grew by one
// node per executed op forever. The deterministic encoding rides inside the
// checkpoint body, so a checkpoint-installing replica restores the exact
// dedup state and a Byzantine client re-submitting a pre-checkpoint op
// still executes as a no-op.
class RequestLedger {
 public:
  bool contains(NodeId origin, std::uint64_t seq) const {
    auto it = origins_.find(origin);
    if (it == origins_.end()) return false;
    return seq <= it->second.low || it->second.above.contains(seq);
  }
  // Returns true when the id was newly inserted; folds runs contiguous with
  // the watermark into it.
  bool insert(NodeId origin, std::uint64_t seq) {
    OriginState& st = origins_[origin];
    if (seq <= st.low) return false;
    if (seq == st.low + 1 && st.above.empty()) {
      ++st.low;  // in order, the common case: no set node to allocate
      return true;
    }
    if (!st.above.insert(seq).second) return false;
    while (st.above.contains(st.low + 1)) {
      st.above.erase(st.low + 1);
      ++st.low;
    }
    return true;
  }
  // Canonical encoding (sorted maps/sets => deterministic bytes): varint
  // origin count, per origin { u64 origin, u64 low, varint above count,
  // count x u64 }.
  void encode(ByteWriter& w) const {
    w.varint(origins_.size());
    for (const auto& [origin, st] : origins_) {
      w.u64(origin);
      w.u64(st.low);
      w.varint(st.above.size());
      for (std::uint64_t s : st.above) w.u64(s);
    }
  }
  // Throws SerdeError on malformed bytes (counts are bounded by the bytes
  // actually present before any allocation).
  static RequestLedger decode(ByteReader& r) {
    RequestLedger ledger;
    std::uint64_t origins = r.varint();
    if (origins > r.remaining()) throw SerdeError("ledger origin count exceeds buffer");
    for (std::uint64_t i = 0; i < origins; ++i) {
      NodeId origin = r.u64();
      OriginState st;
      st.low = r.u64();
      std::uint64_t above = r.varint();
      if (above > r.remaining()) throw SerdeError("ledger seq count exceeds buffer");
      for (std::uint64_t j = 0; j < above; ++j) st.above.insert(r.u64());
      ledger.origins_[origin] = std::move(st);
    }
    return ledger;
  }
  std::size_t origin_count() const { return origins_.size(); }
  friend bool operator==(const RequestLedger&, const RequestLedger&) = default;

 private:
  struct OriginState {
    std::uint64_t low = 0;
    std::set<std::uint64_t> above;
    friend bool operator==(const OriginState&, const OriginState&) = default;
  };
  std::map<NodeId, OriginState> origins_;
};

// A set of group members, one bit per rank in the sorted member list (the
// rank is the member's index in GroupConfig::members). Ranks below 64 live
// in one inline word, so a vote costs no allocation in groups of up to 64;
// larger groups spill into words that clear() keeps for reuse.
class VoteSet {
 public:
  // Returns true when the rank was not in the set yet.
  bool insert(std::size_t rank) {
    std::uint64_t& word = rank < 64 ? low_ : spill_word(rank);
    const std::uint64_t bit = std::uint64_t{1} << (rank % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  }
  bool contains(std::size_t rank) const {
    if (rank < 64) return ((low_ >> rank) & 1) != 0;
    const std::size_t i = rank / 64 - 1;
    return i < high_.size() && ((high_[i] >> (rank % 64)) & 1) != 0;
  }
  std::size_t size() const {
    std::size_t n = static_cast<std::size_t>(std::popcount(low_));
    for (std::uint64_t w : high_) n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }
  void clear() {
    low_ = 0;
    std::fill(high_.begin(), high_.end(), 0);
  }

 private:
  std::uint64_t& spill_word(std::size_t rank) {
    const std::size_t i = rank / 64 - 1;
    if (i >= high_.size()) high_.resize(i + 1, 0);
    return high_[i];
  }
  std::uint64_t low_ = 0;
  std::vector<std::uint64_t> high_;  // ranks 64.. (empty below 65 members)
};

// The PBFT log window: one Slot per seq in (base(), top()], kept in a ring
// whose power-of-two capacity is indexed by seq. Truncating at the stable
// checkpoint resets slots and advances the base without moving anything,
// and a slot is reused by the next seq that maps to it. The ring starts
// empty and grows with the live span top() - base(); it never preallocates
// the watermark window. Slots outside (base(), top()] are always reset.
//
// Growth moves the slots: a Slot& is valid until the next at() that
// reaches past the capacity. Callers re-fetch a slot after any call that
// may log a new seq (a decide callback proposing, say).
template <typename Slot>
class SeqRing {
 public:
  std::uint64_t base() const { return base_; }
  std::uint64_t top() const { return top_; }
  std::size_t capacity() const { return slots_.size(); }

  // The slot of `seq` (> base()), extending the live span to it.
  Slot& at(std::uint64_t seq) {
    assert(seq > base_);
    if (seq - base_ > slots_.size()) grow(seq - base_);
    top_ = std::max(top_, seq);
    return slot(seq);
  }
  // The slot of `seq` if it lies in the live span, else nullptr.
  Slot* find(std::uint64_t seq) { return seq > base_ && seq <= top_ ? &slot(seq) : nullptr; }
  const Slot* find(std::uint64_t seq) const {
    return seq > base_ && seq <= top_ ? &slots_[index(seq)] : nullptr;
  }
  // Resets every slot at or below `seq` and makes `seq` the base.
  void truncate_through(std::uint64_t seq) {
    if (seq <= base_) return;
    for (std::uint64_t s = base_ + 1; s <= std::min(seq, top_); ++s) slot(s).reset();
    base_ = seq;
    top_ = std::max(top_, seq);
  }
  // Resets every slot above `seq`.
  void truncate_after(std::uint64_t seq) {
    const std::uint64_t keep = std::max(seq, base_);
    for (std::uint64_t s = keep + 1; s <= top_; ++s) slot(s).reset();
    top_ = std::min(top_, keep);
  }

 private:
  std::size_t index(std::uint64_t seq) const {
    return static_cast<std::size_t>(seq & (slots_.size() - 1));
  }
  Slot& slot(std::uint64_t seq) { return slots_[index(seq)]; }
  void grow(std::uint64_t span) {
    // From one slot up: most instances (an epoch under churn) live and die
    // with a handful of seqs, thousands of them at once.
    std::size_t cap = std::max<std::size_t>(slots_.size() * 2, 1);
    while (cap < span) cap *= 2;
    std::vector<Slot> next(cap);
    for (std::uint64_t s = base_ + 1; s <= top_; ++s) {
      next[static_cast<std::size_t>(s & (cap - 1))] = std::move(slot(s));
    }
    slots_.swap(next);
  }

  std::vector<Slot> slots_;
  std::uint64_t base_ = 0;
  std::uint64_t top_ = 0;
};

class PbftSmr final : public SmrEngine {
 public:
  PbftSmr(net::Transport transport, GroupConfig config, crypto::KeyStore& keys,
          PbftOptions options, PbftFaultMode fault = PbftFaultMode::kCorrect);
  ~PbftSmr() override;

  void propose(Bytes op) override;
  void set_decide_handler(DecideFn fn) override;
  const GroupConfig& config() const override { return config_; }
  // Ops fired through decide_ (a seq may carry many ops, so this counts
  // decisions, not log slots — see batches_executed() for slots).
  std::uint64_t decided_count() const override { return decided_ops_; }
  void stop() override;

  // Checkpoint-install notification: fired when state transfer adopts a
  // stable checkpoint wholesale instead of replaying records, i.e. the ops
  // in (from_ops, to_ops] were decided by the group but will NEVER fire
  // decide_ here (sequences from_seq+1..to_seq were skipped). The layer
  // above accounts for the gap (ReconfigurableSmr advances its global
  // sequence; Atum recovers skipped broadcasts via gossip redelivery).
  using InstallFn = std::function<void(std::uint64_t from_seq, std::uint64_t to_seq,
                                       std::uint64_t from_ops, std::uint64_t to_ops)>;
  void set_install_handler(InstallFn fn) { install_ = std::move(fn); }

  // Batch observability (tests/benches): executed log slots and the exact
  // per-slot batch sizes are what prove the quorum amortization happened.
  std::uint64_t batches_executed() const { return next_exec_; }
  // Memory-bound observability: history_size() counts the executed records
  // the log still holds, one per seq in (history_base(), next_exec_] — the
  // slots between the stable checkpoint and the execution head, so O(1) —
  // and never exceeds watermark_window (each record pins its batch frames;
  // see the header comment).
  std::size_t history_size() const { return static_cast<std::size_t>(next_exec_ - stable_seq_); }
  std::uint64_t history_base() const { return stable_seq_; }
  // The same count taken the slow way, slot by slot over the log (tests
  // pin history_size() to it).
  std::size_t records_held() const;
  // The log's live span: the seqs above the stable checkpoint it holds
  // slots for, and the slots the ring holds storage for (grows with it).
  std::uint64_t log_span() const { return log_.top() - log_.base(); }
  std::size_t log_capacity() const { return log_.capacity(); }
  std::uint64_t instance_tag() const { return instance_tag_; }

  // Runtime fault conversion (scenario Byzantine-storm primitive): fault_
  // is consulted per message/phase, so flipping it on a live replica takes
  // effect from the next protocol action.
  void set_fault(PbftFaultMode fault) { fault_ = fault; }
  PbftFaultMode fault() const { return fault_; }

  std::size_t max_faults() const { return async_max_faults(config_.size()); }
  std::size_t quorum() const { return 2 * max_faults() + 1; }
  std::uint64_t view() const { return view_; }
  std::uint64_t stable_seq() const { return stable_seq_; }
  // The executed-state digest after next_exec_ records (see state_digest_):
  // equal at two replicas with equal batches_executed() unless one of them
  // executed a different history.
  const crypto::Digest& state_digest() const { return state_digest_; }
  bool is_primary() const { return primary_of(view_) == transport_.self(); }
  NodeId primary_of(std::uint64_t v) const {
    return config_.members[static_cast<std::size_t>(v % config_.size())];
  }
  std::uint64_t view_changes_completed() const { return view_changes_completed_; }

 private:
  // (origin, origin-local seq) identifies a request end-to-end.
  struct RequestId {
    NodeId origin;
    std::uint64_t seq;
    friend auto operator<=>(const RequestId&, const RequestId&) = default;
  };
  struct Request {
    RequestId id;
    net::Payload op;  // slice of the arrival frame; never deep-copied
  };
  struct ExecOp {
    NodeId origin;
    std::uint64_t origin_seq;
    net::Payload op;  // shares the decided frame (state-transfer source)
  };
  // One record per executed seq, holding that seq's whole batch in delivery
  // order; ops that executed as no-ops (duplicates) are recorded with the
  // null origin so replayed histories skip them too.
  struct ExecRecord {
    std::vector<ExecOp> ops;
  };
  // A checkpoint at boundary `seq`: the state digest pins the executed
  // prefix, the op count pins the decide ordinal space, and the request
  // ledger lets an installing replica restore its dedup state without
  // replaying the truncated prefix.
  struct Checkpoint {
    std::uint64_t seq = 0;
    crypto::Digest state_digest{};
    std::uint64_t ops = 0;
    Bytes ledger_wire;
    // CB(seq): the CHECKPOINT wire body AND the thing voted on (votes
    // store body_digest(), the SHA-256 of these bytes).
    void write_body(ByteWriter& w) const;
    std::size_t body_size() const {  // u64 seq, digest, u64 ops, bytes(ledger)
      return 48 + varint_size(ledger_wire.size()) + ledger_wire.size();
    }
    crypto::Digest body_digest() const;
  };
  // One log slot holds one BATCH of requests: an empty batch is the null
  // filler a new view uses for gaps (digest all-zero, executes as a no-op).
  // The slot also keeps what the seq became once executed here or adopted
  // through state transfer, until the stable checkpoint collects it. Votes
  // are rank bitmaps over config_.members. reset() clears the slot for
  // reuse by a later seq and releases its batch and record: held for reuse
  // in every slot of the ring they cost more memory (peak RSS on
  // smr_pipeline +0.5 MB) than one allocation per batch costs time.
  struct LogEntry {
    std::uint64_t view = 0;
    crypto::Digest digest{};
    std::vector<Request> batch;
    VoteSet prepares;
    VoteSet commits;
    ExecRecord record;  // meaningful once `executed`
    bool pre_prepared = false;
    bool executed = false;
    void reset() {
      view = 0;
      digest = crypto::Digest{};
      batch = {};
      prepares.clear();
      commits.clear();
      record = {};
      pre_prepared = false;
      executed = false;
    }
  };
  struct PreparedProof {
    std::uint64_t seq;
    std::uint64_t view;
    crypto::Digest digest;
    std::vector<Request> batch;  // empty = null batch
  };
  struct ViewChangeMsg {
    std::uint64_t new_view;
    std::uint64_t stable_seq;
    std::vector<PreparedProof> prepared;
    NodeId sender;
  };

  void on_message(const net::Message& msg);
  void handle_request(const net::Message& msg);
  void handle_pre_prepare(const net::Message& msg);
  // `from_rank`: the sender's rank in config_.members (its vote bit).
  void handle_prepare(const net::Message& msg, std::size_t from_rank);
  void handle_commit(const net::Message& msg, std::size_t from_rank);
  void handle_checkpoint(const net::Message& msg);
  void handle_view_change(const net::Message& msg);
  void handle_new_view(const net::Message& msg);
  void handle_state_fetch(const net::Message& msg);
  void handle_state_reply(const net::Message& msg);

  // Primary-side batching: enqueue buffers an op (flushing when the size
  // bounds trip and arming the deadline timer otherwise); flush assigns the
  // next seq to everything buffered and broadcasts one pre-prepare.
  void enqueue_op(const Request& req);
  void flush_batch();
  void arm_batch_timer();
  void disarm_batch_timer();
  // Canonical ops-region encoding shared by pre-prepares, view-change
  // proofs and new-view O entries; the batch digest is the SHA-256 of
  // exactly these bytes. ops_region_size() is their exact length, so a
  // frame can length-prefix the region and write it in place.
  static void encode_ops_region(ByteWriter& w, std::span<const Request> batch);
  static std::size_t ops_region_size(std::span<const Request> batch);
  // The PRE-PREPARE frame for `batch` at (view, seq), written in one
  // buffer: the ops region is encoded in place and hashed there, and the
  // batch digest patched in ahead of it. Returns the frame and the digest.
  std::pair<Bytes, crypto::Digest> pre_prepare_frame(std::uint64_t view, std::uint64_t seq,
                                                     std::span<const Request> batch) const;
  // A REQUEST frame: (origin, origin seq, op).
  Bytes request_frame(const Request& req) const;
  // A PREPARE or COMMIT frame: (view, seq, digest).
  Bytes vote_frame(std::uint64_t view, std::uint64_t seq, const crypto::Digest& digest) const;
  // Parses an ops region into `out` (cleared first) as zero-copy slices of
  // `frame`. Throws SerdeError on malformed bytes (including an op
  // claiming the null origin) and on bytes that are not the canonical
  // encoding of the batch they decode to.
  static void parse_ops_region(const net::Payload& frame, std::span<const std::uint8_t> region,
                               std::vector<Request>& out);
  void maybe_send_prepare(std::uint64_t seq);
  void maybe_send_commit(std::uint64_t seq);
  void try_execute();
  // Builds the record of a committed batch (an op whose request id already
  // executed becomes a null op) and applies it, reusing the batch digest as
  // the record digest when no op was nulled.
  void execute_entry(std::uint64_t seq, const LogEntry& entry);
  // The one path every executed record takes, run or adopted: moves the
  // state digest to `state_after` (the caller's fold of the record digest),
  // updates the ledgers, stores the record in its slot as next_exec_,
  // checkpoints a boundary and fires the decides.
  void apply_record(std::uint64_t seq, ExecRecord rec, const crypto::Digest& state_after);
  // A writer for a frame of `body_size` bytes after the instance tag,
  // which it has already written: the envelope every frame travels in (the
  // receiving on_message checks and strips it before dispatch).
  ByteWriter frame_writer(std::size_t body_size) const;
  // Sends one frozen `frame` (instance tag included) to every other member.
  void broadcast(net::MsgType type, Bytes frame, bool include_self = false);
  // Appends our signature over the frame's body (everything after the
  // instance tag) and broadcasts it: VIEW-CHANGE and NEW-VIEW.
  void sign_and_broadcast(net::MsgType type, ByteWriter frame);
  void send_checkpoint(std::uint64_t seq);
  void collect_garbage(std::uint64_t stable_seq);
  // As primary: batch everything still pending afresh and flush it.
  void reenqueue_pending();

  void arm_view_timer();
  void disarm_view_timer();
  // explicit_target == 0 means "next view after the current target".
  void start_view_change(std::uint64_t explicit_target = 0);
  // Called on execution progress: a replica that complained because it had
  // fallen behind (not because the primary died) withdraws its view change
  // once the current view demonstrably serves it again.
  void abandon_view_change();
  void maybe_assemble_new_view();
  void enter_view(std::uint64_t v, const std::vector<PreparedProof>& carried);
  void request_state_transfer();
  // The STATE-FETCH request for records (next_exec_, upto) (upto 0 = no
  // cap), frozen once so a fan-out shares one buffer.
  net::Payload state_fetch_frame(std::uint64_t upto) const;

  // How far past the stable checkpoint, in watermark windows, the log ring
  // may reach: enter_view does not log a carried seq beyond it (nothing in
  // the window could vote on it, and a NEW-VIEW's claimed stable seq is
  // bounded only by its sender).
  static constexpr std::uint64_t kMaxLogSpanWindows = 16;

  bool in_window(std::uint64_t seq) const {
    return seq > stable_seq_ && seq <= stable_seq_ + options_.watermark_window;
  }
  bool faulty_now() const;

  // Tracing helper: no-op unless options_.tracer is enabled.
  void trace(obs::TracePoint point, std::uint64_t key, std::uint64_t a = 0,
             std::uint64_t b = 0) const;

  net::Transport transport_;
  GroupConfig config_;
  crypto::KeyStore& keys_;
  PbftOptions options_;
  PbftFaultMode fault_;
  DecideFn decide_;
  InstallFn install_;

  // Registry cells cached at construction (registration locks once; the
  // increments are lock-free). Null when no registry is wired.
  // lint: adhoc-counter-ok(these ARE the obs::Registry cells)
  obs::Counter* ctr_pre_prepares_ = nullptr;
  obs::Counter* ctr_prepares_ = nullptr;
  obs::Counter* ctr_commits_ = nullptr;
  obs::Counter* ctr_batches_ = nullptr;
  obs::Counter* ctr_ops_ = nullptr;
  obs::Counter* ctr_view_changes_ = nullptr;
  obs::Counter* ctr_checkpoints_ = nullptr;
  obs::Counter* ctr_installs_ = nullptr;
  obs::Histogram* hist_batch_ops_ = nullptr;

  std::uint64_t view_ = 0;
  std::uint64_t next_seq_ = 1;       // primary's next assignment
  std::uint64_t next_exec_ = 0;      // count of executed entries == next seq-1
  std::uint64_t stable_seq_ = 0;     // last stable checkpoint
  std::uint64_t origin_seq_ = 0;     // local client sequence
  std::uint64_t view_changes_completed_ = 0;
  std::uint64_t decided_ops_ = 0;    // ops fired through decide_
  // Fresh (non-duplicate) ops executed, counted per RECORD as it is applied
  // — ahead of decided_ops_ while a record's decide callbacks are still
  // firing (a nested execution at seq+1 must checkpoint with the outer
  // record fully counted). Equal to decided_ops_ at quiescence; both
  // jump to the checkpoint's count on install.
  std::uint64_t executed_ops_ = 0;

  // The one window of seqs: batches in agreement above next_exec_, executed
  // records at or below it. Its base is stable_seq_: collect_garbage
  // truncates it at the stable checkpoint.
  SeqRing<LogEntry> log_;
  // Requests not executed yet, sorted by RequestId (the order re-proposal
  // and retransmission walk them), at most one per id.
  std::vector<Request> pending_;
  std::vector<Request>::iterator pending_lower_bound(const RequestId& id);
  std::vector<Request>::iterator pending_find(const RequestId& id);
  // Erases the requests executed_requests_ holds, in one pass (erasing
  // a batch's ops one by one would shift the tail once per op).
  void drop_executed_pending();
  // Inserts the request, or replaces the op a pending id holds.
  void pending_put(const Request& req);
  RequestLedger assigned_or_executed_;           // dedup
  // Our rank in config_.members (our vote bit); config_.size() if we are
  // not a member, which still counts our own vote once.
  std::size_t self_rank_ = 0;
  // The pending_ snapshot reenqueue_pending walks, kept for reuse. Taken
  // by move for the call: a nested call from a decide callback finds it
  // empty and cannot clobber the outer call's snapshot.
  std::vector<Request> reenqueue_scratch_;
  // Pre-prepares whose client request has not arrived yet; replayed when it
  // does (the request broadcast can be overtaken by the primary's message).
  std::map<RequestId, net::Message> stashed_pre_prepares_;
  // Protocol messages for views we have not entered yet: replicas enter a
  // new view at different instants, and prepares sent by early entrants
  // must not be lost for late ones. Replayed by enter_view.
  // A vector, not a deque: an empty std::deque allocates its first block
  // (~600 B) up front, in every one of thousands of instances.
  std::vector<net::Message> future_view_msgs_;
  static constexpr std::size_t kFutureBufferCap = 4096;
  // Request ids already executed: an equivocating client (e.g. a Byzantine
  // primary re-ordering its own op) must not be delivered twice. Carried
  // inside checkpoint bodies so installs restore the exact dedup state.
  RequestLedger executed_requests_;
  // seq -> voter -> checkpoint BODY digest (SHA-256 of Checkpoint::body()).
  std::map<std::uint64_t, std::map<NodeId, crypto::Digest>> checkpoints_;
  // Votes for boundary `seq` whose body digest is `d`.
  std::size_t votes_for(std::uint64_t seq, const crypto::Digest& d) const;
  // Incremental executed-state digest, a chain over record digests: per
  // record, state' = sha256(state || rd) with rd = record_digest(rec).
  // Equal across replicas iff their executed prefixes are identical (under
  // SHA-256 collision resistance); checkpoint bodies carry it, and chain
  // validation of fetched records just keeps folding.
  crypto::Digest state_digest_{};
  // The latest STABLE checkpoint (2f+1 matching votes or installed) — what
  // handle_state_fetch serves to deep laggards.
  std::optional<Checkpoint> stable_ckpt_;
  // Our own checkpoints of executed boundaries above stable_seq_, in seq
  // order, each awaiting 2f+1 matching votes; collect_garbage promotes the
  // one at the new stable seq to stable_ckpt_ and drops those below.
  std::vector<Checkpoint> own_ckpts_;

  // Checkpoint plumbing (see pbft.cpp for contracts).
  void maybe_stabilize();
  std::uint64_t validate_chain(const std::vector<ExecRecord>& entries,
                               std::vector<crypto::Digest>& chain) const;
  // Applies the first `count` entries at next_exec_+1 onward; `chain`
  // (validate_chain's output, may be shorter or empty) supplies the state
  // digests already computed for a prefix of them.
  void adopt_entries(const std::vector<ExecRecord>& entries, std::uint64_t count,
                     const std::vector<crypto::Digest>& chain = {});
  void install_checkpoint(Checkpoint ckpt, RequestLedger ledger);
  std::vector<ExecRecord> parse_exec_records(const net::Message& msg, ByteReader& r) const;
  static void encode_exec_record(ByteWriter& w, const ExecRecord& rec);
  // rd: the SHA-256 of encode_exec_record(rec), the one definition of what
  // the state-digest chain folds per record, executed or adopted. For a
  // record with no null op it equals the batch digest (same bytes).
  static crypto::Digest record_digest(const ExecRecord& rec);
  // varint count, then the records of seqs (after, upto] from their slots.
  void encode_records(ByteWriter& w, std::uint64_t after, std::uint64_t upto) const;
  // The f+1 rule for replies no checkpoint vouches for: true once f+1
  // distinct replicas sent byte-identical copies of this reply.
  bool reply_vouched(const net::Message& msg);

  // State-reply kinds (u8 after the instance tag).
  static constexpr std::uint8_t kStateReplyRange = 0;    // head records only
  static constexpr std::uint8_t kStateReplyInstall = 1;  // stable ckpt + head

  // Head-gap catch-up: a replica whose engine attached mid-instance (a
  // state-synced joiner) or that was cut off (partition heal) may hold
  // committed log entries beyond a head it never received; with too few
  // decisions for a checkpoint, the checkpoint-driven transfer never
  // triggers and the replica would stall at next_exec_ forever. The gap is
  // detected in try_execute, history is fetched from 2f+1 peers, and a
  // reply that no checkpoint can validate is accepted once f+1 distinct
  // replicas sent byte-identical copies (at least one of them is correct).
  void maybe_fetch_missing_head();
  // min()/4 (not min()): "now - last" must not overflow on the first check.
  TimeMicros last_head_fetch_ = std::numeric_limits<TimeMicros>::min() / 4;
  // Set from options_.instance_tag, or derived from the member list when
  // that is 0; state fetch/reply are scoped to one engine instance by this
  // tag (see the ctor comment).
  std::uint64_t instance_tag_ = 0;
  // Head-gap fetch rounds since the last execution progress; finite so a
  // replica whose instance was retired under it stops probing (and so the
  // residual same-membership tag collision has a bounded window).
  static constexpr int kMaxHeadFetchRounds = 8;
  int head_fetch_rounds_ = 0;
  // reply digest -> distinct senders of byte-identical replies.
  std::map<crypto::Digest, std::set<NodeId>> state_reply_votes_;

  // Primary-side batch buffer: ops waiting for the next flush. They stay in
  // pending_ too (the view-change timer watches pending_), so a cleared
  // buffer — e.g. on losing primaryship — loses nothing.
  std::vector<Request> batch_buf_;
  std::size_t batch_buf_bytes_ = 0;
  sim::EventId batch_timer_ = 0;
  // Re-entrancy guard: a decide callback fired from inside flush_batch may
  // propose (and thus try to flush) again; the outer flush loop drains it.
  bool flushing_ = false;

  // View change state.
  bool view_changing_ = false;
  std::uint64_t target_view_ = 0;
  std::map<std::uint64_t, std::map<NodeId, ViewChangeMsg>> view_changes_;
  sim::EventId view_timer_ = 0;
  DurationMicros current_timeout_;

  bool stopped_ = false;
};

}  // namespace atum::smr
