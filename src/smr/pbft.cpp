#include "smr/pbft.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <utility>

#include "common/log.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace atum::smr {

namespace {

constexpr NodeId kNullOrigin = kInvalidNode;  // origin of gap-filling null requests

void write_digest(ByteWriter& w, const crypto::Digest& d) { w.raw(d.data(), d.size()); }

crypto::Digest read_digest(ByteReader& r) {
  crypto::Digest d;
  r.raw(d.data(), d.size());
  return d;
}

// One link of the state-digest chain: SHA-256(state || rd), two blocks
// whatever the record's size.
crypto::Digest fold(const crypto::Digest& state, const crypto::Digest& rd) {
  crypto::Sha256 h;
  h.update(state.data(), state.size());
  h.update(rd.data(), rd.size());
  return h.finish();
}

}  // namespace

PbftSmr::PbftSmr(net::Transport transport, GroupConfig config, crypto::KeyStore& keys,
                 PbftOptions options, PbftFaultMode fault)
    : transport_(std::move(transport)),
      config_(std::move(config)),
      keys_(keys),
      options_(options),
      fault_(fault),
      current_timeout_(options.view_change_timeout) {
  config_.normalize();
  // Instance tag: scopes EVERY message — the three-phase traffic as much
  // as state fetch/reply — to THIS engine instance, as the leading u64 of
  // each frame (checked and stripped in on_message). Consensus frames from
  // a different instance over the same node ids must be invisible, not
  // merely unlikely to quorum: a joiner attached mid-epoch with an empty
  // log would otherwise assemble quorums out of the NEXT instance's
  // traffic at its own seq numbering and fork. Every replica of one
  // instance — including a state-synced joiner whose local epoch counter
  // differs — must hold the same tag. ReconfigurableSmr passes one derived
  // from the config-history epoch hash (collision-free across epochs, even
  // A -> B -> A membership cycles); a directly constructed engine (tests,
  // single-epoch uses) falls back to deriving it from the member list.
  if (options_.instance_tag != 0) {
    instance_tag_ = options_.instance_tag;
  } else {
    ByteWriter tw;
    tw.str("pbft-instance");
    for (NodeId n : config_.members) tw.u64(n);
    instance_tag_ = crypto::digest_prefix64(crypto::sha256(tw.data()));
  }
  self_rank_ = config_.contains(transport_.self()) ? config_.index_of(transport_.self())
                                                   : config_.size();
  if (options_.metrics != nullptr) {
    obs::Registry& m = *options_.metrics;
    ctr_pre_prepares_ = &m.counter("smr.pre_prepares");
    ctr_prepares_ = &m.counter("smr.prepares");
    ctr_commits_ = &m.counter("smr.commits");
    ctr_batches_ = &m.counter("smr.batches_executed");
    ctr_ops_ = &m.counter("smr.ops_decided");
    ctr_view_changes_ = &m.counter("smr.view_changes");
    ctr_checkpoints_ = &m.counter("smr.checkpoints_stable");
    ctr_installs_ = &m.counter("smr.checkpoint_installs");
    hist_batch_ops_ = &m.histogram("smr.batch_ops");
  }
  transport_.listen({net::MsgType::kPbftRequest, net::MsgType::kPbftPrePrepare,
                     net::MsgType::kPbftPrepare, net::MsgType::kPbftCommit,
                     net::MsgType::kPbftCheckpoint, net::MsgType::kPbftViewChange,
                     net::MsgType::kPbftNewView, net::MsgType::kPbftStateFetch,
                     net::MsgType::kPbftStateReply},
                    [this](const net::Message& m) { on_message(m); });
}

PbftSmr::~PbftSmr() { stop(); }

void PbftSmr::stop() {
  if (stopped_) return;
  stopped_ = true;
  disarm_view_timer();
  disarm_batch_timer();
  transport_.close();
}

void PbftSmr::set_decide_handler(DecideFn fn) { decide_ = std::move(fn); }

void PbftSmr::trace(obs::TracePoint point, std::uint64_t key, std::uint64_t a,
                    std::uint64_t b) const {
  obs::Tracer* t = options_.tracer;
  if (t == nullptr || !t->enabled()) return;
  // Transport::simulator() is non-const; a Transport copy carries only the
  // network pointer and node id, so copying here is free of registrations.
  net::Transport tp = transport_;
  t->record(tp.simulator().now(), transport_.self(), point, key, a, b);
}

bool PbftSmr::faulty_now() const {
  switch (fault_) {
    case PbftFaultMode::kCorrect: return false;
    case PbftFaultMode::kSilent: return true;
    case PbftFaultMode::kSilentPrimary: return is_primary();
    case PbftFaultMode::kEquivocatePrimary: return false;  // handled in flush_batch
  }
  return false;
}

void PbftSmr::encode_ops_region(ByteWriter& w, std::span<const Request> batch) {
  w.varint(batch.size());
  for (const Request& req : batch) {
    w.u64(req.id.origin);
    w.u64(req.id.seq);
    w.bytes(req.op.data(), req.op.size());
  }
}

std::size_t PbftSmr::ops_region_size(std::span<const Request> batch) {
  std::size_t n = varint_size(batch.size());
  for (const Request& req : batch) n += 16 + varint_size(req.op.size()) + req.op.size();
  return n;
}

void PbftSmr::parse_ops_region(const net::Payload& frame, std::span<const std::uint8_t> region,
                               std::vector<Request>& batch) {
  batch.clear();
  ByteReader r(region.data(), region.size());
  std::uint64_t count = r.varint();
  // Each op is at least 17 bytes; a Byzantine count far beyond the bytes
  // present must fail as malformed before any reserve.
  if (count > r.remaining()) throw SerdeError("ops region count exceeds buffer");
  batch.reserve(static_cast<std::size_t>(count));
  std::size_t canonical = varint_size(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Request req;
    req.id.origin = r.u64();
    req.id.seq = r.u64();
    req.op = frame.slice(r.bytes_view());  // zero-copy: view of the frame
    // The null origin is reserved for gap-filling empty batches; an op
    // claiming it could never be matched against a client broadcast.
    if (req.id.origin == kNullOrigin) throw SerdeError("op with null origin");
    canonical += 16 + varint_size(req.op.size()) + req.op.size();
    batch.push_back(std::move(req));
  }
  r.expect_done();
  // An overlong varint decodes to the same batch but re-encodes shorter.
  // Only the canonical bytes may carry the batch digest: execution folds
  // that digest as the record digest of the batch (see execute_entry).
  if (canonical != region.size()) throw SerdeError("non-canonical ops region");
}

ByteWriter PbftSmr::frame_writer(std::size_t body_size) const {
  ByteWriter w(8 + body_size);
  w.u64(instance_tag_);
  return w;
}

std::pair<Bytes, crypto::Digest> PbftSmr::pre_prepare_frame(std::uint64_t view, std::uint64_t seq,
                                                            std::span<const Request> batch) const {
  const std::size_t region = ops_region_size(batch);
  ByteWriter w = frame_writer(16 + crypto::Digest{}.size() + varint_size(region) + region);
  w.u64(view);
  w.u64(seq);
  const std::size_t digest_at = w.size();
  write_digest(w, crypto::Digest{});  // patched below, once the region is hashed
  w.varint(region);
  const std::size_t region_at = w.size();
  encode_ops_region(w, batch);
  Bytes frame = w.take();
  const crypto::Digest digest = crypto::sha256(frame.data() + region_at, region);
  std::copy(digest.begin(), digest.end(), frame.begin() + static_cast<std::ptrdiff_t>(digest_at));
  return {std::move(frame), digest};
}

Bytes PbftSmr::request_frame(const Request& req) const {
  ByteWriter w = frame_writer(16 + varint_size(req.op.size()) + req.op.size());
  w.u64(req.id.origin);
  w.u64(req.id.seq);
  w.bytes(req.op.data(), req.op.size());
  return w.take();
}

Bytes PbftSmr::vote_frame(std::uint64_t view, std::uint64_t seq,
                          const crypto::Digest& digest) const {
  ByteWriter w = frame_writer(16 + digest.size());
  w.u64(view);
  w.u64(seq);
  write_digest(w, digest);
  return w.take();
}

void PbftSmr::broadcast(net::MsgType type, Bytes frame, bool include_self) {
  const net::Payload frozen(std::move(frame));  // one buffer shared by every replica
  for (NodeId peer : config_.members) {
    if (peer == transport_.self()) continue;
    transport_.send(peer, type, frozen);
  }
  if (include_self) {
    transport_.send(transport_.self(), type, frozen);
  }
}

void PbftSmr::sign_and_broadcast(net::MsgType type, ByteWriter frame) {
  const Bytes& b = frame.data();
  const crypto::Signature sig = keys_.key_of(transport_.self()).sign(b.data() + 8, b.size() - 8);
  frame.raw(sig.data(), sig.size());
  broadcast(type, frame.take());
}

// ---------------------------------------------------------------------------
// Request submission
// ---------------------------------------------------------------------------

void PbftSmr::propose(Bytes op) {
  if (fault_ == PbftFaultMode::kSilent) return;
  // Freeze the op once; pending_, the log, and the decide path all share it.
  Request req{RequestId{transport_.self(), ++origin_seq_}, net::Payload(std::move(op))};
  if (options_.tracer != nullptr && options_.tracer->enabled()) {
    trace(obs::TracePoint::kPropose, crypto::digest_prefix64(req.op.digest()), req.id.seq);
  }

  broadcast(net::MsgType::kPbftRequest, request_frame(req));

  pending_put(req);
  if (is_primary() && !view_changing_) {
    enqueue_op(req);
  }
  arm_view_timer();
}

void PbftSmr::handle_request(const net::Message& msg) {
  ByteReader r(msg.payload);
  Request req;
  req.id.origin = r.u64();
  req.id.seq = r.u64();
  req.op = msg.payload.slice(r.bytes_view());     // zero-copy: view of the frame
  if (req.id.origin != msg.from) return;          // clients are the members themselves
  if (!config_.contains(req.id.origin)) return;
  if (assigned_or_executed_.contains(req.id.origin, req.id.seq)) return;

  pending_put(req);
  if (is_primary() && !view_changing_) {
    enqueue_op(req);
  }
  // A pre-prepare may have overtaken this request; replay it now that the
  // client's copy is available for cross-checking. The replay may stash the
  // same message again under the batch's NEXT still-missing request id.
  if (auto it = stashed_pre_prepares_.find(req.id); it != stashed_pre_prepares_.end()) {
    net::Message stashed = std::move(it->second);
    stashed_pre_prepares_.erase(it);
    handle_pre_prepare(stashed);
  }
  arm_view_timer();  // backup: expect the primary to order it
}

// ---------------------------------------------------------------------------
// Primary-side batching
// ---------------------------------------------------------------------------

void PbftSmr::enqueue_op(const Request& req) {
  if (fault_ == PbftFaultMode::kSilentPrimary) return;
  if (assigned_or_executed_.contains(req.id.origin, req.id.seq)) return;
  for (const Request& buffered : batch_buf_) {
    if (buffered.id == req.id) return;  // already awaiting the next flush
  }
  batch_buf_.push_back(req);
  batch_buf_bytes_ += req.op.size();
  if (batch_buf_.size() >= options_.batch_max_ops ||
      batch_buf_bytes_ >= options_.batch_max_bytes) {
    flush_batch();
  } else {
    arm_batch_timer();  // deadline flush; pure sim time, deterministic
  }
}

void PbftSmr::arm_batch_timer() {
  if (batch_timer_ != 0 || stopped_) return;
  batch_timer_ = transport_.simulator().schedule_after(options_.batch_flush_delay, [this] {
    batch_timer_ = 0;
    if (is_primary() && !view_changing_) flush_batch();
  });
}

void PbftSmr::disarm_batch_timer() {
  if (batch_timer_ != 0) {
    transport_.simulator().cancel(batch_timer_);
    batch_timer_ = 0;
  }
}

void PbftSmr::flush_batch() {
  // maybe_send_prepare below can execute a committed entry inline, whose
  // decide callback may propose fresh ops; the guarded re-entrant call
  // returns and the outer loop drains what it enqueued.
  if (flushing_) return;
  disarm_batch_timer();
  // Ops that got handled since buffering (e.g. adopted through state
  // transfer) must not be re-proposed; drop them before burning a seq.
  std::erase_if(batch_buf_, [&](const Request& r) {
    return assigned_or_executed_.contains(r.id.origin, r.id.seq);
  });
  flushing_ = true;
  // The buffer can hold more than one batch's worth (accumulated behind a
  // closed window, or re-proposals after a view change): carve batches
  // bounded by batch_max_ops/batch_max_bytes until the buffer drains or
  // the window closes. collect_garbage retries whatever stays behind.
  while (!batch_buf_.empty() && in_window(next_seq_)) {
    std::size_t count = 0, bytes = 0;
    while (count < batch_buf_.size() && count < options_.batch_max_ops &&
           bytes < options_.batch_max_bytes) {
      bytes += batch_buf_[count].op.size();
      ++count;
    }
    const std::uint64_t seq = next_seq_++;
    LogEntry& entry = log_.at(seq);
    entry.batch.assign(std::make_move_iterator(batch_buf_.begin()),
                       std::make_move_iterator(batch_buf_.begin() + static_cast<long>(count)));
    batch_buf_.erase(batch_buf_.begin(), batch_buf_.begin() + static_cast<long>(count));
    for (const Request& r : entry.batch) assigned_or_executed_.insert(r.id.origin, r.id.seq);
    // NOTE: the requests stay in pending_ until EXECUTED — the view-change
    // timer watches pending_, and an assigned-but-never-committed request
    // must still be able to trigger a view change.

    // The ops region is encoded once, into the frame, and hashed once: the
    // pre-prepare and the batch digest it carries.
    auto [frame, d] = pre_prepare_frame(view_, seq, entry.batch);
    entry.view = view_;
    entry.digest = d;
    entry.pre_prepared = true;

    if (fault_ == PbftFaultMode::kEquivocatePrimary) {
      // Conflicting batches to the two halves of the group (same seq, same
      // request ids, one op's content mutated). Correct replicas can never
      // gather 2f matching prepares for either copy.
      std::vector<Request> alt = entry.batch;
      Bytes alt_op = alt.front().op.to_bytes();
      alt_op.push_back(0xFF);
      alt.front().op = net::Payload(std::move(alt_op));
      const net::Payload wire_a(std::move(frame)), wire_b(pre_prepare_frame(view_, seq, alt).first);
      std::size_t half = config_.size() / 2;
      for (std::size_t i = 0; i < config_.size(); ++i) {
        if (config_.members[i] == transport_.self()) continue;
        transport_.send(config_.members[i], net::MsgType::kPbftPrePrepare,
                        i < half ? wire_a : wire_b);
      }
      break;  // one equivocated batch per flush is plenty
    }

    if (ctr_pre_prepares_ != nullptr) ctr_pre_prepares_->inc();
    trace(obs::TracePoint::kPrePrepare, crypto::digest_prefix64(d), seq, entry.batch.size());
    broadcast(net::MsgType::kPbftPrePrepare, std::move(frame));
    maybe_send_prepare(seq);
  }
  flushing_ = false;
  batch_buf_bytes_ = 0;
  for (const Request& r : batch_buf_) batch_buf_bytes_ += r.op.size();
}

// ---------------------------------------------------------------------------
// Three-phase agreement
// ---------------------------------------------------------------------------

void PbftSmr::handle_pre_prepare(const net::Message& msg) {
  if (msg.from != primary_of(view_)) return;
  ByteReader r(msg.payload);
  std::uint64_t view = r.u64();
  std::uint64_t seq = r.u64();
  crypto::Digest digest = read_digest(r);
  std::span<const std::uint8_t> ops_region = r.bytes_view();
  // Zero-copy: every op stays a slice of the pre-prepare frame. Every
  // replica shares the primary's one frozen buffer, so the whole group
  // logs, executes, and decides this batch without materializing a copy.
  std::vector<Request> batch;
  parse_ops_region(msg.payload, ops_region, batch);

  if (view > view_ || (view == view_ && view_changing_)) {
    // Also buffer current-view traffic while mid-view-change: the change
    // may abort back into this view via a NEW-VIEW for it.
    if (future_view_msgs_.size() < kFutureBufferCap) future_view_msgs_.push_back(msg);
    return;
  }
  if (view != view_) return;
  if (!in_window(seq)) return;
  bool is_null = batch.empty();
  // The batch digest covers the ops-region bytes; hashing the slice hits
  // the frame's digest memo, shared with any other holder of this frame.
  if (!is_null && msg.payload.slice(ops_region).digest() != digest) return;

  // The primary must not invent or alter another member's request: accept
  // only ops we can match against the client's own broadcast (or the
  // primary's own ops — the primary is its own client). A batch with an
  // unknown request is stashed until that client's copy arrives (and may
  // re-stash under the next missing id when replayed).
  for (const Request& req : batch) {
    if (req.id.origin == msg.from ||
        assigned_or_executed_.contains(req.id.origin, req.id.seq)) {
      continue;
    }
    auto pit = pending_find(req.id);
    if (pit == pending_.end()) {
      stashed_pre_prepares_[req.id] = msg;
      return;
    }
    if (pit->op != req.op) return;  // forged content: ignore
  }

  LogEntry& entry = log_.at(seq);
  if (entry.pre_prepared) {
    if (entry.view == view && entry.digest != digest) return;  // equivocation: ignore
    if (entry.view == view) return;                            // duplicate
  }
  entry.view = view;
  entry.digest = digest;
  entry.batch = std::move(batch);
  entry.pre_prepared = true;
  for (const Request& req : entry.batch) {
    assigned_or_executed_.insert(req.id.origin, req.id.seq);
  }
  // The requests remain pending_ until executed (liveness timer input).

  if (ctr_prepares_ != nullptr) ctr_prepares_->inc();
  trace(obs::TracePoint::kPrepare, crypto::digest_prefix64(digest), seq, entry.batch.size());
  broadcast(net::MsgType::kPbftPrepare, vote_frame(view, seq, digest));
  entry.prepares.insert(self_rank_);
  maybe_send_commit(seq);
  arm_view_timer();
}

void PbftSmr::handle_prepare(const net::Message& msg, std::size_t from_rank) {
  ByteReader r(msg.payload);
  std::uint64_t view = r.u64();
  std::uint64_t seq = r.u64();
  crypto::Digest digest = read_digest(r);
  if (view > view_) {
    if (future_view_msgs_.size() < kFutureBufferCap) future_view_msgs_.push_back(msg);
    return;
  }
  if (view != view_ || !in_window(seq)) return;

  LogEntry& entry = log_.at(seq);
  if (entry.pre_prepared && entry.digest != digest) return;
  entry.prepares.insert(from_rank);
  maybe_send_commit(seq);
}

void PbftSmr::maybe_send_prepare(std::uint64_t seq) {
  // The primary's pre-prepare acts as its prepare.
  log_.at(seq).prepares.insert(self_rank_);
  maybe_send_commit(seq);
}

void PbftSmr::maybe_send_commit(std::uint64_t seq) {
  LogEntry& entry = log_.at(seq);
  // Prepared: pre-prepare + 2f prepares (from distinct replicas, self incl).
  if (!entry.pre_prepared) return;
  if (entry.commits.contains(self_rank_)) return;
  if (entry.prepares.size() < 2 * max_faults()) return;

  if (ctr_commits_ != nullptr) ctr_commits_->inc();
  trace(obs::TracePoint::kCommit, crypto::digest_prefix64(entry.digest), seq);
  broadcast(net::MsgType::kPbftCommit, vote_frame(view_, seq, entry.digest));
  entry.commits.insert(self_rank_);
  try_execute();
}

void PbftSmr::handle_commit(const net::Message& msg, std::size_t from_rank) {
  ByteReader r(msg.payload);
  std::uint64_t view = r.u64();
  std::uint64_t seq = r.u64();
  crypto::Digest digest = read_digest(r);
  if (!in_window(seq)) return;

  LogEntry& entry = log_.at(seq);
  if (entry.pre_prepared && entry.digest != digest) return;
  (void)view;  // commits from any view count once the digest matches
  entry.commits.insert(from_rank);
  try_execute();
}

void PbftSmr::try_execute() {
  while (true) {
    const LogEntry* entry = log_.find(next_exec_ + 1);
    if (entry == nullptr) break;
    bool committed = entry->pre_prepared && entry->prepares.size() >= 2 * max_faults() &&
                     entry->commits.size() >= quorum();
    if (!committed) break;
    execute_entry(next_exec_ + 1, *entry);
  }
  maybe_fetch_missing_head();
}

void PbftSmr::maybe_fetch_missing_head() {
  // Only when the next sequence cannot be reconstructed locally: it is
  // either absent from the log or present as a shell of prepares/commits
  // whose pre-prepare — the message that carries the op — predates this
  // replica's attachment (state-synced joiner) or was lost to a partition.
  // Evidence required before fetching: quorum commits on some entry at or
  // beyond the head, proving the instance decided it without us.
  const LogEntry* head = log_.find(next_exec_ + 1);
  if (head != nullptr && head->pre_prepared) return;  // normal path
  // Rate limit and round bound BEFORE the anchor scan: with a gap open,
  // try_execute runs on every prepare/commit and the O(window) scan below
  // must not ride the message hot path. Rounds are finite so a permanent
  // zombie (its instance retired under it) stops fetching instead of
  // probing forever — which also bounds the window for the residual
  // instance-tag collision (see the ctor comment); the counter resets
  // whenever execution progresses.
  const TimeMicros now = transport_.simulator().now();
  if (now - last_head_fetch_ < options_.view_change_timeout) return;
  if (head_fetch_rounds_ >= kMaxHeadFetchRounds) return;
  std::uint64_t anchor = 0;  // first quorum-committed seq at/beyond the head
  for (std::uint64_t seq = std::max(next_exec_, log_.base()) + 1; seq <= log_.top(); ++seq) {
    if (log_.find(seq)->commits.size() >= quorum()) {
      anchor = seq;
      break;
    }
  }
  if (anchor == 0) return;  // no proof the instance is ahead of us
  last_head_fetch_ = now;
  ++head_fetch_rounds_;
  state_reply_votes_.clear();  // votes from older rounds cover other ranges
  // Ask 2f+1 peers for exactly [next_exec_, anchor): pinning the range end
  // makes every correct replier's bytes identical, so the f+1-matching
  // acceptance rule can fire. Up to f of those asked may be faulty or
  // equally behind; enough matching replies can still form.
  const net::Payload frame = state_fetch_frame(anchor);
  std::size_t asked = 0;
  for (NodeId node : config_.members) {
    if (node == transport_.self()) continue;
    if (asked++ >= 2 * max_faults() + 1) break;
    transport_.send(node, net::MsgType::kPbftStateFetch, frame);
  }
}

void PbftSmr::execute_entry(std::uint64_t seq, const LogEntry& entry) {
  // One exec record per seq, holding the whole batch in delivery order
  // (empty for a null batch). An op whose request already executed — under
  // an earlier seq or earlier in this batch, an equivocating client
  // re-submitting — is recorded as a null op so replayed histories skip it
  // identically.
  ExecRecord rec;
  rec.ops.reserve(entry.batch.size());
  bool nulled = false;
  for (auto req = entry.batch.begin(); req != entry.batch.end(); ++req) {
    const bool repeat =
        executed_requests_.contains(req->id.origin, req->id.seq) ||
        std::any_of(entry.batch.begin(), req, [&](const Request& r) { return r.id == req->id; });
    nulled |= repeat;
    rec.ops.push_back(repeat ? ExecOp{kNullOrigin, req->id.seq, {}}
                             : ExecOp{req->id.origin, req->id.seq, req->op});
  }
  // A record that nulled none of its ops encodes to exactly the batch's
  // (canonical) ops region, so the slot's verified batch digest already IS
  // its record digest. A null filler (its digest is all-zero, never
  // hashed) or a record with a null op is hashed from its own encoding.
  const crypto::Digest rd = entry.batch.empty() || nulled ? record_digest(rec) : entry.digest;
  apply_record(seq, std::move(rec), fold(state_digest_, rd));
  maybe_stabilize();
  // Progress was made: withdraw any view change this replica started out of
  // lag, then restart (or, with nothing pending, disarm) the liveness timer.
  abandon_view_change();
  current_timeout_ = options_.view_change_timeout;
  disarm_view_timer();
  arm_view_timer();
}

void PbftSmr::apply_record(std::uint64_t seq, ExecRecord rec, const crypto::Digest& state_after) {
  // Ordering matters: advance the state digest, count the record's fresh
  // ops, and capture the checkpoint at a boundary BEFORE any decide
  // callback runs — a callback may propose and (with tiny quorums) execute
  // the next seq inline, and that nested execution's checkpoint must see
  // this record fully accounted. A served record is folded VERBATIM: the
  // state digest chain covers the null-op markers too, so re-nulling
  // against local ledger state would fork the chain from the group's.
  state_digest_ = state_after;
  std::uint64_t fresh_ops = 0;
  for (const ExecOp& op : rec.ops) {
    if (op.origin == kNullOrigin) continue;
    if (executed_requests_.insert(op.origin, op.origin_seq)) ++fresh_ops;
    assigned_or_executed_.insert(op.origin, op.origin_seq);
  }
  drop_executed_pending();
  executed_ops_ += fresh_ops;
  if (ctr_batches_ != nullptr) ctr_batches_->inc();
  if (hist_batch_ops_ != nullptr) hist_batch_ops_->record(fresh_ops);
  next_exec_ = seq;
  head_fetch_rounds_ = 0;  // progress: future gaps get fresh fetch rounds
  log_.at(seq).executed = true;
  if (seq % options_.checkpoint_interval == 0) send_checkpoint(seq);
  // The decides read `rec`, which this call owns: a nested execution may
  // collect this slot under us, or reuse it for a later seq. The record
  // moves into its slot once they are done, if the slot is still live;
  // only message handlers read a slot's record, and none runs inside a
  // decide callback.
  for (const ExecOp& op : rec.ops) {
    if (op.origin == kNullOrigin) continue;
    // Zero-copy async decide: the op is a refcounted slice of the frame it
    // was decided or served in, shared by the log and its batch-mates. The
    // callback (and everything above it) works on the same buffer; the seq
    // argument is the per-op delivery ordinal.
    ++decided_ops_;
    if (ctr_ops_ != nullptr) ctr_ops_->inc();
    if (options_.tracer != nullptr && options_.tracer->enabled()) {
      trace(obs::TracePoint::kDecide, crypto::digest_prefix64(op.op.digest()), seq);
    }
    if (decide_) decide_(decided_ops_ - 1, op.origin, op.op);
  }
  if (LogEntry* slot = log_.find(seq)) slot->record = std::move(rec);
}

std::size_t PbftSmr::records_held() const {
  std::size_t n = 0;
  for (std::uint64_t seq = log_.base() + 1; seq <= log_.top(); ++seq) n += log_.find(seq)->executed;
  return n;
}

std::vector<PbftSmr::Request>::iterator PbftSmr::pending_lower_bound(const RequestId& id) {
  return std::lower_bound(pending_.begin(), pending_.end(), id,
                          [](const Request& r, const RequestId& key) { return r.id < key; });
}

std::vector<PbftSmr::Request>::iterator PbftSmr::pending_find(const RequestId& id) {
  auto it = pending_lower_bound(id);
  return it != pending_.end() && it->id == id ? it : pending_.end();
}

void PbftSmr::pending_put(const Request& req) {
  auto it = pending_lower_bound(req.id);
  if (it != pending_.end() && it->id == req.id) {
    it->op = req.op;
  } else {
    pending_.insert(it, req);
  }
}

void PbftSmr::drop_executed_pending() {
  std::erase_if(pending_, [&](const Request& req) {
    return executed_requests_.contains(req.id.origin, req.id.seq);
  });
}

// ---------------------------------------------------------------------------
// Checkpoints & state transfer
// ---------------------------------------------------------------------------

// Canonical per-record encoding: hashed into the record digest and reused
// verbatim by state replies, so a fetcher re-folding served records
// reproduces the server's digest chain byte-for-byte. It is the ops-region
// layout, with null ops carrying the null origin and an empty op.
void PbftSmr::encode_exec_record(ByteWriter& w, const ExecRecord& rec) {
  w.varint(rec.ops.size());
  for (const ExecOp& op : rec.ops) {
    w.u64(op.origin);
    w.u64(op.origin_seq);
    w.bytes(op.op.data(), op.op.size());
  }
}

crypto::Digest PbftSmr::record_digest(const ExecRecord& rec) {
  ByteWriter w;
  encode_exec_record(w, rec);
  return crypto::sha256(w.data());
}

// Checkpoint body CB(seq) — the full wire message AND the thing voted on
// (votes store the SHA-256 of these bytes).
void PbftSmr::Checkpoint::write_body(ByteWriter& w) const {
  w.u64(seq);
  write_digest(w, state_digest);
  w.u64(ops);
  w.bytes(ledger_wire);
}

crypto::Digest PbftSmr::Checkpoint::body_digest() const {
  ByteWriter w(body_size());
  write_body(w);
  return crypto::sha256(w.data());
}

std::size_t PbftSmr::votes_for(std::uint64_t seq, const crypto::Digest& d) const {
  auto it = checkpoints_.find(seq);
  if (it == checkpoints_.end()) return 0;
  return static_cast<std::size_t>(std::count_if(
      it->second.begin(), it->second.end(), [&](const auto& vote) { return vote.second == d; }));
}

void PbftSmr::send_checkpoint(std::uint64_t seq) {
  ByteWriter lw;
  executed_requests_.encode(lw);
  Checkpoint ckpt{seq, state_digest_, executed_ops_, lw.take()};
  ByteWriter w = frame_writer(ckpt.body_size());
  ckpt.write_body(w);
  Bytes frame = w.take();
  const crypto::Digest d = crypto::sha256(frame.data() + 8, frame.size() - 8);  // after the tag
  own_ckpts_.push_back(std::move(ckpt));
  broadcast(net::MsgType::kPbftCheckpoint, std::move(frame));
  checkpoints_[seq][transport_.self()] = d;
  // Stabilization (our vote may complete a quorum) is NOT checked here:
  // send_checkpoint runs before the boundary record's decides fire, and
  // execute_entry/adopt_entries call maybe_stabilize() once they unwind.
}

void PbftSmr::handle_checkpoint(const net::Message& msg) {
  ByteReader r(msg.payload);
  std::uint64_t seq = r.u64();
  (void)read_digest(r);  // state digest: covered by the body digest below
  (void)r.u64();         // op count: likewise
  {
    // The ledger region must at least parse — a vote whose body could never
    // be installed is dropped as malformed (SerdeError -> on_message net).
    std::span<const std::uint8_t> region = r.bytes_view();
    ByteReader lr(region.data(), region.size());
    (void)RequestLedger::decode(lr);
    lr.expect_done();
  }
  r.expect_done();
  if (seq <= stable_seq_) return;
  if (seq % options_.checkpoint_interval != 0) return;  // not a boundary

  // The vote is the digest of the whole body (memoized on the frame).
  crypto::Digest d = msg.payload.digest();
  checkpoints_[seq][msg.from] = d;
  std::size_t matching = votes_for(seq, d);
  if (matching >= quorum() && seq <= next_exec_) {
    collect_garbage(seq);
  } else if (matching >= max_faults() + 1 && seq > next_exec_ + options_.watermark_window / 2) {
    // We have fallen behind a vouched checkpoint: fetch state.
    request_state_transfer();
  }
}

void PbftSmr::maybe_stabilize() {
  // A boundary we just executed may complete a quorum whose peer votes
  // arrived BEFORE we executed it — handle_checkpoint alone would leave the
  // log untruncated until the next peer message. Count votes matching our
  // own; newest eligible boundary wins.
  for (auto it = checkpoints_.rbegin(); it != checkpoints_.rend(); ++it) {
    if (it->first > next_exec_ || it->first <= stable_seq_) continue;
    auto self_it = it->second.find(transport_.self());
    if (self_it == it->second.end()) continue;
    if (votes_for(it->first, self_it->second) >= quorum()) {
      collect_garbage(it->first);
      return;
    }
  }
}

void PbftSmr::collect_garbage(std::uint64_t stable_seq) {
  if (stable_seq <= stable_seq_) return;
  stable_seq_ = stable_seq;
  if (ctr_checkpoints_ != nullptr) ctr_checkpoints_->inc();
  // Promote our capture of this boundary to the served stable checkpoint
  // (install_checkpoint sets stable_ckpt_ itself; it holds no such capture).
  auto own = std::find_if(own_ckpts_.begin(), own_ckpts_.end(),
                          [&](const Checkpoint& c) { return c.seq >= stable_seq; });
  if (own != own_ckpts_.end() && own->seq == stable_seq) stable_ckpt_ = std::move(*own++);
  own_ckpts_.erase(own_ckpts_.begin(), own);
  // The memory bound: every slot at or below the stable checkpoint is
  // reset, executed record and all (unpinning its batch frames).
  // in_window caps next_exec_ at stable_seq_ + watermark_window, so the log
  // never holds more than watermark_window records.
  log_.truncate_through(stable_seq);
  checkpoints_.erase(checkpoints_.begin(), checkpoints_.upper_bound(stable_seq));
  // Requests stuck behind the window may now be assignable (and a batch
  // flush that stalled against the window can retry).
  if (is_primary() && !view_changing_) reenqueue_pending();
}

void PbftSmr::reenqueue_pending() {
  // Walk a snapshot: enqueueing can flush, execute, and so erase from
  // pending_ under the walk.
  std::vector<Request> snapshot = std::move(reenqueue_scratch_);
  snapshot.assign(pending_.begin(), pending_.end());
  for (const Request& req : snapshot) enqueue_op(req);
  snapshot.clear();
  reenqueue_scratch_ = std::move(snapshot);
  flush_batch();
}

net::Payload PbftSmr::state_fetch_frame(std::uint64_t upto) const {
  ByteWriter w = frame_writer(16);
  w.u64(next_exec_);
  w.u64(upto);
  return net::Payload(w.take());
}

void PbftSmr::request_state_transfer() {
  // Ask the freshest vouched checkpoint's voters for history.
  for (auto it = checkpoints_.rbegin(); it != checkpoints_.rend(); ++it) {
    if (it->second.size() < max_faults() + 1) continue;
    for (const auto& [node, digest] : it->second) {
      if (node == transport_.self()) continue;
      // No range cap: validated against the vouched checkpoint.
      transport_.send(node, net::MsgType::kPbftStateFetch, state_fetch_frame(0));
      return;  // one fetch at a time; retried on the next checkpoint signal
    }
  }
}

void PbftSmr::encode_records(ByteWriter& w, std::uint64_t after, std::uint64_t upto) const {
  w.varint(upto - after);
  for (std::uint64_t seq = after + 1; seq <= upto; ++seq) {
    const LogEntry* slot = log_.find(seq);
    assert(slot != nullptr && slot->executed);
    encode_exec_record(w, slot->record);
  }
}

void PbftSmr::handle_state_fetch(const net::Message& msg) {
  if (faulty_now()) return;
  ByteReader r(msg.payload);
  std::uint64_t from_seq = r.u64();
  std::uint64_t upto = r.u64();  // exclusive end of the decided prefix; 0 = all
  r.expect_done();

  // The log holds a record for every seq in (base, next_exec_].
  const std::uint64_t base = history_base();
  ByteWriter w;
  w.u64(instance_tag_);
  if (from_seq >= base) {
    // The fetcher's head starts inside our retained records: serve the
    // pinned range — records for seqs (from_seq, min(next_exec_, upto)],
    // exactly the gap it asked for.
    const std::uint64_t end = upto != 0 ? std::min(next_exec_, upto) : next_exec_;
    if (from_seq >= end) return;  // have not executed the requested range yet
    w.u8(kStateReplyRange);
    w.u64(from_seq);
    encode_records(w, from_seq, end);
  } else {
    // The requested range predates our truncation point — those records
    // are gone. Serve the latest stable checkpoint plus every retained
    // record above it; the fetcher installs the checkpoint (skipping the
    // truncated prefix) and replays the head.
    if (!stable_ckpt_) return;
    w.u8(kStateReplyInstall);
    w.u64(from_seq);  // echoed so the fetcher can match reply to request
    stable_ckpt_->write_body(w);
    encode_records(w, base, next_exec_);
  }
  transport_.send(msg.from, net::MsgType::kPbftStateReply, w.take());
}

std::vector<PbftSmr::ExecRecord> PbftSmr::parse_exec_records(const net::Message& msg,
                                                             ByteReader& r) const {
  std::uint64_t count = r.varint();
  // Bound the claimed counts by the bytes actually present (each record is
  // at least 1 byte, each op at least 17) BEFORE reserving: a Byzantine
  // reply declaring 2^60 entries must be dropped as malformed, not turned
  // into a length_error/bad_alloc that escapes the SerdeError net in
  // on_message and kills the replica.
  if (count > r.remaining()) throw SerdeError("state reply count exceeds buffer");
  std::vector<ExecRecord> entries;
  entries.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t op_count = r.varint();
    if (op_count > r.remaining()) throw SerdeError("state reply op count exceeds buffer");
    ExecRecord rec;
    rec.ops.reserve(static_cast<std::size_t>(op_count));
    for (std::uint64_t j = 0; j < op_count; ++j) {
      ExecOp op;
      op.origin = r.u64();
      op.origin_seq = r.u64();
      op.op = msg.payload.slice(r.bytes_view());  // zero-copy out of the reply frame
      rec.ops.push_back(std::move(op));
    }
    entries.push_back(std::move(rec));
  }
  return entries;
}

// Chain validation: simulate folding `entries` (claiming seqs next_exec_+1
// onward) onto the current state digest / op count / ledger, and at every
// checkpoint boundary rebuild the body the chain implies and count matching
// votes. Returns the highest boundary that f+1 voters confirm (0 = none) —
// everything up to it is provably the group's history, because a correct
// voter hashed the same digest chain over the same records — and leaves in
// `chain` the state digest after each record up to it, so adoption does
// not fold them again. Only a boundary with f+1 voters can confirm
// anything, so nothing past the last such boundary in reach is hashed (a
// head-gap reply with none costs no hashing here at all).
std::uint64_t PbftSmr::validate_chain(const std::vector<ExecRecord>& entries,
                                      std::vector<crypto::Digest>& chain) const {
  chain.clear();
  const auto confirmable = [&](std::uint64_t seq) {
    auto it = checkpoints_.find(seq);
    return it != checkpoints_.end() && it->second.size() >= max_faults() + 1;
  };
  std::uint64_t last = 0;
  for (auto it = std::make_reverse_iterator(checkpoints_.upper_bound(next_exec_ + entries.size()));
       it != checkpoints_.rend() && it->first > next_exec_; ++it) {
    if (confirmable(it->first)) {
      last = it->first;
      break;
    }
  }
  crypto::Digest digest = state_digest_;
  std::uint64_t ops = executed_ops_;
  RequestLedger ledger = executed_requests_;
  std::uint64_t best = 0;
  for (std::uint64_t seq = next_exec_ + 1; seq <= last; ++seq) {
    const ExecRecord& rec = entries[static_cast<std::size_t>(seq - next_exec_ - 1)];
    digest = fold(digest, record_digest(rec));
    chain.push_back(digest);
    for (const ExecOp& op : rec.ops) {
      if (op.origin == kNullOrigin) continue;
      if (ledger.insert(op.origin, op.origin_seq)) ++ops;
    }
    if (seq % options_.checkpoint_interval != 0 || !confirmable(seq)) continue;
    ByteWriter lw;
    ledger.encode(lw);
    const Checkpoint implied{seq, digest, ops, lw.take()};
    if (votes_for(seq, implied.body_digest()) >= max_faults() + 1) best = seq;
  }
  chain.resize(best > next_exec_ ? static_cast<std::size_t>(best - next_exec_) : 0);
  return best;
}

bool PbftSmr::reply_vouched(const net::Message& msg) {
  std::set<NodeId>& voters = state_reply_votes_[msg.payload.digest()];
  voters.insert(msg.from);
  if (voters.size() < max_faults() + 1) return false;
  state_reply_votes_.clear();
  return true;
}

void PbftSmr::handle_state_reply(const net::Message& msg) {
  ByteReader r(msg.payload);
  std::uint8_t kind = r.u8();
  std::uint64_t from_seq = r.u64();
  if (from_seq != next_exec_) return;  // stale reply

  if (kind == kStateReplyRange) {
    std::vector<ExecRecord> entries = parse_exec_records(msg, r);
    r.expect_done();
    if (entries.empty()) return;
    std::vector<crypto::Digest> chain;
    std::uint64_t validated = validate_chain(entries, chain);
    if (validated > next_exec_) {
      adopt_entries(entries, validated - next_exec_, chain);
      collect_garbage(validated);
      return;
    }
    // No covering checkpoint — the small-head-gap case (a replica that
    // attached mid-instance; see maybe_fetch_missing_head). Accept the
    // records once f+1 distinct replicas sent byte-identical replies: at
    // least one of them is correct, and correct replicas only serve history
    // they executed.
    if (reply_vouched(msg)) adopt_entries(entries, entries.size());
    return;
  }
  if (kind != kStateReplyInstall) return;

  Checkpoint ckpt;
  ckpt.seq = r.u64();
  ckpt.state_digest = read_digest(r);
  ckpt.ops = r.u64();
  std::span<const std::uint8_t> ledger_region = r.bytes_view();
  std::vector<ExecRecord> head = parse_exec_records(msg, r);
  r.expect_done();
  const std::uint64_t cseq = ckpt.seq;
  if (cseq <= next_exec_) return;  // already past the offered boundary
  if (cseq % options_.checkpoint_interval != 0) return;
  ckpt.ledger_wire.assign(ledger_region.begin(), ledger_region.end());
  ByteReader lr(ckpt.ledger_wire);
  RequestLedger ledger = RequestLedger::decode(lr);
  lr.expect_done();

  // The checkpoint is trusted only against evidence: either f+1 votes on
  // exactly this body (the normal request_state_transfer path — the votes
  // are what triggered the fetch), or f+1 byte-identical whole replies.
  const bool ckpt_vouched = votes_for(cseq, ckpt.body_digest()) >= max_faults() + 1;
  if (!ckpt_vouched && !reply_vouched(msg)) return;

  install_checkpoint(std::move(ckpt), std::move(ledger));
  // The head records claim seqs (cseq, server_next]. install_checkpoint ends
  // in try_execute, which may run committed entries from the LOCAL log past
  // the boundary — the same records, by agreement. adopt_entries stamps
  // whatever it is given at next_exec_+1 onward, so the already-covered
  // prefix must be dropped here: adopting it verbatim would re-deliver its
  // ops at fresh seqs and fork the state-digest chain for good.
  const std::uint64_t covered = next_exec_ - cseq;
  if (covered >= head.size()) {
    head.clear();
  } else {
    head.erase(head.begin(), head.begin() + static_cast<std::ptrdiff_t>(covered));
  }
  if (!head.empty()) {
    if (!ckpt_vouched) {
      // f+1 identical replies vouch for the head records too.
      adopt_entries(head, head.size());
    } else {
      // Checkpoint votes cover only the body — a Byzantine server holding a
      // genuine checkpoint could still forge head records. Adopt only the
      // prefix a LATER vouched boundary confirms through the digest chain.
      std::vector<crypto::Digest> chain;
      std::uint64_t validated = validate_chain(head, chain);
      if (validated > next_exec_) adopt_entries(head, validated - next_exec_, chain);
    }
  }
  maybe_stabilize();
}

void PbftSmr::install_checkpoint(Checkpoint ckpt, RequestLedger ledger) {
  const std::uint64_t from_seq = next_exec_;
  const std::uint64_t from_ops = executed_ops_;
  const std::uint64_t cseq = ckpt.seq;
  const std::uint64_t ops = ckpt.ops;
  if (ctr_installs_ != nullptr) ctr_installs_->inc();
  next_exec_ = cseq;
  state_digest_ = ckpt.state_digest;
  executed_ops_ = ops;
  decided_ops_ = ops;  // skipped ops never fire locally; ordinals resume past them
  executed_requests_ = ledger;
  // View-change-carried assignments above the checkpoint are forgotten
  // here; worst case the primary re-assigns such a request and execution
  // dedups it against the ledger — a null op, not a double delivery.
  assigned_or_executed_ = std::move(ledger);
  drop_executed_pending();
  stable_ckpt_ = std::move(ckpt);
  next_seq_ = std::max(next_seq_, cseq + 1);
  head_fetch_rounds_ = 0;
  // Truncates log_ (every record below the boundary with it) and
  // checkpoints_ behind the boundary, and re-arms the primary.
  collect_garbage(cseq);
  if (install_) install_(from_seq, cseq, from_ops, ops);
  // Entries logged beyond the installed boundary may be executable now.
  try_execute();
  // The install moved next_exec_: the current view is serving us state, so
  // any lag-triggered view change is moot (see abandon_view_change).
  abandon_view_change();
}

void PbftSmr::adopt_entries(const std::vector<ExecRecord>& entries, std::uint64_t count,
                            const std::vector<crypto::Digest>& chain) {
  const std::uint64_t start = next_exec_;
  for (std::uint64_t i = 0; i < count && i < entries.size(); ++i) {
    const std::uint64_t seq = start + i + 1;
    // A decide callback below may propose and execute ahead of us (tiny
    // quorums commit inline); once next_exec_ moves past the entry we are
    // about to adopt, the rest of the reply is stale — bail out rather
    // than fold records out of order.
    if (seq != next_exec_ + 1) break;
    // An unexecutable duplicate must not shadow the record.
    if (LogEntry* stale = log_.find(seq)) stale->reset();
    const auto idx = static_cast<std::size_t>(i);
    const ExecRecord& rec = entries[idx];
    apply_record(seq, rec,
                 idx < chain.size() ? chain[idx] : fold(state_digest_, record_digest(rec)));
  }
  maybe_stabilize();
  next_seq_ = std::max(next_seq_, next_exec_ + 1);
  // Entries logged beyond the adopted gap may be executable now.
  try_execute();
  // Adoption that moved next_exec_ is progress in the current view; a
  // lag-triggered view change is moot then (see abandon_view_change).
  if (next_exec_ > start) abandon_view_change();
}

// ---------------------------------------------------------------------------
// View changes
// ---------------------------------------------------------------------------

void PbftSmr::arm_view_timer() {
  if (faulty_now() || stopped_) return;
  if (view_timer_ != 0) return;  // already armed
  if (pending_.empty()) return;
  view_timer_ = transport_.simulator().schedule_after(current_timeout_, [this] {
    view_timer_ = 0;
    if (!pending_.empty() || view_changing_) start_view_change();
  });
}

void PbftSmr::disarm_view_timer() {
  if (view_timer_ != 0) {
    transport_.simulator().cancel(view_timer_);
    view_timer_ = 0;
  }
}

void PbftSmr::start_view_change(std::uint64_t explicit_target) {
  if (faulty_now()) return;
  view_changing_ = true;
  if (explicit_target > view_) {
    target_view_ = explicit_target;
  } else {
    target_view_ = std::max(target_view_ + 1, view_ + 1);
  }
  current_timeout_ *= 2;  // exponential backoff to reach eventual synchrony

  ViewChangeMsg vc;
  vc.new_view = target_view_;
  vc.stable_seq = stable_seq_;
  vc.sender = transport_.self();
  for (std::uint64_t seq = log_.base() + 1; seq <= log_.top(); ++seq) {
    const LogEntry& entry = *log_.find(seq);
    if (!entry.pre_prepared) continue;
    if (entry.prepares.size() >= 2 * max_faults()) {
      vc.prepared.push_back(PreparedProof{seq, entry.view, entry.digest, entry.batch});
    }
  }

  ByteWriter w = frame_writer(0);
  w.u64(vc.new_view);
  w.u64(vc.stable_seq);
  w.varint(vc.prepared.size());
  for (const auto& p : vc.prepared) {
    w.u64(p.seq);
    w.u64(p.view);
    w.varint(ops_region_size(p.batch));
    encode_ops_region(w, p.batch);
  }
  sign_and_broadcast(net::MsgType::kPbftViewChange, std::move(w));

  view_changes_[vc.new_view][vc.sender] = std::move(vc);
  maybe_assemble_new_view();
  arm_view_timer();  // if this view change stalls, try the next view
  if (view_timer_ == 0) {
    // No pending request, but the view change itself must complete.
    view_timer_ = transport_.simulator().schedule_after(current_timeout_, [this] {
      view_timer_ = 0;
      if (view_changing_) start_view_change();
    });
  }
}

void PbftSmr::abandon_view_change() {
  // A lone laggard's view change can never complete: the other replicas see
  // a live primary and will not join, while the complainer sits deaf to
  // current-view traffic (buffered, not handled) and so can never see the
  // progress that would... have come from the traffic it is buffering. The
  // exit is execution progress through state transfer: once installs or
  // adopted records move next_exec_, the current view is demonstrably
  // serving us — withdraw the complaint and replay what was buffered.
  // target_view_ is kept so a later genuine complaint still escalates past
  // every view number this replica has already voted for.
  if (!view_changing_) return;
  view_changing_ = false;
  current_timeout_ = options_.view_change_timeout;
  std::vector<net::Message> replay;
  replay.swap(future_view_msgs_);
  for (const net::Message& m : replay) {
    // Higher-view messages re-buffer themselves inside the handlers.
    if (m.type == net::MsgType::kPbftPrePrepare) {
      handle_pre_prepare(m);
    } else if (m.type == net::MsgType::kPbftPrepare) {
      handle_prepare(m, config_.index_of(m.from));
    }
  }
}

void PbftSmr::handle_view_change(const net::Message& msg) {
  if (msg.payload.size() < 32) return;
  crypto::Signature sig;
  std::copy(msg.payload.end() - 32, msg.payload.end(), sig.begin());
  if (options_.verify_signatures &&
      !keys_.verify(msg.from, msg.payload.data(), msg.payload.size() - 32, sig)) {
    return;
  }

  // Read the signed body in place; carried ops stay slices of this frame.
  ByteReader r(msg.payload.data(), msg.payload.size() - 32);
  ViewChangeMsg vc;
  vc.new_view = r.u64();
  vc.stable_seq = r.u64();
  std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    PreparedProof p;
    p.seq = r.u64();
    p.view = r.u64();
    // The proof's digest is recomputed from the ops region, never trusted
    // off the wire; hashing the slice hits this frame's digest memo, so the
    // new primary assembling O from many proofs hashes each region once.
    std::span<const std::uint8_t> ops_region = r.bytes_view();
    parse_ops_region(msg.payload, ops_region, p.batch);
    p.digest = p.batch.empty() ? crypto::Digest{} : msg.payload.slice(ops_region).digest();
    vc.prepared.push_back(std::move(p));
  }
  vc.sender = msg.from;
  if (vc.new_view <= view_) return;

  view_changes_[vc.new_view][vc.sender] = std::move(vc);

  // View synchronization (PBFT's liveness rule): once f+1 distinct
  // replicas demand views above our CURRENT TARGET, adopt the smallest
  // such view — this funnels replicas whose timeouts diverged (e.g.
  // across a healed partition) into one view that can reach a quorum,
  // without getting pinned to stale demands for already-dead views.
  std::uint64_t threshold = view_changing_ ? target_view_ : view_;
  std::set<NodeId> demanders;
  std::uint64_t smallest = 0;
  for (const auto& [v, senders] : view_changes_) {
    if (v <= threshold) continue;
    if (smallest == 0) smallest = v;
    for (const auto& [s, m] : senders) demanders.insert(s);
  }
  if (smallest != 0 && demanders.size() >= max_faults() + 1) {
    start_view_change(smallest);
    return;
  }
  maybe_assemble_new_view();
}

void PbftSmr::maybe_assemble_new_view() {
  if (!view_changing_) return;
  auto it = view_changes_.find(target_view_);
  if (it == view_changes_.end()) return;
  if (primary_of(target_view_) != transport_.self()) return;
  if (it->second.size() < quorum()) return;
  if (faulty_now()) return;

  // Compute the re-proposal set O: for every prepared seq, the proof with
  // the highest view wins; gaps become null requests.
  std::map<std::uint64_t, PreparedProof> chosen;
  std::uint64_t max_stable = 0, max_seq = 0;
  for (const auto& [sender, vc] : it->second) {
    max_stable = std::max(max_stable, vc.stable_seq);
    for (const auto& p : vc.prepared) {
      max_seq = std::max(max_seq, p.seq);
      auto [cit, inserted] = chosen.try_emplace(p.seq, p);
      if (!inserted && p.view > cit->second.view) cit->second = p;
    }
  }

  ByteWriter w = frame_writer(0);
  w.u64(target_view_);
  w.u64(max_stable);
  w.varint(max_seq > max_stable ? max_seq - max_stable : 0);
  for (std::uint64_t seq = max_stable + 1; seq <= max_seq; ++seq) {
    auto cit = chosen.find(seq);
    std::span<const Request> batch;  // op_count 0 = the null batch filling the gap
    if (cit != chosen.end()) batch = cit->second.batch;
    const std::size_t region = ops_region_size(batch);
    w.varint(8 + varint_size(region) + region);  // the O entry's length prefix
    w.u64(seq);
    w.varint(region);
    encode_ops_region(w, batch);
  }
  sign_and_broadcast(net::MsgType::kPbftNewView, std::move(w));

  // Enter the view locally and re-propose O.
  std::vector<PreparedProof> carried;
  for (std::uint64_t seq = max_stable + 1; seq <= max_seq; ++seq) {
    auto cit = chosen.find(seq);
    if (cit != chosen.end()) {
      carried.push_back(cit->second);
    } else {
      carried.push_back(PreparedProof{seq, target_view_, crypto::Digest{}, {}});
    }
  }
  enter_view(target_view_, carried);
}

void PbftSmr::handle_new_view(const net::Message& msg) {
  if (msg.payload.size() < 32) return;
  crypto::Signature sig;
  std::copy(msg.payload.end() - 32, msg.payload.end(), sig.begin());
  if (options_.verify_signatures &&
      !keys_.verify(msg.from, msg.payload.data(), msg.payload.size() - 32, sig)) {
    return;
  }

  ByteReader r(msg.payload.data(), msg.payload.size() - 32);
  std::uint64_t new_view = r.u64();
  std::uint64_t stable = r.u64();
  if (new_view <= view_) return;
  if (primary_of(new_view) != msg.from) return;

  std::uint64_t n = r.varint();
  std::vector<PreparedProof> carried;
  std::uint64_t seq_expected = stable + 1;
  for (std::uint64_t i = 0; i < n; ++i, ++seq_expected) {
    // Read each O entry as a view into the frame (the old `ByteReader
    // er(r.bytes())` parsed a temporary that died at the end of the
    // statement); carried ops become slices of the NEW-VIEW frame.
    std::span<const std::uint8_t> entry = r.bytes_view();
    ByteReader er(entry.data(), entry.size());
    std::uint64_t seq = er.u64();
    if (seq != seq_expected) return;  // malformed O
    PreparedProof p;
    p.seq = seq;
    p.view = new_view;
    // Batch digests are recomputed locally (an op_count of 0 is the null
    // batch with the all-zero digest), never trusted off the wire.
    std::span<const std::uint8_t> ops_region = er.bytes_view();
    parse_ops_region(msg.payload, ops_region, p.batch);
    p.digest = p.batch.empty() ? crypto::Digest{} : msg.payload.slice(ops_region).digest();
    er.expect_done();
    carried.push_back(std::move(p));
  }

  // Sanity check against our own evidence: the new primary must not replace
  // a batch we hold a prepared certificate for (higher or equal view).
  for (std::uint64_t seq = log_.base() + 1; seq <= log_.top(); ++seq) {
    const LogEntry& entry = *log_.find(seq);
    if (!entry.pre_prepared || entry.prepares.size() < 2 * max_faults()) continue;
    if (seq <= stable) continue;
    for (const auto& p : carried) {
      if (p.seq == seq && !p.batch.empty() && p.digest != entry.digest &&
          entry.view >= p.view) {
        return;  // provably bogus NEW-VIEW: stay and let the next view change fire
      }
    }
  }

  enter_view(new_view, carried);
}

void PbftSmr::enter_view(std::uint64_t v, const std::vector<PreparedProof>& carried) {
  view_ = v;
  target_view_ = v;
  view_changing_ = false;
  ++view_changes_completed_;
  if (ctr_view_changes_ != nullptr) ctr_view_changes_->inc();
  current_timeout_ = options_.view_change_timeout;
  disarm_view_timer();
  // A batch buffered while we were primary of a dead view was never
  // pre-prepared; its ops are still in pending_ and get re-enqueued below
  // (as primary) or re-proposed by their clients (as backup).
  disarm_batch_timer();
  batch_buf_.clear();
  batch_buf_bytes_ = 0;
  view_changes_.erase(view_changes_.begin(), view_changes_.upper_bound(v));

  // Assignments from abandoned views are void: only executed requests and
  // the ones the new view carries over count as handled. Anything else in
  // pending_ becomes assignable again.
  assigned_or_executed_ = executed_requests_;
  for (const auto& p : carried) {
    for (const Request& req : p.batch) assigned_or_executed_.insert(req.id.origin, req.id.seq);
  }

  // Reset per-view agreement state above the stable checkpoint and replay O.
  // Sequence assignments from dead views are void: the new view's number
  // space restarts right after what the view change carried over —
  // otherwise a stale next_seq_ leaves unfillable holes below it.
  std::uint64_t carried_max = std::max(next_exec_, stable_seq_);
  for (const auto& p : carried) carried_max = std::max(carried_max, p.seq);
  log_.truncate_after(carried_max);
  next_seq_ = carried_max + 1;

  for (const auto& p : carried) {
    if (p.seq <= next_exec_) continue;  // already executed here
    broadcast(net::MsgType::kPbftPrepare, vote_frame(v, p.seq, p.digest));
    if (p.seq - stable_seq_ > kMaxLogSpanWindows * options_.watermark_window) continue;
    LogEntry& entry = log_.at(p.seq);
    entry.view = v;
    entry.digest = p.digest;
    entry.batch = p.batch;
    entry.pre_prepared = true;
    entry.prepares.clear();
    entry.commits.clear();
    entry.prepares.insert(self_rank_);
  }

  // Replay protocol messages that arrived for this view before we entered
  // it (early entrants' prepares must not be lost).
  std::vector<net::Message> replay;
  replay.swap(future_view_msgs_);
  for (const net::Message& m : replay) {
    if (m.type == net::MsgType::kPbftPrePrepare) {
      handle_pre_prepare(m);
    } else if (m.type == net::MsgType::kPbftPrepare) {
      handle_prepare(m, config_.index_of(m.from));
    }
  }

  // The new primary picks up whatever is still pending: everything not
  // carried over gets batched afresh (enqueue flushes full batches as it
  // goes; the final flush sends the remainder immediately — a new view
  // must not sit on re-proposals for a deadline tick).
  if (is_primary()) {
    reenqueue_pending();
  } else if (!faulty_now()) {
    // Retransmit our own unordered requests: the new primary may never
    // have received them (e.g. it was partitioned when they were issued).
    for (const Request& req : pending_) {
      if (req.id.origin != transport_.self()) continue;
      transport_.send(primary_of(view_), net::MsgType::kPbftRequest, request_frame(req));
    }
  }
  if (!pending_.empty()) arm_view_timer();
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void PbftSmr::on_message(const net::Message& raw) {
  if (stopped_) return;
  if (fault_ == PbftFaultMode::kSilent) return;
  const auto member = std::lower_bound(config_.members.begin(), config_.members.end(), raw.from);
  if (member == config_.members.end() || *member != raw.from) return;
  const auto from_rank = static_cast<std::size_t>(member - config_.members.begin());
  // Envelope check: the leading u64 of every frame is the instance tag.
  // Frames from another instance (an earlier or later epoch running over
  // overlapping node ids) are dropped here, before any handler can mistake
  // their seq numbering for this instance's.
  if (raw.payload.size() < 8) return;
  {
    ByteReader r(raw.payload);
    // lint: handler-serde-safety-ok(8-byte read is gated by the size()<8 early return above)
    if (r.u64() != instance_tag_) return;
  }
  const net::Message msg{raw.from, raw.to, raw.type,
                         raw.payload.slice(std::span<const std::uint8_t>(
                             raw.payload.data() + 8, raw.payload.size() - 8))};
  try {
    switch (msg.type) {
      case net::MsgType::kPbftRequest: handle_request(msg); break;
      case net::MsgType::kPbftPrePrepare: handle_pre_prepare(msg); break;
      case net::MsgType::kPbftPrepare: handle_prepare(msg, from_rank); break;
      case net::MsgType::kPbftCommit: handle_commit(msg, from_rank); break;
      case net::MsgType::kPbftCheckpoint: handle_checkpoint(msg); break;
      case net::MsgType::kPbftViewChange: handle_view_change(msg); break;
      case net::MsgType::kPbftNewView: handle_new_view(msg); break;
      case net::MsgType::kPbftStateFetch: handle_state_fetch(msg); break;
      case net::MsgType::kPbftStateReply: handle_state_reply(msg); break;
      default: break;
    }
  } catch (const SerdeError&) {
    // Malformed bytes mark the sender as faulty; drop silently.
  }
}

}  // namespace atum::smr
