#include "smr/reconfig.h"

#include <algorithm>

namespace atum::smr {

namespace {
constexpr std::uint8_t kAppOp = 0;
constexpr std::uint8_t kConfigOp = 1;

// Removal-notice retry backoff: the first send races the removed node's own
// decide path (usually it decided the op itself and the notice is a no-op);
// the retries cover a partition healing after the instance died.
constexpr DurationMicros kNoticeRetries[] = {seconds(1.0), seconds(5.0)};

crypto::Digest genesis_hash(const GroupConfig& config) {
  crypto::Sha256 h;
  h.update("atum-epoch-genesis");
  ByteWriter w;
  for (NodeId n : config.members) w.u64(n);
  h.update(w.data());
  return h.finish();
}

crypto::Digest chain_hash(const crypto::Digest& prev, const crypto::Digest& config_op_digest) {
  crypto::Sha256 h;
  h.update(prev.data(), prev.size());
  h.update(config_op_digest.data(), config_op_digest.size());
  return h.finish();
}
}  // namespace

Bytes encode_config_op(const ConfigChange& change) {
  ByteWriter w;
  w.u8(kConfigOp);
  w.u8(static_cast<std::uint8_t>(change.kind));
  w.u64(change.node);
  return w.take();
}

std::optional<ConfigChange> decode_config_op(const net::Payload& wrapped) {
  try {
    ByteReader r(wrapped);
    if (r.u8() != kConfigOp) return std::nullopt;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(ConfigChange::Kind::kRemove)) return std::nullopt;
    ConfigChange change{static_cast<ConfigChange::Kind>(kind), r.u64()};
    r.expect_done();
    return change;
  } catch (const SerdeError&) {
    return std::nullopt;
  }
}

std::unique_ptr<SmrEngine> make_engine(net::Transport transport, GroupConfig config,
                                       crypto::KeyStore& keys, const EngineOptions& options) {
  if (options.kind == EngineKind::kSync) {
    return std::make_unique<DolevStrongSmr>(std::move(transport), std::move(config), keys,
                                            options.ds, options.ds_fault);
  }
  return std::make_unique<PbftSmr>(std::move(transport), std::move(config), keys, options.pbft,
                                   options.pbft_fault);
}

ReconfigurableSmr::ReconfigurableSmr(net::SimNetwork& net, NodeId self, GroupConfig initial,
                                     crypto::KeyStore& keys, EngineOptions options,
                                     std::optional<EpochState> resume)
    : net_(net),
      self_(self),
      config_(std::move(initial)),
      keys_(keys),
      options_(options),
      notice_transport_(net, self) {
  config_.normalize();
  if (resume) {
    // A state-synced joiner resumes the chain where the group is; deriving
    // genesis from the member list here would fork the chain (and the
    // instance tag) from the incumbents'.
    epoch_ = resume->epoch;
    epoch_hash_ = resume->hash;
  } else {
    epoch_hash_ = genesis_hash(config_);
  }
  notice_transport_.listen({net::MsgType::kSmrRemovalNotice},
                           [this](const net::Message& m) { on_removal_notice(m); });
  start_engine();
}

ReconfigurableSmr::~ReconfigurableSmr() { stop(); }

void ReconfigurableSmr::stop() {
  stopped_ = true;
  for (sim::EventId id : notice_timers_) net_.simulator().cancel(id);
  notice_timers_.clear();
  notice_transport_.close();
  if (engine_) {
    engine_->stop();
    engine_.reset();
  }
}

void ReconfigurableSmr::set_fault(DsFaultMode ds, PbftFaultMode pbft) {
  options_.ds_fault = ds;
  options_.pbft_fault = pbft;
  if (auto* e = dynamic_cast<DolevStrongSmr*>(engine_.get())) e->set_fault(ds);
  if (auto* e = dynamic_cast<PbftSmr*>(engine_.get())) e->set_fault(pbft);
}

void ReconfigurableSmr::start_engine() {
  // The instance tag is the chain head, not the member list: A -> B -> A
  // yields three distinct tags, so a laggard from the first A-instance can
  // never adopt the second A-instance's history.
  options_.pbft.instance_tag = crypto::digest_prefix64(epoch_hash_);
  engine_ = make_engine(net::Transport(net_, self_), config_, keys_, options_);
  engine_->set_decide_handler([this](std::uint64_t, NodeId origin, const net::Payload& op) {
    on_engine_decide(origin, op);
  });
  if (auto* e = dynamic_cast<PbftSmr*>(engine_.get())) {
    e->set_install_handler([this](std::uint64_t, std::uint64_t, std::uint64_t from_ops,
                                  std::uint64_t to_ops) {
      // The skipped ops were decided by the group; keep the cross-epoch
      // sequence aligned with replicas that executed them one by one.
      const std::uint64_t skipped = to_ops - from_ops;
      global_seq_ += skipped;
      if (install_) install_(skipped);
    });
  }
  // Reconfiguration must not lose in-flight proposals (SMART carries them
  // into the next configuration's instance). A checkpoint install may have
  // adopted one of these without firing decide_ here, in which case the
  // re-proposal executes as a ledger-deduped null op — at-least-once into
  // the ledger, exactly-once into the decided sequence.
  for (const Bytes& op : unacked_) {
    engine_->propose(op);
  }
}

void ReconfigurableSmr::propose(Bytes op) {
  ByteWriter w;
  w.u8(kAppOp);
  w.bytes(op);
  Bytes wrapped = w.take();
  unacked_.push_back(wrapped);
  if (engine_) engine_->propose(std::move(wrapped));
}

void ReconfigurableSmr::propose_change(ConfigChange::Kind kind, NodeId node) {
  Bytes wrapped = encode_config_op(ConfigChange{kind, node});
  unacked_.push_back(wrapped);
  if (engine_) engine_->propose(std::move(wrapped));
}

void ReconfigurableSmr::on_engine_decide(NodeId origin, const net::Payload& wrapped) {
  // A config op is the LAST decision applied in an instance. The engine
  // swap is deferred (schedule_after(0)), so the retiring engine can still
  // deliver decisions ordered after the config op — e.g. the tail of the
  // same commit batch. Whether a given replica's engine delivers those
  // before its swap fires is timing, not agreement: applying them here
  // would fork global_seq_ and the epoch-hash chain across replicas. Drop
  // them instead — and do NOT ack them, so their origins re-propose them
  // into the next instance (the SMART carry-over), where they decide for
  // everyone or no one.
  if (switching_) return;
  if (origin == self_) {
    // Payload <-> Bytes content equality, no materialization.
    auto it = std::find(unacked_.begin(), unacked_.end(), wrapped);
    if (it != unacked_.end()) unacked_.erase(it);
  }

  ByteReader r(wrapped);
  try {
    if (r.u8() == kAppOp) {
      net::Payload op = wrapped.slice(r.bytes_view());  // unwrap without copying
      std::uint64_t seq = global_seq_++;
      if (decide_) decide_(seq, origin, op);
      return;
    }
  } catch (const SerdeError&) {
    return;  // malformed decided op: a faulty origin proposed garbage
  }
  const std::optional<ConfigChange> change = decode_config_op(wrapped);
  if (!change) return;  // unknown tag or malformed config op: skip it

  // Several members may propose the same change, and a carried-over op may
  // already hold: a change that leaves the config as it is is a no-op.
  const bool add = change->kind == ConfigChange::Kind::kAdd;
  if (config_.contains(change->node) == add) return;
  if (!add && config_.size() == 1) return;  // refuse to reconfigure to nothing

  ++global_seq_;
  ++epoch_;
  // Extend the config-history chain over the decided op's bytes. Every
  // correct replica decides the same op at the same slot, so the chain
  // head (and the next instance's tag) agrees group-wide.
  epoch_hash_ = chain_hash(epoch_hash_, wrapped.digest());
  if (add) {
    config_.members.push_back(change->node);
    config_.normalize();
  } else {
    std::erase(config_.members, change->node);
  }
  const NodeId removed = add ? kInvalidNode : change->node;
  // Defer the engine swap out of the decide callback: the old engine is
  // still on the stack. The switching_ cut above keeps this the only
  // pending swap.
  switching_ = true;
  net_.simulator().schedule_after(0, [this, removed] {
    switching_ = false;
    if (engine_) {
      engine_->stop();
      engine_.reset();
    }
    if (config_.contains(self_)) {
      start_engine();
      // Continuing members tell the removed node the epoch moved on; a
      // removed replica partitioned across the switch would otherwise
      // wait forever on the retired instance (the leave-confirmation
      // gap — the config op killed the instance that decided it).
      if (removed != kInvalidNode) send_removal_notices(removed);
    }
    if (config_changed_) config_changed_(epoch_, config_);  // may destroy this
  });
}

void ReconfigurableSmr::send_removal_notices(NodeId removed) {
  ByteWriter w;
  w.u64(epoch_);
  w.raw(epoch_hash_.data(), epoch_hash_.size());
  w.vec(config_.members, [](ByteWriter& bw, NodeId n) { bw.u64(n); });
  Bytes notice = w.take();  // identical bytes at every correct continuing member
  auto send = [this, removed, notice] {
    notice_transport_.send(removed, net::MsgType::kSmrRemovalNotice, notice);
  };
  send();
  for (DurationMicros delay : kNoticeRetries) {
    notice_timers_.push_back(net_.simulator().schedule_after(delay, send));
  }
}

void ReconfigurableSmr::on_removal_notice(const net::Message& msg) {
  if (stopped_) return;
  std::uint64_t epoch;
  crypto::Digest hash;
  GroupConfig next;
  try {
    ByteReader r(msg.payload);
    epoch = r.u64();
    r.raw(hash.data(), hash.size());
    next.members = r.vec<NodeId>([](ByteReader& br) { return br.u64(); });
    r.expect_done();
  } catch (const SerdeError&) {
    return;
  }
  next.normalize();
  if (epoch <= epoch_) return;             // stale: we already reached that epoch
  if (next.members.empty()) return;
  if (next.contains(self_)) return;        // a "removal" that keeps us is garbage
  if (!config_.contains(msg.from)) return; // only our last-known peers may vouch

  // No prev-hash link check: a laggard several epochs behind cannot verify
  // the chain segment it missed. f+1 byte-identical notices from members of
  // its own last-known config guarantee one correct sender instead.
  std::set<NodeId>& voters = notice_votes_[msg.payload.digest()];
  voters.insert(msg.from);
  std::size_t faults = options_.kind == EngineKind::kSync
                           ? sync_max_faults(config_.size())
                           : async_max_faults(config_.size());
  if (voters.size() < faults + 1) return;
  notice_votes_.clear();

  epoch_ = epoch;
  epoch_hash_ = hash;
  config_ = next;
  if (engine_) {
    engine_->stop();
    engine_.reset();
  }
  if (config_changed_) config_changed_(epoch_, config_);  // may destroy this
}

}  // namespace atum::smr
