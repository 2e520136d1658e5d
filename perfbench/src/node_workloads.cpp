// Node-level workloads on the full Atum runtime (AtumSystem): broadcast,
// partition_heal and churn. All three deploy the scenario presets'
// base_spec system (kAsync PBFT vgroups, gmin 7 / gmax 14, hc 3, rwl 6,
// 10 s heartbeats, MACs off, gossip relayed on H-graph cycles {0, 1}) on
// NetworkConfig::datacenter(), then drive an open loop in sim time from
// the benchmark's own Simulator::step loop.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serde.h"
#include "core/atum.h"
#include "crypto/sha256.h"
#include "lifecycle.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "overlay/gossip.h"
#include "pump.h"
#include "report_util.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace atum;

constexpr std::uint32_t kBcastMagic = 0xBE7C0001;
constexpr std::size_t kBcastHeader = 4 + 8 + 8;
constexpr DurationMicros kLeaveRetry = seconds(10.0);

struct PhasePlan {
  const char* name;
  double sim_seconds;
  double bcast_per_s = -1.0;        // >= 0: overrides the plan's rate in this phase
  double partition_fraction = 0.0;  // > 0: vgroup-aligned partition at phase start
  // Heal the partition at phase start. One extra broadcast leaves 1 us
  // after the heal, so heal_ms times the program's recovery, not the load
  // generator's gap.
  bool heal = false;
  // Unfaulted phases promise delivery: their (broadcast, receiver) pairs
  // count toward attempted/failed and must meet the delivery floor.
  bool unfaulted = true;
  double min_delivery = -1.0;      // absolute floor (presets' --assert)
  bool recover_to_first = false;   // ratio >= first phase's ratio - 0.02
  double min_join = -1.0;
};

struct NodePlan {
  std::string name;
  std::size_t nodes = 2000;
  double bcast_per_s = 0.0;
  std::size_t payload = 128;
  double churn_per_min = 0.0;  // joins per minute and leaves per minute
  std::vector<PhasePlan> phases;
  double drain_s = 5.0;
  // The workload's op, which every end-to-end metric counts: a
  // (broadcast, eligible receiver) delivery, or on churn a join.
  bool join_op = false;
  bool report_heal = false;
};

// Window sizes are for scale 1.0 (about ten host seconds on the reference
// host, a 4-core x86 VM); main.cpp scales them with --seconds. Below
// kMinScale a phase could end before its first broadcast (one per 0.5 s).
constexpr double kMinScale = 0.3;
// GroupMessageReceiver's default tombstone TTL (60 sim-s). partition_heal's
// partition phase outlasts it, so pending entries created before the cut
// (and, after the heal, those created early in the cut) are collected
// inside the measured window.
constexpr double kTombstoneTtlS = 60.0;

NodePlan plan_for(const std::string& name, double scale) {
  NodePlan p;
  p.name = name;
  scale = std::max(scale, kMinScale);
  if (name == "broadcast") {
    p.bcast_per_s = 2.0;
    PhasePlan steady{"steady", 7.0 * scale};
    steady.min_delivery = 0.95;
    p.phases = {steady};
  } else if (name == "partition_heal") {
    p.bcast_per_s = 2.0;
    PhasePlan baseline{"baseline", 2.0 * scale};
    baseline.min_delivery = 0.95;
    // Longer than the tombstone TTL, so the receivers' GC runs while the
    // cut buffers never-completing entries; at the presets' 0.25/s rate,
    // so the host time stays that of about 15 broadcasts.
    PhasePlan partition{"partition",
                        std::max(kTombstoneTtlS + 2.0, (kTombstoneTtlS + 2.0) * scale)};
    partition.bcast_per_s = 0.25;
    partition.partition_fraction = 0.30;
    partition.unfaulted = false;
    PhasePlan heal{"heal", 3.0 * scale};
    heal.heal = true;
    heal.min_delivery = 0.95;
    heal.recover_to_first = true;
    p.phases = {baseline, partition, heal};
    p.report_heal = true;
  } else if (name == "churn") {
    p.churn_per_min = 200.0;  // 10%/min of 2000 joins, 10%/min leaves
    // One broadcast per 80 s: a minority of the messages (one broadcast
    // costs ~160 messages per receiver), so churn sets the host time.
    p.bcast_per_s = 0.0125;
    // latency_p99_ms (joins) needs >= 1010 joins (10 beyond the 99th percentile), so
    // the window never shrinks below 305 sim-s whatever --seconds says.
    PhasePlan churn{"churn", std::max(305.0, 450.0 * scale)};
    churn.min_delivery = 0.90;  // diurnal_churn "day" floors
    churn.min_join = 0.90;
    p.phases = {churn};
    p.drain_s = 30.0;
    p.join_op = true;
  } else {
    throw std::invalid_argument("unknown node workload '" + name + "'");
  }
  return p;
}

core::Params base_params() {
  core::Params p;
  p.hc = 3;
  p.rwl = 6;
  p.gmin = 7;
  p.gmax = 14;
  p.engine = smr::EngineKind::kAsync;
  p.heartbeat_period = seconds(10.0);
  p.verify_signatures = false;
  return p;
}

enum class NodeState : std::uint8_t { kActive, kJoining, kDeparting, kGone };

// Per (broadcast, node) flags.
constexpr std::uint8_t kEligible = 1;
constexpr std::uint8_t kDelivered = 2;

class NodeWorkload final : public Workload {
 public:
  NodeWorkload(NodePlan plan, std::uint64_t seed)
      : plan_(std::move(plan)), seed_(seed), rng_(seed ^ 0xbe7c4a11ULL) {}

  void setup(SpanLog& spans) override {
    sys_ = std::make_unique<core::AtumSystem>(base_params(), net::NetworkConfig::datacenter(),
                                              seed_);
    std::vector<NodeId> ids;
    ids.reserve(plan_.nodes);
    for (NodeId i = 0; i < plan_.nodes; ++i) ids.push_back(i);
    {
      SpanLog::Scope s(spans, "core.deploy", plan_.nodes);
      sys_->deploy(ids);
    }
    for (NodeId id : ids) wire_node(id);
    state_.assign(plan_.nodes, NodeState::kActive);
    next_id_ = plan_.nodes;
    // Load-free warm-up through one full heartbeat period (plus a second),
    // so every node's periodic machinery has run once before measurement.
    const DurationMicros warmup = sys_->params().heartbeat_period + seconds(1.0);
    sys_->simulator().run_until(sys_->simulator().now() + warmup);
  }

  RunOutcome run(SpanLog& spans) override {
    spans_ = &spans;
    const bool traced = spans.enabled();
    sim::Simulator& sim = sys_->simulator();
    net::SimNetwork& net = sys_->network();
    obs::Registry& reg = sys_->metrics();
    if (traced) sys_->tracer().enable(/*ring_capacity=*/1 << 14, /*key_sample=*/1);

    const net::NetworkStats net0 = net.stats();
    const std::uint64_t events0 = sim.executed_events();
    const std::uint64_t sha0 = crypto::sha256_digest_count();
    const std::uint64_t ops0 = reg.value("smr.ops_decided");
    const std::uint64_t vc0 = reg.value("smr.view_changes");
    const HistogramTotals batch0 = histogram_totals(reg, "smr.batch_ops");
    const std::uint64_t frames0 = reg.value("atum.coalescer.frames_enqueued");
    const std::uint64_t sent0 = reg.value("atum.coalescer.messages_sent");
    const std::uint64_t env0 = reg.value("atum.coalescer.envelopes_sent");

    StepStats steps;
    // Join/leave completion is checked between steps, so join latency has
    // event granularity; the check is a no-op while nothing is pending.
    auto after_step = [this] {
      if (!pending_.empty()) poll_ops();
    };
    drift_probe().begin(kDriftInterval);
    {
      SpanLog::Scope root(spans, "run");
      load_start_ = sim.now();
      for (std::size_t i = 0; i < plan_.phases.size(); ++i) {
        SpanLog::Scope ph(spans, plan_.phases[i].name);
        const TimeMicros start = sim.now();
        const TimeMicros end = start + seconds(plan_.phases[i].sim_seconds);
        apply_one_shots(i);
        schedule_loads(i, start, end);
        pump_until(sim, net, end, steps, spans, after_step);
      }
      SpanLog::Scope drain(spans, "drain");
      pump_until(sim, net, sim.now() + seconds(plan_.drain_s), steps, spans, after_step);
    }
    const DriftProbe::Window window = drift_probe().end();

    RunOutcome out;
    out.run_s = window.raw_s;
    out.ref_passes = window.ref_passes;
    out.events = sim.executed_events() - events0;
    const net::NetworkStats& ns = net.stats();
    const double msgs = static_cast<double>(ns.messages_sent - net0.messages_sent);
    const double bytes = static_cast<double>(ns.bytes_sent - net0.bytes_sent);

    // ---- broadcast bookkeeping -> ratios, floors, attempted/failed ----
    const bool joins = plan_.join_op;
    std::vector<Ratio> phase_ratio(plan_.phases.size());
    Ratio overall;
    for (const Bcast& b : bcasts_) {
      phase_ratio[b.phase].num += b.delivered;
      phase_ratio[b.phase].den += b.expected;
      overall.num += b.delivered;
      overall.den += b.expected;
      if (!joins && plan_.phases[b.phase].unfaulted) {
        out.attempted += b.expected;
        out.failed += b.expected - b.delivered;
      }
    }
    if (duplicates_ > 0) {
      out.violations.push_back(std::to_string(duplicates_) + " duplicate broadcast deliveries");
    }
    if (bcasts_.empty()) out.violations.push_back("no broadcast was sent");
    for (std::size_t i = 0; i < plan_.phases.size(); ++i) {
      const PhasePlan& ph = plan_.phases[i];
      const Ratio& r = phase_ratio[i];
      char buf[256];
      if (ph.min_delivery >= 0.0 && r.value() < ph.min_delivery) {
        std::snprintf(buf, sizeof buf, "phase %s: delivery ratio %s < floor %.2f", ph.name,
                      r.str().c_str(), ph.min_delivery);
        out.violations.push_back(buf);
      }
      if (ph.recover_to_first && r.value() < phase_ratio[0].value() - 0.02) {
        std::snprintf(buf, sizeof buf, "phase %s: delivery ratio %s did not recover to %s", ph.name,
                      r.str().c_str(), phase_ratio[0].str().c_str());
        out.violations.push_back(buf);
      }
      if (ph.min_join >= 0.0) {
        const Ratio jr{static_cast<double>(joins_done_), static_cast<double>(joins_requested_)};
        if (jr.value() < ph.min_join) {
          std::snprintf(buf, sizeof buf, "phase %s: join ratio %s < floor %.2f", ph.name,
                        jr.str().c_str(), ph.min_join);
          out.violations.push_back(buf);
        }
      }
    }
    const Ratio join_ratio{static_cast<double>(joins_done_),
                           static_cast<double>(joins_requested_)};
    const Ratio completion = joins ? join_ratio : overall;
    const double ops = completion.num;  // completed ops
    // Throughput over the makespan: from the start of the load to the
    // last completion of the workload's op.
    const TimeMicros last_op = joins ? last_join_at_ : last_delivery_at_;
    const double makespan_s =
        static_cast<double>(std::max<TimeMicros>(last_op - load_start_, 0)) / kMicrosPerSecond;

    // ---- sim-clock end-to-end metrics (the same names on every workload) ----
    const MicrosHistogram& op_us = joins ? join_us_ : deliver_us_;
    add_latency_percentile(out.sim, out.violations, "latency_p50_ms", op_us, 0.50);
    add_latency_percentile(out.sim, out.violations, "latency_p99_ms", op_us, 0.99);
    add_ratio(out.sim, "completion_ratio", "ratio", completion);
    add_ratio(out.sim, "bytes_per_op", "B", Ratio{bytes, ops});
    add_ratio(out.sim, "ops_per_s", "1/s", Ratio{ops, makespan_s});
    // Table-only sim-clock metrics of the workload's other traffic.
    if (joins) {
      out.attempted += joins_requested_;
      out.failed += joins_requested_ - joins_done_;
      add_latency_percentile(out.sim, out.violations, "deliver_p50_ms", deliver_us_, 0.50);
      add_latency_percentile(out.sim, out.violations, "deliver_p99_ms", deliver_us_, 0.99);
      add_ratio(out.sim, "delivery_ratio", "ratio", overall);
    }
    if (plan_.report_heal) {
      if (heal_ms_ < 0.0) {
        out.violations.push_back("no broadcast sent after the heal was fully delivered");
      } else {
        out.sim.push_back(Metric{"heal_ms", "ms", heal_ms_, "heal -> first full delivery"});
      }
    }
    if (out.attempted == 0) out.violations.push_back("no operation was attempted");

    // ---- per-layer counts (program introspection) ----
    const HistogramTotals batch1 = histogram_totals(reg, "smr.batch_ops");
    add_count(out.counts, "sim.events", static_cast<double>(out.events));
    add_count(out.counts, "sim.peak_slots", static_cast<double>(sim.slot_count()));
    add_ratio(out.counts, "net.msgs_per_op", "msg/op", Ratio{msgs, ops});
    add_ratio(out.counts, "net.blocked_frac", "ratio",
              Ratio{static_cast<double>(ns.messages_blocked - net0.messages_blocked), msgs});
    add_ratio(out.counts, "net.dropped_frac", "ratio",
              Ratio{static_cast<double>(ns.messages_dropped - net0.messages_dropped), msgs});
    const auto frames =
        static_cast<double>(reg.value("atum.coalescer.frames_enqueued") - frames0);
    const auto frame_msgs =
        static_cast<double>(reg.value("atum.coalescer.messages_sent") - sent0);
    add_ratio(out.counts, "overlay.frames_per_op", "frame/op", Ratio{frames, ops});
    add_ratio(out.counts, "overlay.coalesce_saved_frac", "ratio",
              Ratio{frames - frame_msgs, frames});
    add_count(out.counts, "overlay.envelopes",
              static_cast<double>(reg.value("atum.coalescer.envelopes_sent") - env0));
    add_count(out.counts, "smr.ops_decided",
              static_cast<double>(reg.value("smr.ops_decided") - ops0));
    add_ratio(out.counts, "smr.batch_ops_mean", "op/batch",
              Ratio{static_cast<double>(batch1.sum - batch0.sum),
                    static_cast<double>(batch1.count - batch0.count)});
    add_count(out.counts, "smr.view_changes",
              static_cast<double>(reg.value("smr.view_changes") - vc0));
    add_ratio(out.counts, "crypto.sha256_per_op", "hash/op",
              Ratio{static_cast<double>(crypto::sha256_digest_count() - sha0), ops});
    add_count(out.counts, "core.forced_leaves", static_cast<double>(forced_leaves_));
    add_count(out.counts, "core.groups_end", static_cast<double>(sys_->group_map().size()));

    if (traced) traced_metrics(out, steps, joins);
    return out;
  }

 private:
  struct Bcast {
    std::size_t phase = 0;
    TimeMicros sent_at = 0;
    std::uint32_t expected = 0;
    std::uint32_t delivered = 0;
    std::vector<std::uint8_t> flags;  // per node id at send time
  };
  struct PendingOp {
    NodeId node;
    TimeMicros started;
    TimeMicros last_attempt;
    int attempts;
    bool join;
  };
  void wire_node(NodeId id) {
    core::AtumNode& n = sys_->node(id);
    n.set_forward(overlay::forward_cycles({0, 1}));
    n.set_deliver([this, id](NodeId, const net::Payload& p) { on_deliver(id, p); });
  }

  bool active(NodeId id) const {
    return id < state_.size() && state_[id] == NodeState::kActive && sys_->has_node(id) &&
           sys_->node(id).joined();
  }

  // `side`: 0 = any node; 1 / 2 = only the majority / minority side of
  // the active partition.
  std::optional<NodeId> sample_active(int side = 0) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const NodeId id = rng_.next_below(next_id_);
      if (!active(id)) continue;
      const bool in_minority = id < minority_.size() && minority_[id] != 0;
      if (side != 0 && in_minority != (side == 2)) continue;
      return id;
    }
    return std::nullopt;
  }

  // Stratified origins under a partition: the k-th partition broadcast
  // starts on the minority side exactly when floor(k * share) steps up,
  // so the minority's share of origins equals its share of nodes instead
  // of swinging with the seed (each broadcast's delivery is bimodal: it
  // reaches only its own side).
  int next_origin_side() {
    if (minority_share_ <= 0.0) return 0;
    const double before = std::floor(minority_share_ * static_cast<double>(partition_sends_));
    ++partition_sends_;
    return std::floor(minority_share_ * static_cast<double>(partition_sends_)) > before ? 2 : 1;
  }

  void on_deliver(NodeId node, const net::Payload& payload) {
    if (payload.size() < kBcastHeader) return;
    ByteReader r(payload);
    if (r.u32() != kBcastMagic) return;
    const std::uint64_t index = r.u64();
    const TimeMicros due = r.i64();
    if (index >= bcasts_.size()) return;
    Bcast& b = bcasts_[index];
    if (node >= b.flags.size()) return;  // joined after the send: not a receiver
    std::uint8_t& f = b.flags[node];
    if ((f & kDelivered) != 0) {
      ++duplicates_;
      return;
    }
    f |= kDelivered;
    if ((f & kEligible) == 0) return;
    ++b.delivered;
    const TimeMicros now = sys_->simulator().now();
    deliver_us_.record(static_cast<std::uint64_t>(now - due));
    last_delivery_at_ = now;
    if (b.delivered == b.expected && heal_at_ >= 0 && b.sent_at >= heal_at_ && heal_ms_ < 0.0) {
      heal_ms_ = static_cast<double>(now - heal_at_) / 1000.0;
    }
  }

  void send_broadcast(std::size_t phase) {
    std::optional<NodeId> origin = sample_active(next_origin_side());
    if (!origin) return;
    const TimeMicros now = sys_->simulator().now();
    Bcast b;
    b.phase = phase;
    b.sent_at = now;
    b.flags.assign(next_id_, 0);
    for (NodeId id = 0; id < next_id_; ++id) {
      if (active(id)) {
        b.flags[id] = kEligible;
        ++b.expected;
      }
    }
    const std::uint64_t index = bcasts_.size();
    bcasts_.push_back(std::move(b));
    ByteWriter w;
    w.u32(kBcastMagic);
    w.u64(index);
    w.i64(now);  // due time == send time: the sim-time generator is never late
    Bytes payload = w.take();
    payload.resize(std::max(plan_.payload, kBcastHeader), 0);
    core::AtumNode& n = sys_->node(*origin);
    if (spans_->enabled()) {
      const std::int64_t t0 = SpanLog::now_ns();
      n.broadcast(std::move(payload));
      const std::int64_t t1 = SpanLog::now_ns();
      spans_->leaf("core.broadcast", t0, t1, *origin);
      broadcast_call_ns_.push_back(static_cast<double>(t1 - t0));
    } else {
      n.broadcast(std::move(payload));
    }
  }

  void start_join() {
    std::optional<NodeId> contact = sample_active();
    if (!contact) return;
    const NodeId fresh = next_id_++;
    sys_->add_node(fresh);
    wire_node(fresh);
    state_.push_back(NodeState::kJoining);
    const TimeMicros now = sys_->simulator().now();
    core::AtumNode& n = sys_->node(fresh);
    if (spans_->enabled()) {
      const std::int64_t t0 = SpanLog::now_ns();
      n.join(*contact);
      const std::int64_t t1 = SpanLog::now_ns();
      spans_->leaf("core.join", t0, t1, fresh);
      join_call_ns_.push_back(static_cast<double>(t1 - t0));
    } else {
      n.join(*contact);
    }
    pending_.push_back(PendingOp{fresh, now, now, 1, true});
    ++joins_requested_;
  }

  void start_leave() {
    std::optional<NodeId> victim = sample_active();
    if (!victim) return;
    state_[*victim] = NodeState::kDeparting;
    const TimeMicros now = sys_->simulator().now();
    call_leave(*victim);
    pending_.push_back(PendingOp{*victim, now, now, 1, false});
  }

  void call_leave(NodeId id) {
    if (spans_->enabled()) {
      const std::int64_t t0 = SpanLog::now_ns();
      sys_->node(id).leave();
      spans_->leaf("core.leave", t0, SpanLog::now_ns(), id);
    } else {
      sys_->node(id).leave();
    }
  }

  // Join/leave completion check (between steps while any is pending).
  // Leaves follow the scenario engine's client model: re-announce after
  // kLeaveRetry, exit anyway after the second unconfirmed announcement.
  void poll_ops() {
    const TimeMicros now = sys_->simulator().now();
    std::size_t kept = 0;
    for (PendingOp& op : pending_) {
      bool done = false;
      core::AtumNode& n = sys_->node(op.node);
      if (op.join) {
        if (n.joined()) {
          state_[op.node] = NodeState::kActive;
          ++joins_done_;
          join_us_.record(static_cast<std::uint64_t>(now - op.started));
          last_join_at_ = now;
          done = true;
        }
      } else if (!n.joined()) {
        state_[op.node] = NodeState::kGone;
        done = true;
      } else if (now - op.last_attempt >= kLeaveRetry) {
        op.last_attempt = now;
        if (++op.attempts > 2) {
          ++forced_leaves_;
          n.stop();
        } else {
          call_leave(op.node);
        }
      }
      if (!done) pending_[kept++] = op;
    }
    pending_.resize(kept);
  }

  void apply_one_shots(std::size_t phase) {
    const PhasePlan& ph = plan_.phases[phase];
    net::SimNetwork& net = sys_->network();
    if (ph.heal) {
      {
        SpanLog::Scope s(*spans_, "net.heal_partition");
        net.heal_partition();
      }
      heal_at_ = sys_->simulator().now();
      minority_share_ = 0.0;
    }
    if (ph.partition_fraction > 0.0) {
      // Whole vgroups move to the minority side until it holds the
      // requested share of the joined nodes (the partition_heal preset's
      // rack cut: every vgroup keeps its SMR quorum on one side).
      auto groups = sys_->group_map();
      std::size_t joined = 0;
      std::vector<GroupId> gids;
      for (const auto& [g, members] : groups) {
        gids.push_back(g);
        joined += members.size();
      }
      rng_.shuffle(gids);
      const auto want =
          static_cast<std::size_t>(ph.partition_fraction * static_cast<double>(joined));
      std::vector<NodeId> minority;
      for (GroupId g : gids) {
        if (minority.size() >= want) break;
        minority.insert(minority.end(), groups[g].begin(), groups[g].end());
      }
      minority_.assign(next_id_, 0);
      for (NodeId id : minority) minority_[id] = 1;
      minority_share_ = static_cast<double>(minority.size()) / static_cast<double>(joined);
      SpanLog::Scope s(*spans_, "net.partition", minority.size());
      net.partition({minority});
    }
  }

  void schedule_loads(std::size_t phase, TimeMicros start, TimeMicros end) {
    sim::Simulator& sim = sys_->simulator();
    const PhasePlan& ph = plan_.phases[phase];
    if (ph.heal) sim.schedule_at(start + 1, [this, phase] { send_broadcast(phase); });
    auto every = [&](double per_second, auto action) {
      if (per_second <= 0.0) return;
      const auto gap = std::max<DurationMicros>(
          1, static_cast<DurationMicros>(static_cast<double>(kMicrosPerSecond) / per_second));
      // Strictly inside the phase, like the scenario engine: a tick on the
      // boundary would race the next phase's fault primitives.
      for (TimeMicros t = start + gap; t < end; t += gap) {
        sim.schedule_at(t, [this, phase, action] { action(this, phase); });
      }
    };
    const double bcast_rate = ph.bcast_per_s >= 0.0 ? ph.bcast_per_s : plan_.bcast_per_s;
    every(bcast_rate, [](NodeWorkload* w, std::size_t p) { w->send_broadcast(p); });
    every(plan_.churn_per_min / 60.0, [](NodeWorkload* w, std::size_t) { w->start_join(); });
    every(plan_.churn_per_min / 60.0, [](NodeWorkload* w, std::size_t) { w->start_leave(); });
  }

  void traced_metrics(RunOutcome& out, const StepStats& steps, bool joins) {
    add_histogram_percentile(out.traced, "sim.step_ns_p50", steps.all, 0.50);
    add_histogram_percentile(out.traced, "sim.step_ns_p99", steps.all, 0.99);
    add_histogram_percentile(out.traced, "net.delivery_step_ns_p50", steps.delivery, 0.50);
    add_count(out.traced, "net.flows_peak", static_cast<double>(steps.flows_peak));
    // The call that starts the workload's op: AtumNode::join on churn,
    // AtumNode::broadcast elsewhere.
    add_percentile(out.traced, "op.call_ns_p50", "ns", joins ? join_call_ns_ : broadcast_call_ns_,
                   0.50);

    const std::vector<obs::TraceEvent> events = sys_->tracer().snapshot();
    auto group_of = [this](NodeId id) -> std::uint64_t {
      if (!sys_->has_node(id) || !sys_->node(id).joined()) return kInvalidGroup;
      return sys_->node(id).group_id();
    };
    OverlaySplit ov = overlay_split(events, group_of);
    add_percentile(out.traced, "overlay.vouch_ms_p50", "ms", ov.vouch_ms, 0.50);
    add_percentile(out.traced, "overlay.vouch_ms_p99", "ms", ov.vouch_ms, 0.99);
    add_percentile(out.traced, "overlay.hops_p50", "hops", ov.hops, 0.50);
    add_percentile(out.traced, "overlay.hops_p99", "hops", ov.hops, 0.99);
    SmrSplit sm = smr_split(events, group_of);
    add_percentile(out.traced, "smr.queue_ms_p50", "ms", sm.queue_ms, 0.50);
    add_percentile(out.traced, "smr.queue_ms_p99", "ms", sm.queue_ms, 0.99);
    add_percentile(out.traced, "smr.agree_ms_p50", "ms", sm.agree_ms, 0.50);
    add_percentile(out.traced, "smr.agree_ms_p99", "ms", sm.agree_ms, 0.99);
  }

  NodePlan plan_;
  std::uint64_t seed_;
  Rng rng_;
  std::unique_ptr<core::AtumSystem> sys_;
  SpanLog* spans_ = nullptr;

  std::vector<NodeState> state_;  // indexed by node id
  NodeId next_id_ = 0;
  std::vector<Bcast> bcasts_;
  MicrosHistogram deliver_us_;
  std::uint64_t duplicates_ = 0;
  std::vector<std::uint8_t> minority_;  // per node id: on the minority side
  double minority_share_ = 0.0;          // > 0 while a partition is active
  std::uint64_t partition_sends_ = 0;
  TimeMicros load_start_ = 0;
  TimeMicros last_delivery_at_ = 0;  // of an eligible receiver
  TimeMicros last_join_at_ = 0;
  TimeMicros heal_at_ = -1;
  double heal_ms_ = -1.0;

  std::vector<PendingOp> pending_;
  std::uint64_t joins_requested_ = 0;
  std::uint64_t joins_done_ = 0;
  std::uint64_t forced_leaves_ = 0;
  MicrosHistogram join_us_;

  std::vector<double> broadcast_call_ns_;
  std::vector<double> join_call_ns_;
};

}  // namespace

std::unique_ptr<Workload> make_node_workload(const std::string& name, std::uint64_t seed,
                                             double scale) {
  return std::make_unique<NodeWorkload>(plan_for(name, scale), seed);
}

}  // namespace perfbench
