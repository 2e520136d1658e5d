// smr_pipeline: one PBFT vgroup of n = 7 (default batching, MACs on) on
// NetworkConfig::datacenter(), driven as a closed loop: every replica
// keeps kOutstanding 64 B ops in flight and proposes the next one when its
// own op decides at itself. The only workload where smr and crypto set the
// host time; there is no overlay at all (the bypass case for overlay
// changes).
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/serde.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "lifecycle.h"
#include "net/network.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "pump.h"
#include "report_util.h"
#include "sim/simulator.h"
#include "smr/pbft.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace atum;

constexpr std::size_t kReplicas = 7;
constexpr std::size_t kOutstanding = 4;
constexpr std::size_t kOpBytes = 64;
constexpr DurationMicros kWarmup = millis(100);
constexpr DurationMicros kDrainLimit = seconds(5.0);
constexpr double kWindowSeconds = 75.0;  // at scale 1.0: about ten host seconds
constexpr std::size_t kProposeSpanEvery = 64;

class SmrWorkload final : public Workload {
 public:
  SmrWorkload(std::uint64_t seed, double scale) : seed_(seed), window_s_(kWindowSeconds * scale) {}

  void setup(SpanLog&) override {
    sim_ = std::make_unique<sim::Simulator>();
    net_ = std::make_unique<net::SimNetwork>(*sim_, net::NetworkConfig::datacenter(), seed_);
    keys_ = std::make_unique<crypto::KeyStore>(seed_);
    registry_ = std::make_unique<obs::Registry>();
    tracer_ = std::make_unique<obs::Tracer>();
    smr::GroupConfig cfg;
    for (NodeId i = 0; i < kReplicas; ++i) cfg.members.push_back(i);
    smr::PbftOptions opt;
    opt.metrics = registry_.get();
    opt.tracer = tracer_.get();
    replicas_.clear();
    for (NodeId i = 0; i < kReplicas; ++i) {
      auto r = std::make_unique<smr::PbftSmr>(net::Transport(*net_, i), cfg, *keys_, opt);
      r->set_decide_handler([this, i](std::uint64_t, NodeId origin, const net::Payload& op) {
        on_decide(i, origin, op);
      });
      replicas_.push_back(std::move(r));
    }
    sim_->run_until(sim_->now() + kWarmup);
  }

  RunOutcome run(SpanLog& spans) override {
    spans_ = &spans;
    const bool traced = spans.enabled();
    if (traced) tracer_->enable(/*ring_capacity=*/1 << 16, /*key_sample=*/1);
    const std::uint64_t events0 = sim_->executed_events();
    const std::uint64_t sha0 = crypto::sha256_digest_count();
    const net::NetworkStats net0 = net_->stats();

    StepStats steps;
    drift_probe().begin(kDriftInterval);
    {
      SpanLog::Scope root(spans, "run");
      {
        SpanLog::Scope ph(spans, "closed_loop");
        window_start_ = sim_->now();
        window_end_ = window_start_ + seconds(window_s_);
        for (std::size_t i = 0; i < kReplicas; ++i) {
          for (std::size_t k = 0; k < kOutstanding; ++k) propose_next(i);
        }
        pump_until(*sim_, *net_, window_end_, steps, spans);
      }
      // Drain: no new proposals; wait until every replica decided every op.
      SpanLog::Scope drain(spans, "drain");
      closing_ = true;
      const TimeMicros limit = sim_->now() + kDrainLimit;
      while (!all_decided() && sim_->now() < limit) {
        pump_until(*sim_, *net_, sim_->now() + millis(10), steps, spans);
      }
    }
    const DriftProbe::Window window = drift_probe().end();

    RunOutcome out;
    out.run_s = window.raw_s;
    out.ref_passes = window.ref_passes;
    out.events = sim_->executed_events() - events0;
    out.attempted = proposed_;
    const std::uint64_t committed = committed_total();
    out.failed = proposed_ - committed;
    for (std::size_t i = 1; i < kReplicas; ++i) {
      if (decided_[i] != decided_[0] || order_[i] != order_[0]) {
        out.violations.push_back("replica " + std::to_string(i) + " decided " +
                                 std::to_string(decided_[i]) +
                                 " ops in a different order or count than replica 0 (" +
                                 std::to_string(decided_[0]) + ")");
      }
    }
    if (decided_[0] != proposed_) {
      out.violations.push_back("replica 0 decided " + std::to_string(decided_[0]) + " of " +
                               std::to_string(proposed_) + " proposed ops");
    }

    // The op is one proposed op; it completes when it decides at its
    // proposer (commit latency).
    const net::NetworkStats& ns = net_->stats();
    const double ops = static_cast<double>(committed);
    const double msgs = static_cast<double>(ns.messages_sent - net0.messages_sent);
    add_latency_percentile(out.sim, out.violations, "latency_p50_ms", commit_us_, 0.50);
    add_latency_percentile(out.sim, out.violations, "latency_p99_ms", commit_us_, 0.99);
    add_ratio(out.sim, "completion_ratio", "ratio",
              Ratio{ops, static_cast<double>(proposed_)});
    add_ratio(out.sim, "bytes_per_op", "B",
              Ratio{static_cast<double>(ns.bytes_sent - net0.bytes_sent), ops});
    // Throughput over the makespan: from the first proposal to the last
    // commit at a proposer (drain included).
    const double makespan_s =
        static_cast<double>(last_commit_at_ - window_start_) / kMicrosPerSecond;
    add_ratio(out.sim, "ops_per_s", "1/s", Ratio{ops, makespan_s});

    add_count(out.counts, "sim.events", static_cast<double>(out.events));
    add_count(out.counts, "sim.peak_slots", static_cast<double>(sim_->slot_count()));
    add_ratio(out.counts, "net.msgs_per_op", "msg/op", Ratio{msgs, ops});
    add_ratio(out.counts, "net.blocked_frac", "ratio",
              Ratio{static_cast<double>(ns.messages_blocked - net0.messages_blocked), msgs});
    add_ratio(out.counts, "net.dropped_frac", "ratio",
              Ratio{static_cast<double>(ns.messages_dropped - net0.messages_dropped), msgs});
    add_count(out.counts, "smr.ops_decided",
              static_cast<double>(registry_->value("smr.ops_decided")));
    const HistogramTotals batches = histogram_totals(*registry_, "smr.batch_ops");
    add_ratio(out.counts, "smr.batch_ops_mean", "op/batch",
              Ratio{static_cast<double>(batches.sum), static_cast<double>(batches.count)});
    add_count(out.counts, "smr.view_changes",
              static_cast<double>(registry_->value("smr.view_changes")));
    add_ratio(out.counts, "crypto.sha256_per_op", "hash/op",
              Ratio{static_cast<double>(crypto::sha256_digest_count() - sha0), ops});
    // No overlay runs here: its per-layer metrics are reported as zero.
    out.counts.push_back(Metric{"overlay.frames_per_op", "frame/op", 0.0, "no overlay"});
    out.counts.push_back(Metric{"overlay.coalesce_saved_frac", "ratio", 0.0, "no overlay"});

    if (traced) {
      add_histogram_percentile(out.traced, "sim.step_ns_p50", steps.all, 0.50);
      add_histogram_percentile(out.traced, "sim.step_ns_p99", steps.all, 0.99);
      add_histogram_percentile(out.traced, "net.delivery_step_ns_p50", steps.delivery, 0.50);
      add_count(out.traced, "net.flows_peak", static_cast<double>(steps.flows_peak));
      add_percentile(out.traced, "op.call_ns_p50", "ns", propose_ns_, 0.50);
      out.traced.push_back(Metric{"overlay.hops_p50", "hops", 0.0, "no overlay"});
      out.traced.push_back(Metric{"overlay.hops_p99", "hops", 0.0, "no overlay"});
      SmrSplit sm = smr_split(tracer_->snapshot(), [](NodeId) { return std::uint64_t{0}; });
      add_percentile(out.traced, "smr.queue_ms_p50", "ms", sm.queue_ms, 0.50);
      add_percentile(out.traced, "smr.queue_ms_p99", "ms", sm.queue_ms, 0.99);
      add_percentile(out.traced, "smr.agree_ms_p50", "ms", sm.agree_ms, 0.50);
      add_percentile(out.traced, "smr.agree_ms_p99", "ms", sm.agree_ms, 0.99);
    }
    for (auto& r : replicas_) r->stop();
    return out;
  }

 private:
  void propose_next(std::size_t replica) {
    ByteWriter w;
    w.u64(replica);
    w.u64(++next_op_[replica]);
    w.i64(sim_->now());  // due time: the closed loop proposes the moment a slot frees
    Bytes op = w.take();
    op.resize(kOpBytes, static_cast<std::uint8_t>(seed_ + replica));
    ++proposed_;
    if (spans_->enabled()) {
      const std::int64_t t0 = SpanLog::now_ns();
      replicas_[replica]->propose(std::move(op));
      const std::int64_t t1 = SpanLog::now_ns();
      // Every propose is timed; one in kProposeSpanEvery is also kept as a
      // span (the closed loop makes ~560k calls per run).
      if (propose_ns_.size() % kProposeSpanEvery == 0) spans_->leaf("smr.propose", t0, t1, replica);
      propose_ns_.push_back(static_cast<double>(t1 - t0));
    } else {
      replicas_[replica]->propose(std::move(op));
    }
  }

  void on_decide(std::size_t replica, NodeId origin, const net::Payload& op) {
    ++decided_[replica];
    // Order fingerprint over (origin, op bytes): FNV, not SHA-256, so the
    // check does not move crypto.sha256_per_op.
    order_[replica] = fnv1a_u64(origin, fnv1a(op.data(), op.size(), order_[replica]));
    if (origin != replica) return;
    ByteReader r(op);
    r.u64();
    r.u64();
    const TimeMicros due = r.i64();
    const TimeMicros now = sim_->now();
    ++committed_[replica];
    last_commit_at_ = now;
    commit_us_.record(static_cast<std::uint64_t>(now - due));
    if (!closing_) propose_next(replica);
  }

  bool all_decided() const {
    for (std::uint64_t d : decided_) {
      if (d != proposed_) return false;
    }
    return true;
  }

  std::uint64_t committed_total() const {
    std::uint64_t n = 0;
    for (std::uint64_t c : committed_) n += c;
    return n;
  }

  std::uint64_t seed_;
  double window_s_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::SimNetwork> net_;
  std::unique_ptr<crypto::KeyStore> keys_;
  std::unique_ptr<obs::Registry> registry_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::vector<std::unique_ptr<smr::PbftSmr>> replicas_;
  SpanLog* spans_ = nullptr;

  TimeMicros window_start_ = 0;
  TimeMicros window_end_ = 0;
  bool closing_ = false;
  std::uint64_t proposed_ = 0;
  TimeMicros last_commit_at_ = 0;
  std::array<std::uint64_t, kReplicas> next_op_{};
  std::array<std::uint64_t, kReplicas> decided_{};
  std::array<std::uint64_t, kReplicas> committed_{};
  std::array<std::uint64_t, kReplicas> order_{};
  MicrosHistogram commit_us_;
  std::vector<double> propose_ns_;
};

}  // namespace

std::unique_ptr<Workload> make_smr_workload(std::uint64_t seed, double scale) {
  return std::make_unique<SmrWorkload>(seed, scale);
}

}  // namespace perfbench
