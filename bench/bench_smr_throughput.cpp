// SMR throughput vs batch size, plus decided-ops/s under the node-level
// soak profile. Two phases:
//
//   pbft — one PBFT group at n = 4, 7, 13, a fixed backlog of small ops
//          proposed up front, drained under batch_max_ops = 1, 4, 16, 64.
//          Throughput is ops per SIMULATED second (the sim's cost model —
//          per-message CPU, header overhead, bandwidth serialization — is
//          machine-independent, so the numbers are deterministic and
//          byte-comparable across hosts; see tools/bench_trend.py).
//   soak — the `soak` scenario preset's parameters (kAsync vgroups,
//          H-graph, gossip, 5 s heartbeats), default 1500 nodes for CI (--soak-nodes 10000 for the
//          full-size run): a burst of broadcasts from scattered origins,
//          measured as broadcast deliveries per simulated second.
//
// Output: machine-readable JSON on stdout (the committed baseline lives in
// BENCH_smr_throughput.json; the CI trend check diffs against it), human
// progress on stderr. Exits non-zero if protocol guarantees break or the
// batching speedup at n=7 falls below the 3x acceptance floor.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/serde.h"
#include "core/atum.h"
#include "core/params.h"
#include "crypto/keys.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "smr/pbft.h"

using namespace atum;

namespace {

struct Metric {
  std::string name;
  double value = 0.0;
  bool higher_is_better = true;
};

std::vector<Metric> g_metrics;
bool g_ok = true;

void record(std::string name, double value, bool higher_is_better = true) {
  g_metrics.push_back({std::move(name), value, higher_is_better});
}

bool check(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "FAIL: %s\n", what);
  return ok;
}

Bytes make_op(std::uint64_t i) {
  // 64-byte ops, distinct per index: big enough to look like a request,
  // small enough that message count (not payload bandwidth) dominates —
  // which is exactly the regime batching targets.
  ByteWriter w;
  w.u64(i);
  Bytes b = w.take();
  b.resize(64, static_cast<std::uint8_t>(i * 31 + 7));
  return b;
}

// One PBFT group of size n draining kOps ops under the given batch cap.
// Returns decided ops per simulated second (0 on failure).
double pbft_drain_ops_per_sec(std::size_t n, std::size_t batch_max_ops) {
  constexpr std::uint64_t kOps = 1024;
  sim::Simulator sim;
  net::SimNetwork net(sim, net::NetworkConfig::datacenter(), /*seed=*/0x5417);
  crypto::KeyStore keys(11);

  smr::GroupConfig cfg;
  for (NodeId i = 0; i < n; ++i) cfg.members.push_back(i);
  smr::PbftOptions opt;
  opt.batch_max_ops = batch_max_ops;
  // The backlog is drained under load, not under faults: keep the
  // view-change timer out of the measurement.
  opt.view_change_timeout = seconds(60.0);

  std::vector<std::unique_ptr<smr::PbftSmr>> replicas;
  std::vector<std::uint64_t> decided(n, 0);
  // Completion instant of the slowest replica, captured in the decide
  // handler itself so the measurement has event (not polling) granularity.
  TimeMicros done_at = 0;
  for (NodeId i = 0; i < n; ++i) {
    auto r = std::make_unique<smr::PbftSmr>(net::Transport(net, i), cfg, keys, opt);
    r->set_decide_handler(
        [&decided, &done_at, &sim, i](std::uint64_t, NodeId, const net::Payload&) {
          if (++decided[static_cast<std::size_t>(i)] == kOps) done_at = sim.now();
        });
    replicas.push_back(std::move(r));
  }

  // Whole backlog up front at the primary; the batch buffer and the
  // watermark window meter it out.
  const TimeMicros t0 = sim.now();
  for (std::uint64_t i = 0; i < kOps; ++i) replicas[0]->propose(make_op(i));

  auto all_done = [&] {
    for (std::uint64_t d : decided) {
      if (d < kOps) return false;
    }
    return true;
  };
  const TimeMicros deadline = t0 + seconds(120.0);
  while (!all_done() && sim.now() < deadline) {
    sim.run_until(sim.now() + millis(100));
  }
  if (!all_done()) {
    std::fprintf(stderr, "FAIL: pbft n=%zu batch=%zu: %" PRIu64 "/%" PRIu64
                         " ops decided within the time cap\n",
                 n, batch_max_ops, decided[0], kOps);
    g_ok = false;
    return 0.0;
  }
  const double elapsed = to_seconds(done_at - t0);
  const double ops_per_sec = static_cast<double>(kOps) / elapsed;
  std::fprintf(stderr,
               "pbft n=%2zu batch=%2zu: %" PRIu64 " ops in %6.3f sim-s "
               "(%8.1f ops/s, %" PRIu64 " seqs, %" PRIu64 " msgs)\n",
               n, batch_max_ops, kOps, elapsed, ops_per_sec,
               replicas[0]->batches_executed(), net.stats().messages_sent);
  for (std::size_t i = 0; i < n; ++i) replicas[i]->stop();
  return ops_per_sec;
}

// Soak-profile throughput: broadcast deliveries per simulated second at
// node scale.
void soak_phase(std::size_t target_nodes) {
  core::Params p;
  p.hc = 3;
  p.rwl = 6;
  p.gmax = 14;
  p.gmin = 7;
  p.engine = smr::EngineKind::kAsync;
  p.heartbeat_period = seconds(5.0);
  p.verify_signatures = false;
  core::AtumSystem sys(p, net::NetworkConfig::datacenter(), /*seed=*/0xa70a);

  std::vector<NodeId> ids;
  ids.reserve(target_nodes);
  for (NodeId i = 0; i < target_nodes; ++i) ids.push_back(i);
  std::uint64_t delivered_total = 0;
  sys.deploy(ids);
  for (NodeId i : ids) sys.node(i).set_forward(overlay::forward_cycles({0}));

  // Burst load: a few scattered origins each broadcast several messages at
  // once. The origin vgroup's SMR batches each burst into one pre-prepare,
  // so the burst's first relays leave in the same instant. This is the
  // load shape SMR batching targets.
  constexpr std::size_t kOrigins = 5;
  constexpr std::size_t kPerOrigin = 8;
  constexpr std::size_t kBroadcasts = kOrigins * kPerOrigin;
  const std::uint64_t want = kBroadcasts * target_nodes;
  const Bytes frame(128, 0x5a);
  TimeMicros done_at = 0;
  for (NodeId i : ids) {
    sys.node(i).set_deliver([&delivered_total, &done_at, &sys, want](NodeId,
                                                                     const net::Payload&) {
      if (++delivered_total == want) done_at = sys.simulator().now();
    });
  }
  const TimeMicros t0 = sys.simulator().now();
  for (std::size_t o = 0; o < kOrigins; ++o) {
    NodeId origin = static_cast<NodeId>((o * 307) % target_nodes);
    for (std::size_t b = 0; b < kPerOrigin; ++b) sys.node(origin).broadcast(frame);
  }
  const TimeMicros deadline = t0 + seconds(600.0);
  while (delivered_total < want && sys.simulator().now() < deadline) {
    sys.simulator().run_until(sys.simulator().now() + seconds(5.0));
  }
  g_ok &= check(delivered_total == want, "soak: every broadcast delivered everywhere");
  const double elapsed = to_seconds((done_at > t0 ? done_at : sys.simulator().now()) - t0);
  const double deliveries_per_sec = static_cast<double>(delivered_total) / elapsed;
  std::fprintf(stderr, "soak n=%zu: %" PRIu64 " deliveries in %5.1f sim-s (%9.1f /s)\n",
               target_nodes, delivered_total, elapsed, deliveries_per_sec);
  record("soak_deliveries_per_sec", deliveries_per_sec);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t soak_nodes = 1500;  // CI size; --soak-nodes 10000 for full scale
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--soak-nodes") == 0 && a + 1 < argc) {
      soak_nodes = static_cast<std::size_t>(std::strtoull(argv[++a], nullptr, 10));
    } else {
      std::fprintf(stderr, "usage: %s [--soak-nodes N]\n", argv[0]);
      return 2;
    }
  }

  // ------------------------------------------------------------------ pbft
  const std::size_t sizes[] = {4, 7, 13};
  const std::size_t batches[] = {1, 4, 16, 64};
  double n7_b1 = 0.0, n7_b16 = 0.0;
  for (std::size_t n : sizes) {
    for (std::size_t b : batches) {
      double thpt = pbft_drain_ops_per_sec(n, b);
      record("pbft_ops_per_sec_n" + std::to_string(n) + "_b" + std::to_string(b), thpt);
      if (n == 7 && b == 1) n7_b1 = thpt;
      if (n == 7 && b == 16) n7_b16 = thpt;
    }
  }
  const double speedup = n7_b1 > 0.0 ? n7_b16 / n7_b1 : 0.0;
  std::fprintf(stderr, "speedup n=7 batch 16 vs 1: %.2fx\n", speedup);
  record("speedup_n7_b16_vs_b1", speedup);
  g_ok &= check(speedup >= 3.0, "batching speedup >= 3x at n=7 (acceptance floor)");

  // ------------------------------------------------------------------ soak
  soak_phase(soak_nodes);

  // ------------------------------------------------------------------ json
  std::printf("{\n  \"bench\": \"smr_throughput\",\n  \"metrics\": [\n");
  for (std::size_t i = 0; i < g_metrics.size(); ++i) {
    const Metric& m = g_metrics[i];
    std::printf("    {\"name\": \"%s\", \"value\": %.4f, \"higher_is_better\": %s}%s\n",
                m.name.c_str(), m.value, m.higher_is_better ? "true" : "false",
                i + 1 < g_metrics.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  std::fprintf(stderr, "%s\n", g_ok ? "bench PASSED" : "bench FAILED");
  return g_ok ? 0 : 1;
}
