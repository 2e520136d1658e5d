// The workload interface shared by main.cpp and the two workload families
// (node-level Atum workloads and the PBFT pipeline).
//
// A Workload is built for one (seed, size) pair. setup() constructs and
// deploys the system through a load-free warm-up; run() drives the
// measured schedule through the benchmark's own Simulator::step loop and
// returns every number the run produced. run() is traced iff the SpanLog
// is enabled: then it also times its calls into each layer and every step.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  // Human-readable base: sample count for percentiles, num/den for ratios.
  std::string basis;
};

struct RunOutcome {
  // Simulated-clock end-to-end metrics: identical across same-seed runs.
  std::vector<Metric> sim;
  // Per-layer counts from the program's public introspection (registry,
  // NetworkStats, simulator gauges, coalescer stats, sha256 counter).
  std::vector<Metric> counts;
  // Per-layer metrics that need the traced run (host-time spans, step
  // histograms, sim-time lifecycle spans from obs::Tracer).
  std::vector<Metric> traced;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Correctness-check failures (empty = all checks passed).
  std::vector<std::string> violations;
  std::uint64_t events = 0;  // simulator events executed in the measured run
  double run_s = 0.0;        // raw host seconds of the measured event loop
  double ref_passes = 0.0;   // the same time in reference-kernel passes
};

// Workloads hand `this` to the program's callbacks, so they never move.
class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  // Records a core.deploy span when `spans` is enabled.
  virtual void setup(SpanLog& spans) = 0;
  virtual RunOutcome run(SpanLog& spans) = 0;
};

// Workload names: broadcast, partition_heal, churn, smr_pipeline.
// `scale` multiplies the measured simulated window (1.0 = the size one
// --seconds 10 run measures).
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed, double scale);
std::unique_ptr<Workload> make_node_workload(const std::string& name, std::uint64_t seed,
                                             double scale);
std::unique_ptr<Workload> make_smr_workload(std::uint64_t seed, double scale);

}  // namespace perfbench
