// atum_perfbench: one benchmark run of one workload.
//
//   atum_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--spans FILE]
//
// --trace 0 measures the end-to-end metrics untraced: several set-ups
// (median = setup_s), then the measured run on the last set-up. Host time
// is normalised by reference-kernel slices taken around and during each
// measurement (refkernel.h, DriftProbe). --trace 1 runs the workload twice
// on fresh set-ups of the same seed, untraced and then traced, and reports
// the per-layer metrics; the two runs' simulated-clock metrics must be
// identical. The result is one JSON object on stdout, which
// perfbench/run.py turns into the benchmark's final line.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "arith.h"
#include "hostinfo.h"
#include "refkernel.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed, double scale) {
  if (name == "smr_pipeline") return make_smr_workload(seed, scale);
  return make_node_workload(name, seed, scale);
}

namespace {

// Set-up blocks (see run_main): at least kMinSetupBlocks, more until the
// set-up loop has run for kSetupBudget.
constexpr std::size_t kMinSetupBlocks = 5;
constexpr std::chrono::seconds kSetupBudget{2};
constexpr double kSetupBlockS = 0.02;
// Kernel slices between set-ups: set-ups are short, so slice often.
constexpr std::chrono::milliseconds kSetupDriftInterval{50};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void emit_metrics(std::string& out, const std::vector<Metric>& ms, bool& first) {
  for (const Metric& m : ms) {
    out += first ? "" : ",";
    first = false;
    out += "{\"name\":" + json_str(m.name) + ",\"unit\":" + json_str(m.unit) +
           ",\"value\":" + num(m.value) + ",\"basis\":" + json_str(m.basis) + "}";
  }
}

int run_main(const Args& args) {
  const HostInfo host = host_info();
  const double scale = args.seconds / 10.0;
  DriftProbe& probe = drift_probe();
  std::vector<double> setup_raw;
  std::vector<double> ref_slices;
  std::vector<Metric> reported;
  std::vector<std::string> violations;
  RunOutcome primary;
  std::size_t span_count = 0;

  run_reference_kernel();  // warm-up pass (page faults, frequency ramp): not timed
  if (!args.trace) {
    // Set-up samples: each is the mean set-up time over a block of
    // consecutive set-ups lasting at least kSetupBlockS (one set-up when a
    // single one is that long), divided by the mean of the two kernel
    // slices that bracket the block. Short set-ups (PBFT: ~20 us) pass
    // through millisecond spells of slow host speed; a median of single
    // set-ups flips between the fast and the slow state from run to run,
    // while block means average over the spells.
    std::vector<std::size_t> slice_before;
    SpanLog off(false, 0);
    std::unique_ptr<Workload> w;
    std::size_t setups = 0;
    const auto loop_start = std::chrono::steady_clock::now();
    probe.begin(kSetupDriftInterval);
    while (setup_raw.size() < kMinSetupBlocks ||
           std::chrono::steady_clock::now() - loop_start < kSetupBudget) {
      slice_before.push_back(probe.samples().size() - 1);
      double block = 0.0;
      std::size_t n = 0;
      while (block < kSetupBlockS) {
        w.reset();  // one system alive at a time: set-ups must not stack RSS
        w = make_workload(args.workload, args.seed, scale);
        const auto t0 = std::chrono::steady_clock::now();
        w->setup(off);
        block += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        ++n;
      }
      setup_raw.push_back(block / static_cast<double>(n));
      setups += n;
      probe.tick();
    }
    probe.end();
    ref_slices = probe.samples();
    std::vector<double> setup_passes;
    setup_passes.reserve(setup_raw.size());
    for (std::size_t i = 0; i < setup_raw.size(); ++i) {
      const std::size_t k = slice_before[i];
      setup_passes.push_back(setup_raw[i] / (0.5 * (ref_slices[k] + ref_slices[k + 1])));
    }
    primary = w->run(off);
    ref_slices.insert(ref_slices.end(), probe.samples().begin(), probe.samples().end());
    w.reset();

    reported.push_back(Metric{"setup_s", "s", median(setup_passes) * kNominalPassS,
                              "median of " + std::to_string(setup_passes.size()) +
                                  " blocks (" + std::to_string(setups) +
                                  " set-ups) in reference seconds; raw median " +
                                  num(median(setup_raw)) + " s"});
    reported.push_back(Metric{"run_ref", "ratio", primary.ref_passes,
                              "raw " + num(primary.run_s) + " s / reference kernel, mean pass " +
                                  num(primary.run_s / primary.ref_passes) + " s"});
    reported.push_back(Metric{"peak_rss_mb", "MB", peak_rss_mb(), ""});
    reported.insert(reported.end(), primary.sim.begin(), primary.sim.end());
  } else {
    SpanLog off(false, 0);
    auto untraced_w = make_workload(args.workload, args.seed, scale);
    untraced_w->setup(off);
    RunOutcome untraced = untraced_w->run(off);
    ref_slices = probe.samples();
    untraced_w.reset();

    const auto run_id = static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count() ^
        (static_cast<std::uint64_t>(getpid()) << 32));
    SpanLog spans(true, run_id);
    RunOutcome traced;
    {
      SpanLog::Scope root(spans, args.workload.c_str(), args.seed);
      auto w = make_workload(args.workload, args.seed, scale);
      {
        SpanLog::Scope s(spans, "setup");
        w->setup(spans);
      }
      traced = w->run(spans);
    }
    ref_slices.insert(ref_slices.end(), probe.samples().begin(), probe.samples().end());
    span_count = spans.size();
    if (!args.spans_path.empty() && !spans.write_chrome_json(args.spans_path)) {
      violations.push_back("could not write spans to " + args.spans_path);
    }
    // Same seed, same schedule: tracing must not move a simulated-clock
    // number (the determinism check on the traced pair).
    if (untraced.sim.size() != traced.sim.size()) {
      violations.push_back("traced and untraced runs report different sim-clock metrics");
    } else {
      for (std::size_t i = 0; i < untraced.sim.size(); ++i) {
        if (untraced.sim[i].value != traced.sim[i].value) {
          violations.push_back("sim-clock metric " + untraced.sim[i].name +
                               " differs between same-seed runs: " + num(untraced.sim[i].value) +
                               " vs " + num(traced.sim[i].value));
        }
      }
    }
    violations.insert(violations.end(), traced.violations.begin(), traced.violations.end());
    // Counts come from the untraced run: enabling obs::Tracer adds
    // SHA-256 work for its keys, which would inflate crypto.sha256_per_op.
    reported = untraced.counts;
    reported.push_back(Metric{"sim.ns_per_event", "ns",
                              untraced.ref_passes * kNominalPassS * 1e9 /
                                  static_cast<double>(untraced.events),
                              "untraced run in reference seconds / sim.events"});
    reported.insert(reported.end(), traced.traced.begin(), traced.traced.end());
    reported.push_back(Metric{"obs.trace_overhead_frac", "ratio",
                              traced.ref_passes / untraced.ref_passes - 1.0,
                              "traced " + num(traced.ref_passes) + " vs untraced " +
                                  num(untraced.ref_passes) + " reference passes"});
    primary = std::move(untraced);
  }
  violations.insert(violations.end(), primary.violations.begin(), primary.violations.end());
  if (!probe.consistent()) {
    violations.push_back("reference kernel checksum changed between slices");
  }

  std::string out = "{\"workload\":" + json_str(args.workload) +
                    ",\"seed\":" + std::to_string(args.seed) + ",\"seconds\":" + num(args.seconds) +
                    ",\"trace\":" + (args.trace ? "1" : "0");
  out += ",\"host\":{\"cpu_model\":" + json_str(host.cpu_model) +
         ",\"cores\":" + std::to_string(host.cores) + ",\"compiler\":" + json_str(host.compiler) +
         ",\"build_type\":" + json_str(host.build_type) +
         ",\"cxx_flags\":" + json_str(host.cxx_flags) + "}";
  out += ",\"ref_s\":[";
  for (std::size_t i = 0; i < ref_slices.size(); ++i) out += (i ? "," : "") + num(ref_slices[i]);
  out += "],\"setup_blocks\":" + std::to_string(setup_raw.size());
  out += ",\"events\":" + std::to_string(primary.events);
  out += ",\"attempted\":" + std::to_string(primary.attempted) +
         ",\"failed\":" + std::to_string(primary.failed);
  out += ",\"violations\":[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    out += (i ? "," : "") + json_str(violations[i]);
  }
  out += "],\"metrics\":[";
  bool first = true;
  emit_metrics(out, reported, first);
  out += "],\"sim_clock\":[";
  first = true;
  emit_metrics(out, primary.sim, first);
  out += "],\"spans\":" + std::to_string(span_count) + "}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "atum_perfbench: %s\n", e.what());
    return 2;
  }
}
