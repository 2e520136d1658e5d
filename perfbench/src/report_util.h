// Helpers that turn raw samples and counters into Metric rows carrying
// their basis (sample count or num/den), enforcing the percentile rule.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "arith.h"
#include "obs/registry.h"
#include "workload.h"

namespace perfbench {

inline std::string percentile_basis(const Percentile& pc) {
  return "n=" + std::to_string(pc.samples) + ", beyond=" + std::to_string(pc.beyond);
}

// Per-layer percentile of `xs` (sorted in place); left out when the
// percentile is not supported (too few samples beyond it).
inline void add_percentile(std::vector<Metric>& out, const std::string& name, const char* unit,
                           std::vector<double>& xs, double p) {
  const Percentile pc = percentile(xs, p);
  if (pc.supported) out.push_back(Metric{name, unit, pc.value, percentile_basis(pc)});
}

// Per-layer percentile of a host-time histogram in ns.
inline void add_histogram_percentile(std::vector<Metric>& out, const std::string& name,
                                     const LogHistogram& h, double p) {
  const Percentile pc = h.percentile(p);
  if (pc.supported) out.push_back(Metric{name, "ns", pc.value, percentile_basis(pc)});
}

// End-to-end percentile of a simulated-time latency histogram, in ms. An
// end-to-end percentile must always be reportable: an unsupported one is
// a correctness failure.
inline void add_latency_percentile(std::vector<Metric>& out, std::vector<std::string>& violations,
                                   const std::string& name, const MicrosHistogram& h, double p) {
  const Percentile pc = h.percentile(p);
  if (!pc.supported) {
    violations.push_back(name + ": " + percentile_basis(pc) + " (need " +
                         std::to_string(kMinBeyond) + " beyond)");
    return;
  }
  out.push_back(Metric{name, "ms", pc.value / 1000.0, percentile_basis(pc)});
}

// Appends a ratio with its base; an undefined ratio (den == 0) is left out.
inline void add_ratio(std::vector<Metric>& out, const std::string& name, const char* unit,
                      Ratio r) {
  if (!r.defined()) return;
  out.push_back(Metric{name, unit, r.value(), r.str()});
}

// Count and sum of a registry histogram (zeros when it is not registered).
struct HistogramTotals {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
};
inline HistogramTotals histogram_totals(const atum::obs::Registry& reg, const std::string& name) {
  for (const atum::obs::SampledCell& c : reg.sample(0).cells) {
    if (c.name == name) return HistogramTotals{static_cast<std::uint64_t>(c.value), c.sum};
  }
  return {};
}

inline void add_count(std::vector<Metric>& out, const std::string& name, double v) {
  out.push_back(Metric{name, "count", v, ""});
}

}  // namespace perfbench
