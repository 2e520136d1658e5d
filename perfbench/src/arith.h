// The benchmark's own arithmetic: percentiles under the ">= 10 samples
// beyond" rule, ratios that keep their base, a fine log-linear histogram
// for host-time samples too numerous to keep, and the classification of
// traced simulator steps by counter deltas. No atum dependency, so the
// self-test (tests/test_arith.cpp) exercises exactly what the benchmark
// reports with.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// A percentile is reported only when at least this many samples lie
// strictly beyond its rank (choosing-metrics rule: the highest percentile
// with ten samples beyond it).
inline constexpr std::size_t kMinBeyond = 10;

// 1-based nearest rank of quantile p in n samples: ceil(p * n), clamped to
// [1, n]. Matches atum::Samples::percentile.
std::size_t nearest_rank(std::size_t n, double p);

// Samples strictly beyond the nearest rank of p (n - rank).
std::size_t samples_beyond(std::size_t n, double p);

// True when p can be reported from n samples under the kMinBeyond rule.
// The median needs a single sample.
bool percentile_supported(std::size_t n, double p);

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  // n
  std::size_t beyond = 0;   // samples strictly beyond the rank
  bool supported = false;   // percentile_supported(n, p)
};

// Nearest-rank percentile of `xs` (sorted in place). An empty input yields
// {0, 0, 0, false}.
Percentile percentile(std::vector<double>& xs, double p);

// Median of a small vector of measurements (mean of the two middle values
// for even sizes). Throws std::invalid_argument on an empty input.
double median(std::vector<double> xs);

// A ratio that carries its base: value() is num/den, and str() prints both
// so no report shows a bare fraction. den == 0 yields value() == 0 and
// defined() == false.
struct Ratio {
  double num = 0.0;
  double den = 0.0;
  bool defined() const { return den != 0.0; }
  double value() const { return den != 0.0 ? num / den : 0.0; }
  // "0.998700 (19974/20000)"
  std::string str() const;
};

// Log-linear histogram for non-negative integer samples (nanoseconds):
// values below 2^kSubBits are exact, above that each octave splits into
// 2^kSubBits buckets, so a reported value is within 1/2^kSubBits (1.6%)
// of the true sample. Percentiles follow the nearest-rank convention.
class LogHistogram {
 public:
  static constexpr unsigned kSubBits = 6;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = kSub + (64 - kSubBits) * kSub;

  static std::size_t bucket_of(std::uint64_t v);
  static std::uint64_t lower_bound(std::size_t bucket);
  // Midpoint of the bucket's value range (exact values for v < kSub).
  static double midpoint(std::size_t bucket);

  void record(std::uint64_t v) {
    ++counts_[bucket_of(v)];
    ++count_;
  }
  std::uint64_t count() const { return count_; }
  Percentile percentile(double p) const;

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

// Exact percentiles of simulated-time latencies, which are whole
// microseconds: one counter per microsecond below kExact (65.5 ms), and
// the rare longer samples kept individually. Memory stays at 256 KiB
// however many samples a run records, so latency bookkeeping does not
// grow the process's peak RSS with run length.
class MicrosHistogram {
 public:
  static constexpr std::size_t kExact = 1 << 16;

  MicrosHistogram() : counts_(kExact, 0) {}
  void record(std::uint64_t micros);
  std::size_t count() const { return count_; }
  // Nearest-rank percentile in microseconds (value = the exact sample).
  Percentile percentile(double p) const;

 private:
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint64_t> overflow_;  // samples >= kExact, unsorted
  std::size_t count_ = 0;
};

// Traced steps are classified by what the step did to the network
// counters: a step that delivered at least one message is a delivery step
// (net dispatch + the receiving protocol's handler ran inside it); a step
// that only sent is a send step (timers, client calls); anything else is
// an internal step (timer bookkeeping that touched no message).
enum class StepKind { kDelivery, kSend, kInternal };

struct CounterDelta {
  std::uint64_t delivered = 0;
  std::uint64_t sent = 0;
};

StepKind classify_step(const CounterDelta& before, const CounterDelta& after);

// FNV-1a 64-bit, for cheap order fingerprints that must not perturb the
// program's SHA-256 count.
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n,
                    std::uint64_t seed = 0xcbf29ce484222325ULL);
std::uint64_t fnv1a_u64(std::uint64_t v, std::uint64_t seed);

}  // namespace perfbench
