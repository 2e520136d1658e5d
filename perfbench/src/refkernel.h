// Reference kernel: a fixed, deterministic CPU workload timed in the same
// process as the measured run, so host-time metrics can be divided by it
// (run_ref) and VM speed drift between runs cancels out.
//
// It mixes the operations the simulator's host time is made of — an
// ordered map (rb-tree), a hash map, a binary heap, and dependent random
// reads — over a small working set (~0.5 MiB), so it neither shares code
// with src/ nor inflates the measured run's peak RSS.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

struct RefResult {
  double seconds = 0.0;
  std::uint64_t checksum = 0;  // identical for the same round count and build
};

// One full pass is kFullRounds rounds (~0.08 s on the reference host).
inline constexpr int kFullRounds = 200'000;
RefResult run_reference_kernel(int rounds = kFullRounds);

// Host-time normalisation. The VM this benchmark was built on drifts in
// speed by up to 2x on a timescale of seconds (reference-kernel slices
// 0.06-0.15 s per pass within one run, lag-1 autocorrelation 0.83), so a
// run's host time is divided by the kernel speed measured *during* it.
//
// A window opens with begin() and closes with end(), each taking a short
// kernel slice; in between, tick() (called from the benchmark's step loop)
// takes one more slice whenever `interval` of host time has passed. Each
// interval between two slices is converted to reference passes using the
// mean of its two bracketing slices, and the slices' own time is excluded,
// so:  raw_s = measured host seconds,  ref_passes = sum(interval / pass_s).
class DriftProbe {
 public:
  static constexpr int kSliceRounds = kFullRounds / 10;

  struct Window {
    double raw_s = 0.0;       // host seconds inside the window, slices excluded
    double ref_passes = 0.0;  // the same time in reference-kernel passes
  };

  void begin(std::chrono::nanoseconds interval);
  void tick() {
    if (armed_ && std::chrono::steady_clock::now() >= next_) slice();
  }
  Window end();
  // Every slice's full-pass-equivalent seconds since the last begin().
  const std::vector<double>& samples() const { return samples_; }
  bool consistent() const { return consistent_; }

 private:
  void slice();

  bool armed_ = false;
  std::chrono::nanoseconds interval_{0};
  std::chrono::steady_clock::time_point next_{};
  std::chrono::steady_clock::time_point last_end_{};  // end of the last slice
  double last_pass_s_ = 0.0;
  Window win_;
  std::uint64_t checksum_ = 0;
  bool consistent_ = true;
  std::vector<double> samples_;
};

// The process's probe: the workloads open a window around their measured
// event loop, the step loop (pump.h) ticks it.
DriftProbe& drift_probe();

// Seconds per full reference pass on the reference host (Intel Xeon
// 4-vCPU VM, gcc 12.2 -O3; median of 1000 slices). Host-time metrics
// quoted in seconds are reference passes times this constant.
inline constexpr double kNominalPassS = 0.075;

// Slice spacing inside measured windows (a slice takes ~8 ms, so slices
// cost ~8% of a window's wall time; it is excluded from the window).
inline constexpr std::chrono::milliseconds kDriftInterval{100};

}  // namespace perfbench
