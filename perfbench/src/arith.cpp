#include "arith.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

std::size_t samples_beyond(std::size_t n, double p) { return n - nearest_rank(n, p); }

bool percentile_supported(std::size_t n, double p) {
  if (n == 0) return false;
  if (p <= 0.5) return true;
  return samples_beyond(n, p) >= kMinBeyond;
}

Percentile percentile(std::vector<double>& xs, double p) {
  Percentile out;
  out.samples = xs.size();
  if (xs.empty()) return out;
  const std::size_t rank = nearest_rank(xs.size(), p);
  std::nth_element(xs.begin(), xs.begin() + static_cast<long>(rank - 1), xs.end());
  out.value = xs[rank - 1];
  out.beyond = xs.size() - rank;
  out.supported = percentile_supported(xs.size(), p);
  return out;
}

double median(std::vector<double> xs) {
  if (xs.empty()) throw std::invalid_argument("median of no values");
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

std::string Ratio::str() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.6f (%.10g/%.10g)", value(), num, den);
  return buf;
}

std::size_t LogHistogram::bucket_of(std::uint64_t v) {
  if (v < kSub) return static_cast<std::size_t>(v);
  const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(v));  // >= kSubBits
  const std::uint64_t mantissa = (v >> (msb - kSubBits)) & (kSub - 1);
  return static_cast<std::size_t>(kSub + (msb - kSubBits) * kSub + mantissa);
}

std::uint64_t LogHistogram::lower_bound(std::size_t bucket) {
  if (bucket < kSub) return bucket;
  const std::size_t octave = (bucket - kSub) / kSub;  // msb - kSubBits
  const std::uint64_t mantissa = (bucket - kSub) % kSub;
  return (kSub + mantissa) << octave;
}

double LogHistogram::midpoint(std::size_t bucket) {
  if (bucket < kSub) return static_cast<double>(bucket);
  const std::size_t octave = (bucket - kSub) / kSub;
  const double lo = static_cast<double>(lower_bound(bucket));
  const double width = std::ldexp(1.0, static_cast<int>(octave));
  return lo + (width - 1.0) / 2.0;
}

Percentile LogHistogram::percentile(double p) const {
  Percentile out;
  out.samples = static_cast<std::size_t>(count_);
  if (count_ == 0) return out;
  const std::size_t rank = nearest_rank(out.samples, p);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      out.value = midpoint(i);
      break;
    }
  }
  out.beyond = out.samples - rank;
  out.supported = percentile_supported(out.samples, p);
  return out;
}

void MicrosHistogram::record(std::uint64_t micros) {
  ++count_;
  if (micros < kExact) {
    ++counts_[static_cast<std::size_t>(micros)];
  } else {
    overflow_.push_back(micros);
  }
}

Percentile MicrosHistogram::percentile(double p) const {
  Percentile out;
  out.samples = count_;
  if (count_ == 0) return out;
  const std::size_t rank = nearest_rank(count_, p);
  out.beyond = count_ - rank;
  out.supported = percentile_supported(count_, p);
  std::size_t seen = 0;
  for (std::size_t v = 0; v < kExact; ++v) {
    seen += counts_[v];
    if (seen >= rank) {
      out.value = static_cast<double>(v);
      return out;
    }
  }
  std::vector<std::uint64_t> over = overflow_;
  std::sort(over.begin(), over.end());
  out.value = static_cast<double>(over[rank - 1 - seen]);
  return out;
}

StepKind classify_step(const CounterDelta& before, const CounterDelta& after) {
  if (after.delivered != before.delivered) return StepKind::kDelivery;
  if (after.sent != before.sent) return StepKind::kSend;
  return StepKind::kInternal;
}

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a_u64(std::uint64_t v, std::uint64_t seed) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return fnv1a(b, sizeof b, seed);
}

}  // namespace perfbench
