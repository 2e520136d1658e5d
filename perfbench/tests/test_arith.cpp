// Self-test for the benchmark's own arithmetic: the percentile rule,
// ratios with their base, the two histograms, traced-step classification
// (src/arith.h), and the lifecycle joins over obs::Tracer events
// (src/lifecycle.h). No test framework, so it builds wherever the
// benchmark builds: `perfbench_selftest` exits non-zero at the first
// failed check and prints the number of checks on success.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "arith.h"
#include "lifecycle.h"

namespace {

int g_checks = 0;

void check(bool ok, const char* what, int line) {
  ++g_checks;
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    std::exit(1);
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

using namespace perfbench;

void test_percentile_rule() {
  // p99 of 1000 samples: rank 990, exactly 10 beyond -> reportable.
  CHECK(nearest_rank(1000, 0.99) == 990);
  CHECK(samples_beyond(1000, 0.99) == 10);
  CHECK(percentile_supported(1000, 0.99));
  // 999 samples: rank ceil(989.01) = 990, only 9 beyond -> not reportable.
  CHECK(nearest_rank(999, 0.99) == 990);
  CHECK(samples_beyond(999, 0.99) == 9);
  CHECK(!percentile_supported(999, 0.99));
  // The median needs one sample; nothing is reportable from none.
  CHECK(percentile_supported(1, 0.50));
  CHECK(!percentile_supported(0, 0.50));
  // p50 of 20 samples but p90 of 20 has only 2 beyond.
  CHECK(percentile_supported(20, 0.50));
  CHECK(!percentile_supported(20, 0.90));
  CHECK(percentile_supported(100, 0.90));
  // Ranks clamp into [1, n].
  CHECK(nearest_rank(10, 0.0) == 1);
  CHECK(nearest_rank(10, 1.0) == 10);
  CHECK(nearest_rank(10, 1.5) == 10);
}

void test_percentile_values() {
  std::vector<double> xs;
  for (int i = 1000; i >= 1; --i) xs.push_back(i);  // reverse order: percentile sorts
  Percentile p50 = percentile(xs, 0.50);
  CHECK(p50.value == 500.0 && p50.samples == 1000 && p50.beyond == 500 && p50.supported);
  Percentile p99 = percentile(xs, 0.99);
  CHECK(p99.value == 990.0 && p99.beyond == 10 && p99.supported);
  xs.pop_back();
  CHECK(!percentile(xs, 0.99).supported);
  std::vector<double> none;
  Percentile empty = percentile(none, 0.5);
  CHECK(empty.samples == 0 && !empty.supported);
}

void test_median() {
  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
  bool threw = false;
  try {
    median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

void test_ratio() {
  Ratio r{19974.0, 20000.0};
  CHECK(r.defined());
  CHECK(std::fabs(r.value() - 0.9987) < 1e-12);
  CHECK(r.str() == "0.998700 (19974/20000)");
  Ratio undefined{5.0, 0.0};
  CHECK(!undefined.defined());
  CHECK(undefined.value() == 0.0);
  CHECK(undefined.str() == "0.000000 (5/0)");
}

void test_histogram() {
  // Exact below 2^kSubBits.
  for (std::uint64_t v = 0; v < LogHistogram::kSub; ++v) {
    CHECK(LogHistogram::bucket_of(v) == v);
    CHECK(LogHistogram::midpoint(LogHistogram::bucket_of(v)) == static_cast<double>(v));
  }
  // Every bucket's lower bound maps back to that bucket, the value just
  // below it to the previous one, and the midpoint is within 1/2^kSubBits.
  for (std::size_t b = LogHistogram::kSub; b < LogHistogram::kBuckets - 1; ++b) {
    const std::uint64_t lo = LogHistogram::lower_bound(b);
    CHECK(LogHistogram::bucket_of(lo) == b);
    CHECK(LogHistogram::bucket_of(lo - 1) == b - 1);
  }
  std::uint64_t s = 12345;
  for (int i = 0; i < 100000; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t v = (s >> 20) % 50'000'000 + 1;
    const double mid = LogHistogram::midpoint(LogHistogram::bucket_of(v));
    CHECK(std::fabs(mid - static_cast<double>(v)) / static_cast<double>(v) <=
          1.0 / static_cast<double>(LogHistogram::kSub));
  }
  // Percentiles follow the same rule as the exact vector version.
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v * 100);
  CHECK(h.count() == 1000);
  Percentile p50 = h.percentile(0.50);
  CHECK(p50.supported && p50.beyond == 500);
  CHECK(std::fabs(p50.value - 50000.0) / 50000.0 <= 1.0 / 64.0);
  Percentile p99 = h.percentile(0.99);
  CHECK(p99.supported && p99.beyond == 10);
  CHECK(std::fabs(p99.value - 99000.0) / 99000.0 <= 1.0 / 64.0);
  LogHistogram small;
  for (int i = 0; i < 999; ++i) small.record(7);
  CHECK(!small.percentile(0.99).supported);
  CHECK(small.percentile(0.50).value == 7.0);
  CHECK(LogHistogram().percentile(0.5).samples == 0);
}

void test_micros_histogram() {
  MicrosHistogram h;
  CHECK(!h.percentile(0.5).supported && h.percentile(0.5).samples == 0);
  // 1000 exact samples 1..1000 us plus nothing else: exact ranks.
  for (std::uint64_t v = 1000; v >= 1; --v) h.record(v);
  Percentile p50 = h.percentile(0.50);
  CHECK(p50.value == 500.0 && p50.beyond == 500 && p50.supported);
  Percentile p99 = h.percentile(0.99);
  CHECK(p99.value == 990.0 && p99.beyond == 10 && p99.supported);
  // Samples past the exact range are kept individually and rank last.
  MicrosHistogram tail;
  for (int i = 0; i < 990; ++i) tail.record(7);
  for (std::uint64_t v = 0; v < 10; ++v) tail.record(MicrosHistogram::kExact + 100 - v);
  CHECK(tail.count() == 1000);
  CHECK(tail.percentile(0.99).value == 7.0);
  CHECK(tail.percentile(0.991).value == static_cast<double>(MicrosHistogram::kExact + 91));
  CHECK(tail.percentile(1.0).value == static_cast<double>(MicrosHistogram::kExact + 100));
  // The >= 10-beyond rule applies as for vectors.
  MicrosHistogram short_run;
  for (int i = 0; i < 999; ++i) short_run.record(3);
  CHECK(!short_run.percentile(0.99).supported);
}

void test_step_classification() {
  const CounterDelta base{100, 200};
  CHECK(classify_step(base, CounterDelta{101, 200}) == StepKind::kDelivery);
  // A delivery that triggered sends is still a delivery step.
  CHECK(classify_step(base, CounterDelta{101, 205}) == StepKind::kDelivery);
  CHECK(classify_step(base, CounterDelta{100, 201}) == StepKind::kSend);
  CHECK(classify_step(base, CounterDelta{100, 200}) == StepKind::kInternal);
}

void test_fnv() {
  const std::uint8_t a = 'a';
  CHECK(fnv1a(&a, 1) == 0xaf63dc4c8601ec8cULL);  // published FNV-1a test vector
  CHECK(fnv1a(nullptr, 0) == 0xcbf29ce484222325ULL);
  // Order-sensitive fold: the same two values in the other order differ.
  const std::uint64_t h1 = fnv1a_u64(2, fnv1a_u64(1, 0xcbf29ce484222325ULL));
  const std::uint64_t h2 = fnv1a_u64(1, fnv1a_u64(2, 0xcbf29ce484222325ULL));
  CHECK(h1 != h2);
}

atum::obs::TraceEvent ev(std::int64_t at, atum::NodeId node, atum::obs::TracePoint point,
                        std::uint64_t key, std::uint64_t a = 0, std::uint64_t b = 0) {
  static std::uint64_t seq = 0;
  return atum::obs::TraceEvent{at, seq++, node, point, key, a, b};
}

void test_smr_split() {
  using atum::obs::TracePoint;
  // Node 1 (group 0) proposes op K at 100 us; node 0 (same group)
  // pre-prepares seq 5 at 150 us; node 1 decides K as seq 5 at 400 us.
  // A pre-prepare of seq 5 in another group (node 9) must not match, and
  // a proposal that never decided is skipped.
  const std::vector<atum::obs::TraceEvent> events = {
      ev(90, 9, TracePoint::kPrePrepare, 0xB, 5),
      ev(100, 1, TracePoint::kPropose, 0xA1),
      ev(120, 2, TracePoint::kPropose, 0xA2),
      ev(150, 0, TracePoint::kPrePrepare, 0xB, 5),
      ev(400, 1, TracePoint::kDecide, 0xA1, 5),
      ev(410, 0, TracePoint::kDecide, 0xA1, 5),
  };
  auto group_of = [](atum::NodeId n) -> std::uint64_t { return n == 9 ? 7 : 0; };
  SmrSplit s = smr_split(events, group_of);
  CHECK(s.queue_ms.size() == 1 && s.agree_ms.size() == 1);
  CHECK(std::fabs(s.queue_ms[0] - 0.050) < 1e-12);
  CHECK(std::fabs(s.agree_ms[0] - 0.250) < 1e-12);
}

void test_overlay_split() {
  using atum::obs::TracePoint;
  // Origin node 10 (group 1) sends K at 0; node 20 (group 2) vouches K
  // from group 1 at 1 ms (hop 1); node 30 (group 3) vouches from group 2
  // at 2 ms (hop 2); node 40 vouches from an unseen group: latency only.
  const std::vector<atum::obs::TraceEvent> events = {
      ev(0, 10, TracePoint::kSend, 0xC),
      ev(1000, 20, TracePoint::kVouch, 0xC, 7, 1),
      ev(2000, 30, TracePoint::kVouch, 0xC, 7, 2),
      ev(2500, 40, TracePoint::kVouch, 0xC, 7, 99),
      ev(2600, 41, TracePoint::kVouch, 0xD, 7, 1),  // send evicted: skipped
  };
  auto group_of = [](atum::NodeId n) -> std::uint64_t { return n / 10; };
  OverlaySplit o = overlay_split(events, group_of);
  CHECK(o.vouch_ms.size() == 3);
  CHECK(o.vouch_ms[0] == 1.0 && o.vouch_ms[1] == 2.0 && o.vouch_ms[2] == 2.5);
  CHECK(o.hops.size() == 2 && o.hops[0] == 1.0 && o.hops[1] == 2.0);
}

}  // namespace

int main() {
  test_percentile_rule();
  test_percentile_values();
  test_median();
  test_ratio();
  test_histogram();
  test_micros_histogram();
  test_step_classification();
  test_fnv();
  test_smr_split();
  test_overlay_split();
  std::printf("perfbench_selftest: %d checks passed\n", g_checks);
  return 0;
}
