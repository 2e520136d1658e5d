// The benchmark's own event loop: Simulator::step until a sim-time
// deadline. The traced variant times every step, classifies it by its
// network-counter delta, tracks the flow-table peak, and keeps one step in
// SpanLog::kStepSpanEvery as an individual span.
#pragma once

#include <algorithm>
#include <cstdint>

#include "arith.h"
#include "net/network.h"
#include "refkernel.h"
#include "sim/simulator.h"
#include "spans.h"

namespace perfbench {

struct StepStats {
  LogHistogram all;       // ns per Simulator::step
  LogHistogram delivery;  // ns per step that delivered a message
  std::size_t flows_peak = 0;
  std::uint64_t steps = 0;
};

// Runs every event due at or before `until` (plus none after): a sentinel
// scheduled at `until` ends the loop, so events already queued for that
// instant run first. `after_step` runs between steps, in the benchmark's
// own code (completion checks that need event granularity). Every
// kDriftEvery steps the loop ticks the drift probe (refkernel.h).
inline constexpr std::uint64_t kDriftEvery = 1 << 14;

template <typename AfterStep>
void pump_until(atum::sim::Simulator& sim, const atum::net::SimNetwork& net,
                atum::TimeMicros until, StepStats& st, SpanLog& spans, AfterStep&& after_step) {
  bool done = false;
  sim.schedule_at(std::max(until, sim.now()), [&done] { done = true; });
  DriftProbe& drift = drift_probe();
  std::uint64_t n = 0;
  if (!spans.enabled()) {
    while (!done && sim.step()) {
      after_step();
      if ((++n & (kDriftEvery - 1)) == 0) drift.tick();
    }
    return;
  }
  while (!done) {
    const atum::net::NetworkStats& ns = net.stats();
    const CounterDelta before{ns.messages_delivered, ns.messages_sent};
    const std::int64_t t0 = SpanLog::now_ns();
    const bool stepped = sim.step();
    const std::int64_t t1 = SpanLog::now_ns();
    if (!stepped) break;
    const CounterDelta after{ns.messages_delivered, ns.messages_sent};
    const auto ns_taken = static_cast<std::uint64_t>(t1 - t0);
    st.all.record(ns_taken);
    const StepKind kind = classify_step(before, after);
    if (kind == StepKind::kDelivery) st.delivery.record(ns_taken);
    st.flows_peak = std::max(st.flows_peak, net.flow_count());
    if (++st.steps % SpanLog::kStepSpanEvery == 0) {
      spans.leaf("sim.step", t0, t1, static_cast<std::uint64_t>(kind));
    }
    after_step();
    if ((++n & (kDriftEvery - 1)) == 0) drift.tick();
  }
}

inline void pump_until(atum::sim::Simulator& sim, const atum::net::SimNetwork& net,
                       atum::TimeMicros until, StepStats& st, SpanLog& spans) {
  pump_until(sim, net, until, st, spans, [] {});
}

}  // namespace perfbench
