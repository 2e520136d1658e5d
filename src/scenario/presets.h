// Built-in scenario presets: the workloads the paper's evaluation implies
// but hand-coded benches cannot compose — flash crowds (Fig 6), diurnal
// churn (Fig 7's rates modulated over a day), partitions + heals,
// correlated whole-vgroup failures, Byzantine conversion storms (Figs
// 10-11's adversary applied mid-run), streaming under churn (Fig 12
// meets Fig 7), and the heartbeat/broadcast/churn soak. Each preset
// carries its own expectations so `atum_scenario <preset> --assert`
// doubles as an acceptance gate in CI.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/spec.h"

namespace atum::scenario {

struct PresetInfo {
  std::string name;
  std::string summary;
  std::size_t default_nodes;
};

// All built-in presets, in a stable order.
std::vector<PresetInfo> preset_list();

// Builds a preset spec. nodes == 0 or seed == 0 pick the preset defaults.
// Throws std::invalid_argument for unknown names.
ScenarioSpec make_preset(const std::string& name, std::size_t nodes = 0,
                         std::uint64_t seed = 0);

// The Figure 7 churn probe expressed as a scenario (bench_fig7_churn runs
// on this): sustained leave+rejoin churn at `per_minute` ops/min for
// `window`, judged sustainable when >= 90% of the requested operations
// complete by the end of the drain.
ScenarioSpec churn_probe(std::size_t nodes, double per_minute, smr::EngineKind engine,
                         std::size_t rwl, std::size_t hc, DurationMicros window,
                         std::uint64_t seed);

}  // namespace atum::scenario
