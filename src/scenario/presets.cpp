#include "scenario/presets.h"

#include <stdexcept>

namespace atum::scenario {

namespace {

// Expectation builder (aggregate init would need every field spelled out
// under -Werror=missing-field-initializers).
Expectation expect_delivery(std::string phase, double min_ratio) {
  Expectation e;
  e.phase = std::move(phase);
  e.min_delivery_ratio = min_ratio;
  return e;
}

Expectation expect_joins(std::string phase, double min_ratio) {
  Expectation e;
  e.phase = std::move(phase);
  e.min_join_ratio = min_ratio;
  return e;
}

Expectation expect_recovery(std::string phase, std::string at_least_phase, double min_ratio) {
  Expectation e;
  e.phase = std::move(phase);
  e.min_delivery_ratio = min_ratio;
  e.at_least_phase = std::move(at_least_phase);
  return e;
}

// Shared baseline for the 10k-node presets: async engine (PBFT is
// quiescent between requests, so big systems simulate fast), relays
// restricted to two H-graph cycles (deterministic ring coverage on cycle 0
// plus one redundant cycle to route around failures without flood volume),
// HMAC verification off (scenario runs probe protocol dynamics, not MACs).
ScenarioSpec base_spec(const std::string& name, std::size_t nodes, std::uint64_t seed) {
  ScenarioSpec s;
  s.name = name;
  s.nodes = nodes;
  s.seed = seed;
  s.params.hc = 3;
  s.params.rwl = 6;
  s.params.gmin = 7;
  s.params.gmax = 14;
  s.params.engine = smr::EngineKind::kAsync;
  s.params.heartbeat_period = seconds(10.0);
  s.params.verify_signatures = false;
  s.relay_cycles = {0, 1};
  s.drain = seconds(45.0);
  return s;
}

ScenarioSpec flash_crowd(std::size_t nodes, std::uint64_t seed) {
  ScenarioSpec s = base_spec("flash_crowd", nodes, seed);
  Phase warmup;
  warmup.name = "warmup";
  warmup.duration = seconds(30.0);
  warmup.broadcasts.per_second = 0.2;
  Phase flash;
  flash.name = "flash";
  flash.duration = seconds(120.0);
  flash.flash_joiners = nodes / 5;  // +20% population in two minutes (Fig 6)
  flash.broadcasts.per_second = 0.2;
  Phase steady;
  steady.name = "steady";
  steady.duration = seconds(60.0);
  steady.broadcasts.per_second = 0.2;
  s.phases = {warmup, flash, steady};
  s.expectations = {
      expect_delivery("warmup", 0.95),
      expect_joins("flash", 0.90),
      expect_delivery("steady", 0.95),
  };
  return s;
}

ScenarioSpec diurnal_churn(std::size_t nodes, std::uint64_t seed) {
  ScenarioSpec s = base_spec("diurnal_churn", nodes, seed);
  const double day_rate = static_cast<double>(nodes) * 0.02;    // 2%/min (Fig 7 territory)
  const double night_rate = static_cast<double>(nodes) * 0.002; // 0.2%/min
  auto phase = [&](const char* name, double rate) {
    Phase p;
    p.name = name;
    p.duration = seconds(120.0);
    p.churn.joins_per_minute = rate;
    p.churn.leaves_per_minute = rate;
    p.broadcasts.per_second = 0.2;
    return p;
  };
  s.phases = {phase("day", day_rate), phase("night", night_rate), phase("day2", day_rate)};
  s.expectations = {
      expect_delivery("day", 0.90),
      expect_joins("day", 0.90),
      expect_delivery("night", 0.95),
      expect_delivery("day2", 0.90),
      expect_joins("day2", 0.90),
  };
  return s;
}

ScenarioSpec partition_heal(std::size_t nodes, std::uint64_t seed) {
  ScenarioSpec s = base_spec("partition_heal", nodes, seed);
  Phase baseline;
  baseline.name = "baseline";
  baseline.duration = seconds(60.0);
  baseline.broadcasts.per_second = 0.25;
  Phase partition;
  partition.name = "partition";
  partition.duration = seconds(90.0);
  PartitionSplit split;
  split.minority_fraction = 0.30;
  partition.partition = split;
  partition.broadcasts.per_second = 0.25;
  Phase heal;
  heal.name = "heal";
  heal.duration = seconds(90.0);
  heal.heal = true;
  heal.broadcasts.per_second = 0.25;
  s.phases = {baseline, partition, heal};
  s.expectations = {
      expect_delivery("baseline", 0.95),
      // The acceptance criterion: delivery recovers to pre-partition levels.
      expect_recovery("heal", "baseline", 0.95),
  };
  return s;
}

ScenarioSpec correlated_group_failure(std::size_t nodes, std::uint64_t seed) {
  ScenarioSpec s = base_spec("correlated_group_failure", nodes, seed);
  Phase baseline;
  baseline.name = "baseline";
  baseline.duration = seconds(45.0);
  baseline.broadcasts.per_second = 0.25;
  Phase failure;
  failure.name = "failure";
  failure.duration = seconds(90.0);
  // ~1% of the vgroups crash wholesale (a rack dies); survivors must route
  // gossip around the dead ring arcs via the redundant cycle.
  failure.kill_groups = std::max<std::size_t>(2, nodes / 1000);
  failure.broadcasts.per_second = 0.25;
  s.phases = {baseline, failure};
  s.expectations = {
      expect_delivery("baseline", 0.95),
      expect_delivery("failure", 0.90),
  };
  return s;
}

ScenarioSpec byzantine_storm(std::size_t nodes, std::uint64_t seed) {
  ScenarioSpec s = base_spec("byzantine_storm", nodes, seed);
  Phase calm;
  calm.name = "calm";
  calm.duration = seconds(45.0);
  calm.broadcasts.per_second = 0.25;
  Phase storm;
  storm.name = "storm";
  storm.duration = seconds(120.0);
  // 15% of the correct population converts to the heartbeating evictor
  // (§6.1.3) mid-run: protocol-silent, never evicted, poisoning its vgroup.
  MakeByzantine conv;
  conv.fraction = 0.15;
  conv.behavior = core::NodeBehavior::kByzantineEvictor;
  storm.byzantine = conv;
  storm.broadcasts.per_second = 0.25;
  s.phases = {calm, storm};
  s.expectations = {
      expect_delivery("calm", 0.95),
      expect_delivery("storm", 0.80),
  };
  return s;
}

// The checkpoint soak: sustained churn with two partition/heal rounds, long
// enough that every vgroup instance crosses several checkpoint boundaries
// (checkpoint_interval is shrunk to 2 so even short-lived epochs do). The
// distinctive expectation is max_forced_leaves = 0 in every phase: with the
// f+1 removal-notice path closing the leave-confirmation gap, no leaver —
// not even one announcing from the minority side of a cut — should ever
// need the scenario driver's force-stop fallback.
ScenarioSpec long_haul_churn(std::size_t nodes, std::uint64_t seed) {
  ScenarioSpec s = base_spec("long_haul_churn", nodes, seed);
  s.params.checkpoint_interval = 2;
  const double churn_rate = static_cast<double>(nodes) * 0.01;  // 1%/min
  auto churn_phase = [&](const char* name) {
    Phase p;
    p.name = name;
    p.duration = seconds(120.0);
    p.churn.joins_per_minute = churn_rate;
    p.churn.leaves_per_minute = churn_rate;
    p.broadcasts.per_second = 0.2;
    return p;
  };
  Phase soak = churn_phase("soak");
  Phase cut1 = churn_phase("cut1");
  PartitionSplit split;
  split.minority_fraction = 0.25;
  cut1.partition = split;
  Phase heal1 = churn_phase("heal1");
  heal1.heal = true;
  Phase cut2 = churn_phase("cut2");
  cut2.partition = split;
  Phase heal2 = churn_phase("heal2");
  heal2.heal = true;
  s.phases = {soak, cut1, heal1, cut2, heal2};

  auto no_forced = [](const char* phase) {
    Expectation e;
    e.phase = phase;
    e.max_forced_leaves = 0;
    return e;
  };
  s.expectations = {
      expect_delivery("soak", 0.90),
      expect_joins("soak", 0.90),
      // The acceptance criterion after each cut: delivery recovers to the
      // pre-partition level, and churn keeps completing.
      expect_recovery("heal1", "soak", 0.90),
      expect_recovery("heal2", "soak", 0.90),
      expect_joins("heal2", 0.85),
      no_forced("soak"),
      no_forced("cut1"),
      no_forced("heal1"),
      no_forced("cut2"),
      no_forced("heal2"),
  };
  return s;
}

ScenarioSpec stream_under_churn(std::size_t nodes, std::uint64_t seed) {
  ScenarioSpec s = base_spec("stream_under_churn", nodes, seed);
  Phase stream;
  stream.name = "stream";
  stream.duration = seconds(120.0);
  stream.stream.chunks_per_second = 0.5;
  stream.stream.chunk_bytes = 4096;
  stream.stream.store_window = 64;  // bounded per-node chunk store
  stream.churn.joins_per_minute = static_cast<double>(nodes) * 0.01;
  stream.churn.leaves_per_minute = static_cast<double>(nodes) * 0.01;
  stream.broadcasts.per_second = 0.1;
  s.phases = {stream};
  Expectation stream_exp = expect_delivery("stream", 0.90);
  stream_exp.min_stream_ratio = 0.90;
  s.expectations = {stream_exp};
  return s;
}

// The node-level soak: three heartbeat periods of silence, a handful of
// broadcasts that must reach every node, then joins and leaves that must
// all complete without the force-stop fallback. "Nobody is evicted before
// the first fault", the arena bound and the digest-cache bound are run
// invariants ScenarioDriver::check applies to every spec.
ScenarioSpec soak(std::size_t nodes, std::uint64_t seed) {
  ScenarioSpec s = base_spec("soak", nodes, seed);
  s.params.heartbeat_period = seconds(5.0);
  s.relay_cycles = {0};  // the deterministic ring: path coverage, not flood volume
  // With the digest memo soak computes about 3500 + 2.8 * nodes digests
  // against about 1180 * nodes messages (0.024 per message at 100 nodes,
  // 0.0043 at 1500, 0.0025 at 20000); without it about 19000 + 41 * nodes
  // (0.134, 0.045, 0.036). One digest per 100 messages plus 4096 splits
  // the two at every size.
  s.digest_bound = {100, 4096};
  Phase beat;
  beat.name = "beat";
  beat.duration = 3 * s.params.heartbeat_period;
  Phase bcast;
  bcast.name = "bcast";
  bcast.duration = seconds(80.0);
  bcast.broadcasts.per_second = 0.05;  // 3 broadcasts, each settles before churn starts
  Phase churn;
  churn.name = "churn";
  churn.duration = seconds(480.0);
  churn.churn.joins_per_minute = 2.0;
  churn.churn.leaves_per_minute = 2.0;
  s.phases = {beat, bcast, churn};
  Expectation churn_exp = expect_joins("churn", 1.0);
  churn_exp.max_forced_leaves = 0;
  s.expectations = {expect_delivery("bcast", 1.0), churn_exp};
  return s;
}

struct PresetEntry {
  PresetInfo info;
  ScenarioSpec (*make)(std::size_t nodes, std::uint64_t seed);
  std::uint64_t default_seed;
};

const std::vector<PresetEntry>& registry() {
  static const std::vector<PresetEntry> kPresets = {
      {{"flash_crowd", "Fig 6 growth burst: +20% joiners in 2 min under broadcast load",
        10'000},
       &flash_crowd,
       0xF1A5ULL},
      {{"diurnal_churn", "day/night/day churn cycle (2%/min vs 0.2%/min) under broadcast load",
        10'000},
       &diurnal_churn,
       0xD147ULL},
      {{"partition_heal", "30% of vgroups partitioned away for 90 s, then healed", 10'000},
       &partition_heal,
       0x9A47ULL},
      {{"correlated_group_failure", "~1% of vgroups crash wholesale; survivors re-route",
        10'000},
       &correlated_group_failure,
       0xC0FAULL},
      {{"byzantine_storm", "15% of correct nodes turn Byzantine evictor mid-run", 10'000},
       &byzantine_storm,
       0xB2575ULL},
      {{"stream_under_churn", "AStream source at 0.5 chunk/s while 1%/min churns", 2'000},
       &stream_under_churn,
       0x57EAULL},
      {{"long_haul_churn",
        "checkpoint soak: 1%/min churn + two partition/heal rounds, zero forced leaves",
        10'000},
       &long_haul_churn,
       0x10A617ULL},
      {{"soak", "heartbeats, broadcasts delivered everywhere, then 2/min joins and leaves",
        10'000},
       &soak,
       0xA70AULL},
  };
  return kPresets;
}

}  // namespace

std::vector<PresetInfo> preset_list() {
  std::vector<PresetInfo> out;
  for (const PresetEntry& e : registry()) out.push_back(e.info);
  return out;
}

ScenarioSpec make_preset(const std::string& name, std::size_t nodes, std::uint64_t seed) {
  for (const PresetEntry& e : registry()) {
    if (e.info.name == name) {
      return e.make(nodes == 0 ? e.info.default_nodes : nodes,
                    seed == 0 ? e.default_seed : seed);
    }
  }
  throw std::invalid_argument("unknown scenario preset '" + name + "'");
}

ScenarioSpec churn_probe(std::size_t nodes, double per_minute, smr::EngineKind engine,
                         std::size_t rwl, std::size_t hc, DurationMicros window,
                         std::uint64_t seed) {
  ScenarioSpec s;
  s.name = "churn_probe";
  s.nodes = nodes;
  s.seed = seed;
  s.params.hc = hc;
  s.params.rwl = rwl;
  s.params.gmin = 7;
  s.params.gmax = 14;
  s.params.engine = engine;
  s.params.round_duration = seconds(1.0);
  // Fig 7 probes churn throughput, not failure detection; keep heartbeats
  // out of the way.
  s.params.heartbeat_period = seconds(600.0);
  s.params.verify_signatures = false;
  s.relay_cycles = {0};
  s.drain = seconds(90.0);  // same settle window the hand-coded bench used
  Phase churn;
  churn.name = "churn";
  churn.duration = window;
  churn.churn.joins_per_minute = per_minute;
  churn.churn.leaves_per_minute = per_minute;
  s.phases = {churn};
  return s;
}

}  // namespace atum::scenario
