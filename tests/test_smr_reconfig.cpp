// Tests for epoch-based SMR reconfiguration: membership changes through the
// agreement path, op carry-over across epochs, and member retirement.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/keys.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "smr/reconfig.h"

namespace atum::smr {
namespace {

Bytes op_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

struct ReconfigHarness {
  sim::Simulator sim;
  net::SimNetwork net{sim, net::NetworkConfig::datacenter(), 31};
  crypto::KeyStore keys{13};
  EngineOptions opt;
  std::map<NodeId, std::unique_ptr<ReconfigurableSmr>> nodes;
  std::map<NodeId, std::vector<std::pair<NodeId, Bytes>>> decided;
  std::map<NodeId, std::vector<std::uint64_t>> epochs_seen;

  explicit ReconfigHarness(EngineKind kind) {
    opt.kind = kind;
    opt.ds.round_duration = millis(20);
    opt.pbft.view_change_timeout = millis(500);
  }

  void add_node(NodeId n, const GroupConfig& cfg,
                std::optional<EpochState> resume = std::nullopt) {
    auto r = std::make_unique<ReconfigurableSmr>(net, n, cfg, keys, opt, std::move(resume));
    r->set_decide_handler([this, n](std::uint64_t, NodeId origin, const net::Payload& op) {
      decided[n].emplace_back(origin, op.to_bytes());
    });
    r->set_config_handler(
        [this, n](std::uint64_t epoch, const GroupConfig&) { epochs_seen[n].push_back(epoch); });
    nodes[n] = std::move(r);
  }

  void run_for(DurationMicros d) { sim.run_until(sim.now() + d); }
};

GroupConfig members(std::initializer_list<NodeId> ns) {
  GroupConfig c;
  c.members = ns;
  c.normalize();
  return c;
}

class ReconfigBothEngines : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ReconfigBothEngines, AppOpsDecideNormally) {
  ReconfigHarness h(GetParam());
  auto cfg = members({0, 1, 2, 3});
  for (NodeId n : cfg.members) h.add_node(n, cfg);
  h.nodes[0]->propose(op_bytes("plain"));
  h.run_for(seconds(5));
  for (NodeId n : cfg.members) {
    ASSERT_EQ(h.decided[n].size(), 1u) << "node " << n;
    EXPECT_EQ(h.decided[n][0].second, op_bytes("plain"));
  }
}

TEST_P(ReconfigBothEngines, ReconfigSwitchesEpochAndMembership) {
  // A swap of one member for another is two ops, one epoch each.
  ReconfigHarness h(GetParam());
  auto cfg = members({0, 1, 2, 3});
  for (NodeId n : cfg.members) h.add_node(n, cfg);
  h.nodes[1]->propose_add(4);
  h.run_for(seconds(5));
  h.nodes[1]->propose_remove(3);
  h.run_for(seconds(5));
  auto next = members({0, 1, 2, 4});
  for (NodeId n : {0u, 1u, 2u}) {
    EXPECT_EQ(h.epochs_seen[n], (std::vector<std::uint64_t>{1, 2})) << "node " << n;
    EXPECT_EQ(h.nodes[n]->config().members, next.members);
    EXPECT_TRUE(h.nodes[n]->active());
  }
  EXPECT_FALSE(h.nodes[3]->active());
}

// The lost update: a change decided after another one must not undo it,
// whichever of the two is decided first.
TEST_P(ReconfigBothEngines, ConcurrentAddAndRemoveBothApply) {
  ReconfigHarness h(GetParam());
  auto cfg = members({0, 1, 2, 3, 4});
  for (NodeId n : cfg.members) h.add_node(n, cfg);
  h.nodes[0]->propose_remove(4);
  h.nodes[1]->propose_add(5);
  h.run_for(seconds(10));
  auto want = members({0, 1, 2, 3, 5});
  for (NodeId n : {0u, 1u, 2u, 3u}) {
    EXPECT_EQ(h.nodes[n]->config().members, want.members) << "node " << n;
    EXPECT_EQ(h.nodes[n]->epoch(), 2u) << "node " << n;
  }
  EXPECT_FALSE(h.nodes[4]->active());
}

TEST_P(ReconfigBothEngines, RemovedMemberBecomesInactive) {
  ReconfigHarness h(GetParam());
  auto cfg = members({0, 1, 2, 3});
  for (NodeId n : cfg.members) h.add_node(n, cfg);
  h.nodes[0]->propose_remove(3);
  h.run_for(seconds(5));
  EXPECT_FALSE(h.nodes[3]->active());
  EXPECT_TRUE(h.nodes[0]->active());
}

TEST_P(ReconfigBothEngines, NewEpochKeepsDeciding) {
  ReconfigHarness h(GetParam());
  auto cfg = members({0, 1, 2, 3});
  for (NodeId n : cfg.members) h.add_node(n, cfg);
  h.nodes[0]->propose_remove(3);
  h.run_for(seconds(5));
  ASSERT_EQ(h.nodes[0]->epoch(), 1u);
  h.nodes[1]->propose(op_bytes("after-epoch"));
  h.run_for(seconds(5));
  for (NodeId n : {0u, 1u, 2u}) {
    ASSERT_FALSE(h.decided[n].empty()) << "node " << n;
    EXPECT_EQ(h.decided[n].back().second, op_bytes("after-epoch"));
  }
}

TEST_P(ReconfigBothEngines, InFlightOpSurvivesReconfig) {
  // An op proposed around the same time as a reconfiguration must not be
  // lost: the wrapper re-proposes unacked ops into the new epoch.
  ReconfigHarness h(GetParam());
  auto cfg = members({0, 1, 2, 3});
  for (NodeId n : cfg.members) h.add_node(n, cfg);
  h.nodes[0]->propose_remove(3);
  h.nodes[1]->propose(op_bytes("must-survive"));
  h.run_for(seconds(10));
  for (NodeId n : {0u, 1u, 2u}) {
    int count = 0;
    for (const auto& [origin, op] : h.decided[n]) count += (op == op_bytes("must-survive"));
    EXPECT_EQ(count, 1) << "node " << n << " lost or duplicated the in-flight op";
  }
}

TEST_P(ReconfigBothEngines, GrowingTheGroupActivatesNewMember) {
  ReconfigHarness h(GetParam());
  auto cfg = members({0, 1, 2});
  for (NodeId n : cfg.members) h.add_node(n, cfg);
  auto next = members({0, 1, 2, 5});
  h.nodes[2]->propose_add(5);
  h.run_for(seconds(5));
  ASSERT_EQ(h.nodes[0]->config().members, next.members);
  // The group layer creates the new member's replica once the config lands,
  // handing it the chain position from the join snapshot — without it the
  // joiner's instance tag would not match the group's epoch-1 instance.
  h.add_node(5, next, EpochState{h.nodes[0]->epoch(), h.nodes[0]->epoch_hash()});
  h.nodes[5]->propose(op_bytes("from-new-member"));
  h.run_for(seconds(5));
  for (NodeId n : {0u, 1u, 2u, 5u}) {
    ASSERT_FALSE(h.decided[n].empty()) << "node " << n;
    EXPECT_EQ(h.decided[n].back().second, op_bytes("from-new-member"));
  }
}

TEST_P(ReconfigBothEngines, SequentialReconfigs) {
  ReconfigHarness h(GetParam());
  auto cfg = members({0, 1, 2, 3});
  for (NodeId n : cfg.members) h.add_node(n, cfg);
  h.nodes[0]->propose_remove(3);
  h.run_for(seconds(5));
  ASSERT_EQ(h.nodes[0]->epoch(), 1u);
  h.nodes[0]->propose_remove(2);
  h.run_for(seconds(5));
  EXPECT_EQ(h.nodes[0]->epoch(), 2u);
  EXPECT_EQ(h.nodes[0]->config().members, members({0, 1}).members);
  EXPECT_FALSE(h.nodes[2]->active());
}

TEST_P(ReconfigBothEngines, RemovingTheOnlyMemberRefused) {
  ReconfigHarness h(GetParam());
  auto cfg = members({0});
  h.add_node(0, cfg);
  h.nodes[0]->propose_remove(0);
  h.run_for(seconds(5));
  EXPECT_EQ(h.nodes[0]->epoch(), 0u);
  EXPECT_TRUE(h.nodes[0]->active());
  EXPECT_EQ(h.nodes[0]->config().members, cfg.members);
}

TEST_P(ReconfigBothEngines, NoOpChangesKeepTheEpoch) {
  // Adding a member or removing a non-member changes nothing: no epoch
  // step and no slot in the decided sequence.
  ReconfigHarness h(GetParam());
  auto cfg = members({0, 1, 2, 3});
  for (NodeId n : cfg.members) h.add_node(n, cfg);
  h.nodes[0]->propose_add(2);
  h.nodes[1]->propose_remove(9);
  h.run_for(seconds(5));
  for (NodeId n : cfg.members) {
    EXPECT_EQ(h.nodes[n]->epoch(), 0u) << "node " << n;
    EXPECT_EQ(h.nodes[n]->decided_count(), 0u) << "node " << n;
    EXPECT_EQ(h.nodes[n]->config().members, cfg.members) << "node " << n;
  }
}

TEST(ConfigOpCodec, RoundTrip) {
  for (auto kind : {ConfigChange::Kind::kAdd, ConfigChange::Kind::kRemove}) {
    ConfigChange change{kind, 0x0123456789abcdefULL};
    Bytes wire = encode_config_op(change);
    EXPECT_EQ(wire.size(), 10u);  // tag, kind, node
    EXPECT_EQ(decode_config_op(net::Payload(wire)), change);
  }
}

TEST(ConfigOpCodec, MalformedOpsDecodeToNothing) {
  const Bytes good = encode_config_op({ConfigChange::Kind::kRemove, 7});
  Bytes unknown_kind = good;
  unknown_kind[1] = 2;
  Bytes trailing = good;
  trailing.push_back(0);
  EXPECT_EQ(decode_config_op(net::Payload(unknown_kind)), std::nullopt);
  EXPECT_EQ(decode_config_op(net::Payload(trailing)), std::nullopt);
  for (std::size_t len = 0; len < good.size(); ++len) {
    Bytes truncated(good.begin(), good.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_EQ(decode_config_op(net::Payload(truncated)), std::nullopt) << "length " << len;
  }
  Bytes app_tag = good;
  app_tag[0] = 0;  // an application op is not a config op
  EXPECT_EQ(decode_config_op(net::Payload(app_tag)), std::nullopt);
}

INSTANTIATE_TEST_SUITE_P(Engines, ReconfigBothEngines,
                         ::testing::Values(EngineKind::kSync, EngineKind::kAsync),
                         [](const ::testing::TestParamInfo<EngineKind>& info) {
                           return info.param == EngineKind::kSync ? "Sync" : "Async";
                         });

}  // namespace
}  // namespace atum::smr
