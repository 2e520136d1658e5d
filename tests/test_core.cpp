// Tests for the Atum core middleware: deployment, the §3.3 API (bootstrap,
// join, leave, broadcast), heartbeat eviction, Byzantine behaviors from the
// evaluation, and the Table 1 parameter helpers.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/atum.h"
#include "core/params.h"

namespace atum::core {
namespace {

Params fast_params(smr::EngineKind kind = smr::EngineKind::kSync) {
  Params p;
  p.hc = 3;
  p.rwl = 5;
  p.gmax = 8;
  p.gmin = 4;
  p.engine = kind;
  p.round_duration = millis(20);
  p.view_change_timeout = millis(500);
  p.heartbeat_period = millis(200);
  p.heartbeat_miss_limit = 3;
  return p;
}

Bytes msg(const std::string& s) { return Bytes(s.begin(), s.end()); }

// ---------------------------------------------------------------------------
// Params / guideline
// ---------------------------------------------------------------------------

TEST(Params, DefaultsValidate) {
  Params p;
  EXPECT_NO_THROW(p.validate());
}

TEST(Params, RejectsBadValues) {
  Params p;
  p.gmin = p.gmax;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = Params{};
  p.hc = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = Params{};
  p.rwl = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = Params{};
  p.round_duration = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Params, GuidelineMonotoneInGroups) {
  EXPECT_LE(guideline_rwl(8, 5), guideline_rwl(8192, 5));
  EXPECT_LE(guideline_rwl(32, 5), guideline_rwl(2048, 5));
}

TEST(Params, GuidelineMonotoneInCycles) {
  EXPECT_GE(guideline_rwl(512, 2), guideline_rwl(512, 10));
}

TEST(Params, GuidelinePaperAnchor) {
  // §3.2: "in a system of roughly 128 vgroups, we set rwl to 9 and hc to 6".
  std::size_t rwl = guideline_rwl(128, 6);
  EXPECT_GE(rwl, 8u);
  EXPECT_LE(rwl, 10u);
}

TEST(Params, TargetGroupSizeLogarithmic) {
  EXPECT_EQ(target_group_size(1024, 4), 40u);  // 4 * log2(1024)
  EXPECT_GT(target_group_size(10000, 4), target_group_size(100, 4));
}

TEST(Params, RecommendedIsConsistent) {
  for (std::size_t n : {50u, 200u, 1000u, 5000u}) {
    Params sync = Params::recommended(n, smr::EngineKind::kSync);
    EXPECT_NO_THROW(sync.validate());
    Params async = Params::recommended(n, smr::EngineKind::kAsync);
    EXPECT_NO_THROW(async.validate());
    // k=7 vs k=4 (§6.1.3): async groups are larger.
    EXPECT_GT(async.gmax, sync.gmax);
  }
}

// ---------------------------------------------------------------------------
// Deployment & broadcast
// ---------------------------------------------------------------------------

struct CoreFixture : ::testing::Test {
  std::unique_ptr<AtumSystem> sys;
  std::map<NodeId, std::vector<net::Payload>> delivered;

  void deploy(std::size_t n, Params p = fast_params(),
              const std::map<NodeId, NodeBehavior>& behaviors = {}) {
    sys = std::make_unique<AtumSystem>(p, net::NetworkConfig::datacenter(), 2024);
    std::vector<NodeId> ids;
    for (NodeId i = 0; i < n; ++i) {
      ids.push_back(i);
      auto it = behaviors.find(i);
      auto& node = sys->add_node(i, it == behaviors.end() ? NodeBehavior::kCorrect : it->second);
      node.set_deliver([this, i](NodeId, const net::Payload& payload) {
        delivered[i].push_back(payload);
      });
    }
    sys->deploy(ids);
  }

  void run_for(DurationMicros d) {
    sys->simulator().run_until(sys->simulator().now() + d);
  }

  std::size_t nodes_with(const Bytes& payload) {
    std::size_t count = 0;
    for (const auto& [n, msgs] : delivered) {
      for (const auto& m : msgs) count += (m == payload);
    }
    return count;
  }
};

TEST_F(CoreFixture, DeployPartitionsIntoBoundedGroups) {
  deploy(30);
  auto groups = sys->group_map();
  EXPECT_GT(groups.size(), 1u);
  std::size_t total = 0;
  for (const auto& [g, members] : groups) {
    EXPECT_GE(members.size(), fast_params().gmin);
    EXPECT_LE(members.size(), fast_params().gmax);
    total += members.size();
  }
  EXPECT_EQ(total, 30u);
}

TEST_F(CoreFixture, DeployedNodesAgreeOnGroupViews) {
  deploy(24);
  auto groups = sys->group_map();
  for (const auto& [g, members] : groups) {
    for (NodeId n : members) {
      EXPECT_EQ(sys->node(n).vgroup().members(), members);
      EXPECT_EQ(sys->node(n).group_id(), g);
    }
  }
}

TEST_F(CoreFixture, BroadcastReachesEveryNode) {
  deploy(24);
  sys->node(0).broadcast(msg("hello-world"));
  run_for(seconds(20));
  EXPECT_EQ(nodes_with(msg("hello-world")), 24u);
}

TEST_F(CoreFixture, BroadcastDeliveredExactlyOnce) {
  deploy(18);
  sys->node(3).broadcast(msg("once"));
  run_for(seconds(20));
  for (const auto& [n, msgs] : delivered) {
    int count = 0;
    for (const auto& m : msgs) count += (m == msg("once"));
    EXPECT_EQ(count, 1) << "node " << n;
  }
}

TEST_F(CoreFixture, FanOutMaterializesFewBuffersAcrossNodes) {
  // Zero-copy invariant, end to end: members of the origin's vgroup each
  // materialize the decided op once (per-node buffers), while members of
  // neighbor vgroups receive slices of the relayers' wire frames — a
  // majority of relayers freeze one frame each, shared by every recipient.
  // So the number of distinct backing buffers across all deliveries is
  // bounded by origin-group size + full-relayer count, strictly below the
  // node count.
  deploy(15);
  sys->node(0).broadcast(Bytes(512, 0xAB));
  run_for(seconds(20));
  std::set<const void*> buffers;
  std::size_t total = 0;
  for (const auto& [n, msgs] : delivered) {
    for (const net::Payload& p : msgs) {
      buffers.insert(p.data());
      ++total;
    }
  }
  EXPECT_EQ(total, 15u);
  EXPECT_LT(buffers.size(), total);
}

TEST_F(CoreFixture, RelayIntoOverlappingNeighborGroupsSendsOneFramePerDestination) {
  // Two vgroups are each other's successor and predecessor on every cycle,
  // so a relay names every member of the other group once per cycle (hc
  // times). Each physical destination must still get exactly one frame.
  deploy(10);
  const auto groups = sys->group_map();
  ASSERT_EQ(groups.size(), 2u);
  const std::vector<NodeId>& origin_group = groups.begin()->second;
  const GroupId other_id = std::next(groups.begin())->first;
  const std::vector<NodeId>& other_group = std::next(groups.begin())->second;
  const auto refs = sys->node(origin_group.front()).vgroup().neighbor_refs();
  ASSERT_EQ(refs.size(), fast_params().hc);
  for (const auto& ref : refs) ASSERT_EQ(ref.group, other_id);

  // The other group's members only count the frames they receive.
  std::map<std::pair<NodeId, NodeId>, int> frames;  // (sender, receiver) -> frames
  for (NodeId n : other_group) {
    for (net::MsgType type : {net::MsgType::kGroupMsgFull, net::MsgType::kGroupMsgDigest}) {
      sys->network().attach(n, type,
                            [&frames](const net::Message& m) { ++frames[{m.from, m.to}]; });
    }
  }
  sys->node(origin_group.front()).broadcast(msg("overlap"));
  run_for(seconds(20));
  EXPECT_EQ(frames.size(), origin_group.size() * other_group.size());
  for (const auto& [link, count] : frames) {
    EXPECT_EQ(count, 1) << link.first << " -> " << link.second;
  }
}

TEST(CoreFanout, GroupFramesLeaveAfterTheSameInstantsDirectSends) {
  // Zero jitter and free ingress: a sender's messages arrive in the order
  // they took its egress, spaced by their serialization times.
  net::NetworkConfig cfg = net::NetworkConfig::datacenter();
  cfg.jitter_mean = 0;
  cfg.ingress_bytes_per_sec = 1e15;
  cfg.per_message_cpu = 0;
  AtumSystem sys(fast_params(smr::EngineKind::kAsync), cfg, 31);
  std::vector<NodeId> ids;
  for (NodeId i = 0; i < 16; ++i) ids.push_back(i);
  for (NodeId i : ids) sys.add_node(i);
  sys.deploy(ids);

  // An observer outside the system timestamps node 0's direct messages.
  constexpr NodeId kObserver = 1000;
  std::vector<TimeMicros> arrivals;
  sys.network().attach(kObserver, [&](const net::Message& m) {
    if (m.from == 0) arrivals.push_back(sys.simulator().now());
  });
  // Node 0 sends one direct message from inside each delivery callback,
  // which runs just before that broadcast's relay fan-out.
  net::Transport direct(sys.network(), 0);
  std::vector<TimeMicros> sent_at;
  sys.node(0).set_deliver([&](NodeId, const net::Payload&) {
    sent_at.push_back(sys.simulator().now());
    direct.send(kObserver, net::MsgType::kAppData, Bytes{1});
  });
  // Two broadcasts proposed in one instant share one PBFT batch, so node 0
  // delivers both, and relays the first, within one event.
  sys.node(0).broadcast(Bytes(4096, 0xA1));
  sys.node(0).broadcast(Bytes(4096, 0xA2));
  sys.simulator().run_until(seconds(20));
  ASSERT_EQ(sent_at.size(), 2u);
  ASSERT_EQ(sent_at[0], sent_at[1]);
  ASSERT_EQ(arrivals.size(), 2u);
  // The second direct message left right behind the first: the first
  // broadcast's relay frames did not take the egress in between.
  const auto direct_egress = static_cast<DurationMicros>(
      static_cast<double>(1 + net::Message::kHeaderOverhead) / cfg.egress_bytes_per_sec *
      kMicrosPerSecond);
  EXPECT_EQ(arrivals[1] - arrivals[0], direct_egress);
}

TEST_F(CoreFixture, ManyBroadcastersAllDeliver) {
  deploy(18);
  for (NodeId n = 0; n < 6; ++n) sys->node(n).broadcast(msg("m" + std::to_string(n)));
  run_for(seconds(30));
  for (NodeId b = 0; b < 6; ++b) {
    EXPECT_EQ(nodes_with(msg("m" + std::to_string(b))), 18u) << "broadcast " << b;
  }
}

TEST_F(CoreFixture, AsyncEngineBroadcastWorks) {
  deploy(18, fast_params(smr::EngineKind::kAsync));
  sys->node(0).broadcast(msg("async-hello"));
  run_for(seconds(20));
  EXPECT_EQ(nodes_with(msg("async-hello")), 18u);
}

TEST_F(CoreFixture, AsyncIsFasterThanSync) {
  // §6.1.3: Async latencies are much lower (no lock-step rounds).
  auto measure = [&](smr::EngineKind kind) {
    delivered.clear();
    deploy(18, fast_params(kind));
    TimeMicros start = sys->simulator().now();
    sys->node(0).broadcast(msg("timed"));
    while (nodes_with(msg("timed")) < 18 && sys->simulator().now() < start + seconds(60)) {
      sys->simulator().run_until(sys->simulator().now() + millis(10));
    }
    return sys->simulator().now() - start;
  };
  DurationMicros async_lat = measure(smr::EngineKind::kAsync);
  DurationMicros sync_lat = measure(smr::EngineKind::kSync);
  EXPECT_LT(async_lat, sync_lat);
}

TEST_F(CoreFixture, SingleCycleForwardStillDelivers) {
  deploy(24);
  for (NodeId i = 0; i < 24; ++i) {
    sys->node(i).set_forward(overlay::forward_cycles({0}));
  }
  sys->node(1).broadcast(msg("single-cycle"));
  run_for(seconds(60));
  EXPECT_EQ(nodes_with(msg("single-cycle")), 24u);
}

TEST_F(CoreFixture, ForwardNoneStillDeliversViaMandatoryLink) {
  // The unwise forward callback cannot break the deterministic cycle-0 path.
  deploy(18);
  for (NodeId i = 0; i < 18; ++i) sys->node(i).set_forward(overlay::forward_none());
  sys->node(2).broadcast(msg("mandatory"));
  run_for(seconds(120));
  EXPECT_EQ(nodes_with(msg("mandatory")), 18u);
}

// ---------------------------------------------------------------------------
// Bootstrap & join & leave
// ---------------------------------------------------------------------------

TEST_F(CoreFixture, BootstrapSingleNode) {
  sys = std::make_unique<AtumSystem>(fast_params(), net::NetworkConfig::datacenter(), 1);
  auto& n = sys->add_node(0);
  n.bootstrap();
  EXPECT_TRUE(n.joined());
  EXPECT_EQ(n.vgroup().members(), std::vector<NodeId>{0});
}

TEST_F(CoreFixture, JoinGrowsSingletonSystem) {
  sys = std::make_unique<AtumSystem>(fast_params(), net::NetworkConfig::datacenter(), 2);
  sys->add_node(0).bootstrap();
  auto& j = sys->add_node(1);
  j.join(0);
  run_for(seconds(30));
  ASSERT_TRUE(j.joined());
  EXPECT_EQ(j.vgroup().members(), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(sys->node(0).vgroup().members(), (std::vector<NodeId>{0, 1}));
}

TEST_F(CoreFixture, SequentialJoinsAllLand) {
  sys = std::make_unique<AtumSystem>(fast_params(), net::NetworkConfig::datacenter(), 3);
  sys->add_node(0).bootstrap();
  for (NodeId n = 1; n <= 6; ++n) {
    sys->add_node(n).join(n - 1);  // each joins via the previous node
    run_for(seconds(40));
    ASSERT_TRUE(sys->node(n).joined()) << "node " << n;
  }
  // All six in one group (below gmax=8), with consistent views.
  auto groups = sys->group_map();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups.begin()->second.size(), 7u);
}

TEST_F(CoreFixture, JoinedNodeReceivesLaterBroadcasts) {
  sys = std::make_unique<AtumSystem>(fast_params(), net::NetworkConfig::datacenter(), 4);
  sys->add_node(0).bootstrap();
  auto& j = sys->add_node(1);
  j.set_deliver([this](NodeId, const net::Payload& p) { delivered[1].push_back(p); });
  j.join(0);
  run_for(seconds(30));
  ASSERT_TRUE(j.joined());
  sys->node(0).broadcast(msg("to-the-newcomer"));
  run_for(seconds(20));
  EXPECT_EQ(delivered[1].size(), 1u);
}

TEST_F(CoreFixture, JoinIntoDeployedSystem) {
  deploy(12);
  auto& j = sys->add_node(100);
  j.join(0);
  run_for(seconds(60));
  ASSERT_TRUE(j.joined());
  // The joiner landed in some vgroup whose members all agree it is there.
  auto groups = sys->group_map();
  bool found = false;
  for (const auto& [g, members] : groups) {
    if (std::find(members.begin(), members.end(), 100u) != members.end()) {
      found = true;
      for (NodeId m : members) {
        EXPECT_TRUE(sys->node(m).vgroup().has_member(100));
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(CoreFixture, LeaveShrinksGroup) {
  deploy(12);
  auto groups = sys->group_map();
  NodeId leaver = groups.begin()->second.front();
  GroupId g = groups.begin()->first;
  std::size_t before = groups.begin()->second.size();
  sys->node(leaver).leave();
  run_for(seconds(30));
  EXPECT_FALSE(sys->node(leaver).joined());
  auto after = sys->group_map();
  EXPECT_EQ(after[g].size(), before - 1);
}

TEST_F(CoreFixture, BroadcastStillWorksAfterLeave) {
  deploy(18);
  sys->node(5).leave();
  run_for(seconds(30));
  sys->node(0).broadcast(msg("post-leave"));
  run_for(seconds(30));
  EXPECT_EQ(nodes_with(msg("post-leave")), 17u);
}

// ---------------------------------------------------------------------------
// Heartbeats & eviction
// ---------------------------------------------------------------------------

TEST_F(CoreFixture, UnresponsiveNodeIsEvicted) {
  deploy(12);
  auto groups = sys->group_map();
  NodeId victim = groups.begin()->second.front();
  std::vector<NodeId> peers = groups.begin()->second;
  std::size_t before = peers.size();
  sys->network().isolate(victim, true);  // crashes silently
  run_for(seconds(20));                  // several heartbeat periods
  // Every *correct* member must have reconfigured the victim out. (The
  // victim itself is partitioned and keeps its stale view.)
  for (NodeId m : peers) {
    if (m == victim) continue;
    EXPECT_FALSE(sys->node(m).vgroup().has_member(victim)) << "member " << m;
    EXPECT_EQ(sys->node(m).vgroup().size(), before - 1);
  }
}

TEST_F(CoreFixture, ByzantineEvictorCannotRemoveCorrectNodes) {
  // §6.1.3: Byzantine nodes propose evicting all correct peers; the f+1
  // accusation quorum makes this harmless.
  std::map<NodeId, NodeBehavior> behaviors{{1, NodeBehavior::kByzantineEvictor}};
  deploy(12, fast_params(), behaviors);
  auto before = sys->group_map();
  run_for(seconds(30));
  auto after = sys->group_map();
  std::size_t total = 0;
  for (const auto& [g, members] : after) total += members.size();
  EXPECT_EQ(total, 12u) << "no correct node may be evicted";
}

TEST_F(CoreFixture, ByzantineNodesDoNotStopBroadcast) {
  // 2 of 18 nodes Byzantine (heartbeat-only): every correct node delivers.
  std::map<NodeId, NodeBehavior> behaviors{{4, NodeBehavior::kByzantineEvictor},
                                           {11, NodeBehavior::kByzantineEvictor}};
  deploy(18, fast_params(), behaviors);
  sys->node(0).broadcast(msg("despite-byz"));
  run_for(seconds(30));
  EXPECT_EQ(nodes_with(msg("despite-byz")), 16u);  // 18 - 2 byz (deliver disabled)
}

TEST_F(CoreFixture, SilentNodesDoNotStopBroadcastAsync) {
  std::map<NodeId, NodeBehavior> behaviors{{2, NodeBehavior::kSilent}};
  deploy(18, fast_params(smr::EngineKind::kAsync), behaviors);
  sys->node(0).broadcast(msg("quiet-faults"));
  run_for(seconds(30));
  EXPECT_EQ(nodes_with(msg("quiet-faults")), 17u);
}

// ---------------------------------------------------------------------------
// API misuse
// ---------------------------------------------------------------------------

TEST_F(CoreFixture, BroadcastBeforeJoinThrows) {
  sys = std::make_unique<AtumSystem>(fast_params(), net::NetworkConfig::datacenter(), 9);
  auto& n = sys->add_node(0);
  EXPECT_THROW(n.broadcast(msg("x")), std::logic_error);
}

TEST_F(CoreFixture, DoubleJoinThrows) {
  sys = std::make_unique<AtumSystem>(fast_params(), net::NetworkConfig::datacenter(), 10);
  sys->add_node(0).bootstrap();
  EXPECT_THROW(sys->node(0).join(0), std::logic_error);
}

TEST_F(CoreFixture, UnknownNodeLookupThrows) {
  sys = std::make_unique<AtumSystem>(fast_params(), net::NetworkConfig::datacenter(), 11);
  EXPECT_THROW(sys->node(42), std::invalid_argument);
}

// Both engines through the same broadcast scenario.
class CoreEngineSweep : public ::testing::TestWithParam<smr::EngineKind> {};

TEST_P(CoreEngineSweep, BroadcastAtModerateScale) {
  Params p = fast_params(GetParam());
  AtumSystem sys(p, net::NetworkConfig::datacenter(), 77);
  std::vector<NodeId> ids;
  std::map<NodeId, int> got;
  for (NodeId i = 0; i < 40; ++i) {
    ids.push_back(i);
    sys.add_node(i).set_deliver([&got, i](NodeId, const net::Payload&) { ++got[i]; });
  }
  sys.deploy(ids);
  sys.node(7).broadcast(Bytes{1, 2, 3});
  sys.simulator().run_until(seconds(60));
  std::size_t reached = 0;
  for (const auto& [n, c] : got) reached += (c == 1);
  EXPECT_EQ(reached, 40u);
}

INSTANTIATE_TEST_SUITE_P(Engines, CoreEngineSweep,
                         ::testing::Values(smr::EngineKind::kSync, smr::EngineKind::kAsync),
                         [](const ::testing::TestParamInfo<smr::EngineKind>& info) {
                           return info.param == smr::EngineKind::kSync ? "Sync" : "Async";
                         });

}  // namespace
}  // namespace atum::core
