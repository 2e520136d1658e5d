// Tests for the simulated network: delivery, latency/bandwidth modelling,
// drops, partitions, typed routing, and the WAN region matrix.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"

namespace atum::net {
namespace {

struct NetFixture : ::testing::Test {
  sim::Simulator sim;
  NetworkConfig cfg = NetworkConfig::datacenter();

  std::unique_ptr<SimNetwork> make(NetworkConfig c) {
    return std::make_unique<SimNetwork>(sim, c, 1234);
  }
};

TEST_F(NetFixture, DeliversToAttachedHandler) {
  auto net = make(cfg);
  std::vector<net::Payload> got;
  net->attach(2, [&](const Message& m) { got.push_back(m.payload); });
  net->send(Message{1, 2, MsgType::kAppData, Bytes{42}});
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], Bytes{42});
}

TEST_F(NetFixture, DeliveryTakesLatency) {
  cfg.jitter_mean = 0;
  auto net = make(cfg);
  TimeMicros arrival = -1;
  net->attach(2, [&](const Message&) { arrival = sim.now(); });
  net->send(Message{1, 2, MsgType::kAppData, {}});
  sim.run();
  EXPECT_GE(arrival, cfg.base_latency);
}

TEST_F(NetFixture, UnattachedTargetCountsBlocked) {
  auto net = make(cfg);
  net->send(Message{1, 99, MsgType::kAppData, {}});
  sim.run();
  EXPECT_EQ(net->stats().messages_blocked, 1u);
  EXPECT_EQ(net->stats().messages_delivered, 0u);
}

TEST_F(NetFixture, DropProbabilityOneDropsEverything) {
  cfg.drop_probability = 1.0;
  auto net = make(cfg);
  int got = 0;
  net->attach(2, [&](const Message&) { ++got; });
  for (int i = 0; i < 20; ++i) net->send(Message{1, 2, MsgType::kAppData, {}});
  sim.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net->stats().messages_dropped, 20u);
}

TEST_F(NetFixture, DropProbabilityHalfDropsAboutHalf) {
  cfg.drop_probability = 0.5;
  auto net = make(cfg);
  int got = 0;
  net->attach(2, [&](const Message&) { ++got; });
  for (int i = 0; i < 2000; ++i) net->send(Message{1, 2, MsgType::kAppData, {}});
  sim.run();
  EXPECT_NEAR(got, 1000, 100);
}

TEST_F(NetFixture, IsolationBlocksBothDirections) {
  auto net = make(cfg);
  int got1 = 0, got2 = 0;
  net->attach(1, [&](const Message&) { ++got1; });
  net->attach(2, [&](const Message&) { ++got2; });
  net->isolate(2, true);
  net->send(Message{1, 2, MsgType::kAppData, {}});
  net->send(Message{2, 1, MsgType::kAppData, {}});
  sim.run();
  EXPECT_EQ(got1, 0);
  EXPECT_EQ(got2, 0);
  net->isolate(2, false);
  net->send(Message{1, 2, MsgType::kAppData, {}});
  sim.run();
  EXPECT_EQ(got2, 1);
}

TEST_F(NetFixture, LinkBlockIsBidirectionalAndReversible) {
  auto net = make(cfg);
  int got = 0;
  net->attach(1, [&](const Message&) { ++got; });
  net->attach(2, [&](const Message&) { ++got; });
  net->block_link(1, 2, true);
  net->send(Message{1, 2, MsgType::kAppData, {}});
  net->send(Message{2, 1, MsgType::kAppData, {}});
  sim.run();
  EXPECT_EQ(got, 0);
  net->block_link(1, 2, false);
  net->send(Message{1, 2, MsgType::kAppData, {}});
  sim.run();
  EXPECT_EQ(got, 1);
}

TEST_F(NetFixture, PartitionAppliedAtDeliveryTime) {
  // A message in flight when the partition forms is lost (models TCP reset).
  auto net = make(cfg);
  int got = 0;
  net->attach(2, [&](const Message&) { ++got; });
  net->send(Message{1, 2, MsgType::kAppData, {}});
  net->isolate(2, true);  // before the event fires
  sim.run();
  EXPECT_EQ(got, 0);
}

TEST_F(NetFixture, BandwidthSerializesLargeTransfers) {
  cfg.jitter_mean = 0;
  cfg.egress_bytes_per_sec = 1e6;  // 1 MB/s
  cfg.ingress_bytes_per_sec = 1e6;
  auto net = make(cfg);
  TimeMicros arrival = -1;
  net->attach(2, [&](const Message&) { arrival = sim.now(); });
  net->send(Message{1, 2, MsgType::kAppData, Bytes(1'000'000, 0)});  // 1 MB
  sim.run();
  // ~1 s egress + ~1 s ingress serialization at 1 MB/s.
  EXPECT_GE(arrival, 2 * kMicrosPerSecond);
  EXPECT_LE(arrival, 2 * kMicrosPerSecond + millis(50));
}

TEST_F(NetFixture, BackToBackMessagesQueueOnEgress) {
  cfg.jitter_mean = 0;
  cfg.egress_bytes_per_sec = 1e6;
  cfg.ingress_bytes_per_sec = 1e9;  // receiver not the bottleneck
  auto net = make(cfg);
  std::vector<TimeMicros> arrivals;
  net->attach(2, [&](const Message&) { arrivals.push_back(sim.now()); });
  for (int i = 0; i < 3; ++i) net->send(Message{1, 2, MsgType::kAppData, Bytes(100'000, 0)});
  sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  // Each 100 KB message takes ~0.1 s of egress; arrivals must be spaced.
  EXPECT_GE(arrivals[1] - arrivals[0], millis(90));
  EXPECT_GE(arrivals[2] - arrivals[1], millis(90));
}

TEST_F(NetFixture, StatsCountersAreConsistent) {
  auto net = make(cfg);
  net->attach(2, [](const Message&) {});
  for (int i = 0; i < 5; ++i) net->send(Message{1, 2, MsgType::kAppData, {}});
  net->send(Message{1, 3, MsgType::kAppData, {}});  // unattached
  sim.run();
  const auto& st = net->stats();
  EXPECT_EQ(st.messages_sent, 6u);
  EXPECT_EQ(st.messages_delivered, 5u);
  EXPECT_EQ(st.messages_blocked, 1u);
  EXPECT_GT(st.bytes_sent, 0u);
}

TEST_F(NetFixture, TypedHandlerTakesPrecedence) {
  auto net = make(cfg);
  int typed = 0, fallback = 0;
  net->attach(2, [&](const Message&) { ++fallback; });
  net->attach(2, MsgType::kHeartbeat, [&](const Message&) { ++typed; });
  net->send(Message{1, 2, MsgType::kHeartbeat, {}});
  net->send(Message{1, 2, MsgType::kAppData, {}});
  sim.run();
  EXPECT_EQ(typed, 1);
  EXPECT_EQ(fallback, 1);
}

TEST_F(NetFixture, DetachTypeKeepsFallback) {
  auto net = make(cfg);
  int typed = 0, fallback = 0;
  net->attach(2, [&](const Message&) { ++fallback; });
  net->attach(2, MsgType::kHeartbeat, [&](const Message&) { ++typed; });
  net->detach(2, MsgType::kHeartbeat);
  net->send(Message{1, 2, MsgType::kHeartbeat, {}});
  sim.run();
  EXPECT_EQ(typed, 0);
  EXPECT_EQ(fallback, 1);
}

TEST_F(NetFixture, TransportClosesOnlyOwnRegistrations) {
  auto net = make(cfg);
  int smr = 0, app = 0;
  Transport t1(*net, 5), t2(*net, 5);
  t1.listen({MsgType::kDsBroadcast}, [&](const Message&) { ++smr; });
  t2.listen({MsgType::kAppData}, [&](const Message&) { ++app; });
  t1.close();
  net->send(Message{1, 5, MsgType::kDsBroadcast, {}});
  net->send(Message{1, 5, MsgType::kAppData, {}});
  sim.run();
  EXPECT_EQ(smr, 0);
  EXPECT_EQ(app, 1);
}

TEST_F(NetFixture, AttachDetachOneTypeLeavesOtherTypesAndFallback) {
  auto net = make(cfg);
  int fallback = 0, heartbeat = 0, join = 0, join2 = 0, app = 0;
  net->attach(2, [&](const Message&) { ++fallback; });
  net->attach(2, MsgType::kHeartbeat, [&](const Message&) { ++heartbeat; });
  net->attach(2, MsgType::kJoinRequest, [&](const Message&) { ++join; });
  net->detach(2, MsgType::kHeartbeat);
  net->attach(2, MsgType::kJoinRequest, [&](const Message&) { ++join2; });  // replaces
  net->attach(2, MsgType::kAppData, [&](const Message&) { ++app; });
  net->detach(2, MsgType::kStreamPush);  // never attached: no effect
  for (MsgType t : {MsgType::kHeartbeat, MsgType::kJoinRequest, MsgType::kAppData,
                    MsgType::kJoinReply}) {
    net->send(Message{1, 2, t, {}});
  }
  sim.run();
  EXPECT_EQ(heartbeat, 0);
  EXPECT_EQ(join, 0);
  EXPECT_EQ(join2, 1);
  EXPECT_EQ(app, 1);
  EXPECT_EQ(fallback, 2);  // the detached kHeartbeat and the never-typed kJoinReply
  EXPECT_TRUE(net->attached(2));
}

TEST_F(NetFixture, DetachingLastHandlerUnattachesNode) {
  auto net = make(cfg);
  int got = 0;
  net->attach(2, MsgType::kHeartbeat, [&](const Message&) { ++got; });
  net->attach(2, MsgType::kAppData, [&](const Message&) { ++got; });
  net->detach(2, MsgType::kHeartbeat);
  EXPECT_TRUE(net->attached(2));
  // No fallback: an untyped message to an attached node is blocked on
  // delivery.
  net->send(Message{1, 2, MsgType::kHeartbeat, {}});
  sim.run();
  EXPECT_EQ(net->stats().messages_blocked, 1u);
  net->detach(2, MsgType::kAppData);
  EXPECT_FALSE(net->attached(2));
  net->send(Message{1, 2, MsgType::kAppData, {}});
  sim.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net->stats().messages_blocked, 2u);

  net->attach(3, [&](const Message&) { ++got; });
  net->detach(3);
  EXPECT_FALSE(net->attached(3));
}

TEST(MsgTypeSlot, EveryEnumeratorMapsToADistinctSlot) {
  const std::vector<MsgType> all = {
      MsgType::kDsBroadcast,     MsgType::kPbftRequest,      MsgType::kPbftPrePrepare,
      MsgType::kPbftPrepare,     MsgType::kPbftCommit,       MsgType::kPbftViewChange,
      MsgType::kPbftNewView,     MsgType::kPbftCheckpoint,   MsgType::kPbftStateFetch,
      MsgType::kPbftStateReply,  MsgType::kSmrRemovalNotice, MsgType::kGroupMsgFull,
      MsgType::kGroupMsgDigest,  MsgType::kHeartbeat,        MsgType::kJoinRequest,
      MsgType::kJoinReply,       MsgType::kAppData,          MsgType::kChunkRequest,
      MsgType::kChunkReply,      MsgType::kStreamPush,       MsgType::kStreamPull,
      MsgType::kStreamChunk,
  };
  ASSERT_EQ(all.size(), kMsgTypeSlots);
  std::vector<bool> used(kMsgTypeSlots, false);
  for (MsgType t : all) {
    const std::size_t slot = msg_type_slot(t);
    ASSERT_LT(slot, kMsgTypeSlots) << static_cast<int>(t);
    EXPECT_FALSE(used[slot]) << "slot " << slot << " shared";
    used[slot] = true;
  }
  static_assert(msg_type_slot(MsgType::kStreamChunk) < kMsgTypeSlots);
  EXPECT_EQ(msg_type_slot(static_cast<MsgType>(0xffff)), kMsgTypeSlots);
}

TEST_F(NetFixture, WanLatencyFollowsRegionMatrix) {
  auto wan_cfg = NetworkConfig::wide_area();
  wan_cfg.jitter_mean = 0;
  auto net = make(wan_cfg);
  // Node ids map to regions by id % 8: nodes 0 and 1 are eu-west/eu-central
  // (12 ms), nodes 0 and 6 are eu-west/ap-sydney (140 ms).
  TimeMicros near_arrival = -1, far_arrival = -1;
  net->attach(1, [&](const Message&) { near_arrival = sim.now(); });
  net->attach(6, [&](const Message&) { far_arrival = sim.now(); });
  net->send(Message{0, 1, MsgType::kAppData, {}});
  sim.run();
  TimeMicros near_latency = near_arrival;  // sent at t=0
  TimeMicros far_sent = sim.now();
  net->send(Message{0, 6, MsgType::kAppData, {}});
  sim.run();
  TimeMicros far_latency = far_arrival - far_sent;
  EXPECT_GE(near_latency, millis(12));
  EXPECT_LT(near_latency, millis(20));
  EXPECT_GE(far_latency, millis(140));
  EXPECT_LT(far_latency, millis(150));
}

TEST_F(NetFixture, SelfSendIsDelivered) {
  auto net = make(cfg);
  int got = 0;
  net->attach(1, [&](const Message&) { ++got; });
  net->send(Message{1, 1, MsgType::kAppData, {}});
  sim.run();
  EXPECT_EQ(got, 1);
}

TEST_F(NetFixture, WireSizeIncludesOverhead) {
  Message m{1, 2, MsgType::kAppData, Bytes(100, 0)};
  EXPECT_EQ(m.wire_size(), 100 + Message::kHeaderOverhead);
}

TEST_F(NetFixture, JitterVariesLatency) {
  cfg.jitter_mean = 1000;
  auto net = make(cfg);
  std::vector<TimeMicros> arrivals;
  net->attach(2, [&](const Message&) { arrivals.push_back(sim.now()); });
  // Use distinct senders so egress queuing does not mask jitter.
  for (NodeId n = 10; n < 40; ++n) net->send(Message{n, 2, MsgType::kAppData, {}});
  sim.run();
  ASSERT_EQ(arrivals.size(), 30u);
  bool all_same = std::all_of(arrivals.begin(), arrivals.end(),
                              [&](TimeMicros t) { return t == arrivals[0]; });
  EXPECT_FALSE(all_same);
}

// ---------------------------------------------------------------------------
// Payload sharing semantics
// ---------------------------------------------------------------------------

TEST_F(NetFixture, MutatingSentBufferDoesNotAffectInFlightMessage) {
  auto net = make(cfg);
  Bytes received;
  net->attach(2, [&](const Message& m) { received = m.payload.to_bytes(); });
  Bytes buf{1, 2, 3};
  net->send(Message{1, 2, MsgType::kAppData, buf});  // frozen at send time
  buf[0] = 99;                                       // sender scribbles afterwards
  buf.push_back(4);
  sim.run();
  EXPECT_EQ(received, (Bytes{1, 2, 3}));
}

TEST_F(NetFixture, FanOutSharesOneBufferAcrossRecipients) {
  auto net = make(cfg);
  std::vector<const std::uint8_t*> seen_data;
  for (NodeId n = 1; n <= 8; ++n) {
    net->attach(n, [&](const Message& m) { seen_data.push_back(m.payload.data()); });
  }
  Payload shared(Bytes(4096, 0xAB));
  EXPECT_EQ(shared.use_count(), 1);
  for (NodeId n = 1; n <= 8; ++n) {
    net->send(Message{0, n, MsgType::kAppData, shared});
  }
  // All 8 in-flight messages + our handle reference the same allocation.
  EXPECT_EQ(shared.use_count(), 9);
  sim.run();
  ASSERT_EQ(seen_data.size(), 8u);
  for (const std::uint8_t* p : seen_data) EXPECT_EQ(p, shared.data());
  EXPECT_EQ(shared.use_count(), 1);  // delivery released the shares
}

TEST(Payload, CopiesShareAndCompareByContent) {
  Payload a(Bytes{1, 2, 3});
  Payload b = a;
  EXPECT_EQ(b.data(), a.data());  // same buffer
  EXPECT_EQ(a.use_count(), 2);
  Payload c(Bytes{1, 2, 3});
  EXPECT_EQ(a, c);                // content equality
  EXPECT_NE(c.data(), a.data());  // distinct buffer
}

TEST(Payload, DefaultIsSharedEmptyBuffer) {
  Payload a, b;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.size(), 0u);
  // All default payloads share one static empty buffer: heartbeats
  // allocate nothing, and the shared refcount proves it.
  EXPECT_EQ(a.use_count(), b.use_count());
  EXPECT_GE(a.use_count(), 3);  // a + b + the static buffer itself
}

// ---------------------------------------------------------------------------
// Link keys above 2^32 (regression: the packed 64-bit key truncated ids)
// ---------------------------------------------------------------------------

TEST_F(NetFixture, BlockedLinksDoNotAliasForLargeNodeIds) {
  // With the old (lo << 32) ^ hi key only lo's LOW 32 bits survived the
  // shift, so these two disjoint links both produced the key (6<<32)|9 —
  // blocking one silently blocked the other:
  const NodeId a = (5ULL << 32) | 1, b = (7ULL << 32) | 9;  // (1<<32) ^ b
  const NodeId c = 2, d = (4ULL << 32) | 9;                 // (2<<32) ^ d
  auto net = make(cfg);
  int got_cd = 0, got_ab = 0;
  net->attach(b, [&](const Message&) { ++got_ab; });
  net->attach(d, [&](const Message&) { ++got_cd; });
  net->block_link(a, b, true);
  net->send(Message{c, d, MsgType::kAppData, {}});  // must NOT be blocked
  net->send(Message{a, b, MsgType::kAppData, {}});  // must be blocked
  sim.run();
  EXPECT_EQ(got_cd, 1);
  EXPECT_EQ(got_ab, 0);
  // And unblocking restores the exact link.
  net->block_link(a, b, false);
  net->send(Message{a, b, MsgType::kAppData, {}});
  sim.run();
  EXPECT_EQ(got_ab, 1);
}

// ---------------------------------------------------------------------------
// NetworkConfig::validate
// ---------------------------------------------------------------------------

TEST_F(NetFixture, RejectsNonPositiveBandwidth) {
  NetworkConfig bad = cfg;
  bad.egress_bytes_per_sec = 0.0;  // would divide to inf delivery times
  EXPECT_THROW(make(bad), std::invalid_argument);
  bad = cfg;
  bad.egress_bytes_per_sec = -1.0;
  EXPECT_THROW(make(bad), std::invalid_argument);
  bad = cfg;
  bad.ingress_bytes_per_sec = 0.0;
  EXPECT_THROW(make(bad), std::invalid_argument);
  bad = cfg;
  bad.ingress_bytes_per_sec = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(make(bad), std::invalid_argument);
}

TEST_F(NetFixture, RejectsBadProbabilityAndNegativeLatencies) {
  NetworkConfig bad = cfg;
  bad.drop_probability = 1.5;
  EXPECT_THROW(make(bad), std::invalid_argument);
  bad = cfg;
  bad.base_latency = -1;
  EXPECT_THROW(make(bad), std::invalid_argument);
  bad = cfg;
  bad.jitter_mean = -1;
  EXPECT_THROW(make(bad), std::invalid_argument);
  bad = cfg;
  bad.region_latency = {{1, 2}, {3}};  // ragged matrix
  EXPECT_THROW(make(bad), std::invalid_argument);
}

TEST_F(NetFixture, StockConfigsValidate) {
  EXPECT_NO_THROW(NetworkConfig::datacenter().validate());
  EXPECT_NO_THROW(NetworkConfig::wide_area().validate());
}

// ---------------------------------------------------------------------------
// Partitions and link faults (scenario-engine fault primitives)
// ---------------------------------------------------------------------------

TEST_F(NetFixture, PartitionBlocksAcrossSidesOnly) {
  auto net = make(cfg);
  int got1 = 0, got2 = 0, got3 = 0;
  net->attach(1, [&](const Message&) { ++got1; });
  net->attach(2, [&](const Message&) { ++got2; });
  net->attach(3, [&](const Message&) { ++got3; });
  net->partition({{1}});  // 1 alone vs everyone else
  EXPECT_TRUE(net->partitioned());
  net->send(Message{1, 2, MsgType::kAppData, {}});  // across: blocked
  net->send(Message{2, 1, MsgType::kAppData, {}});  // across: blocked
  net->send(Message{2, 3, MsgType::kAppData, {}});  // same side: passes
  sim.run();
  EXPECT_EQ(got1, 0);
  EXPECT_EQ(got2, 0);
  EXPECT_EQ(got3, 1);
  EXPECT_EQ(net->stats().messages_blocked, 2u);

  net->heal_partition();
  EXPECT_FALSE(net->partitioned());
  net->send(Message{1, 2, MsgType::kAppData, {}});
  sim.run();
  EXPECT_EQ(got2, 1);
}

TEST_F(NetFixture, PartitionCutsMessagesAlreadyInFlight) {
  cfg.jitter_mean = 0;
  auto net = make(cfg);
  int got = 0;
  net->attach(2, [&](const Message&) { ++got; });
  net->send(Message{1, 2, MsgType::kAppData, {}});
  net->partition({{1}});  // starts while the message is in flight
  sim.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net->stats().messages_blocked, 1u);
}

TEST_F(NetFixture, MultiSidePartitionSeparatesAllComponents) {
  auto net = make(cfg);
  int got = 0;
  for (NodeId n = 1; n <= 6; ++n) net->attach(n, [&](const Message&) { ++got; });
  net->partition({{1, 2}, {3, 4}});  // sides: {1,2}, {3,4}, rest
  net->send(Message{1, 2, MsgType::kAppData, {}});  // within side 1
  net->send(Message{3, 4, MsgType::kAppData, {}});  // within side 2
  net->send(Message{5, 6, MsgType::kAppData, {}});  // within rest
  net->send(Message{1, 3, MsgType::kAppData, {}});  // across 1-2
  net->send(Message{2, 5, MsgType::kAppData, {}});  // across 1-rest
  net->send(Message{4, 6, MsgType::kAppData, {}});  // across 2-rest
  sim.run();
  EXPECT_EQ(got, 3);
  EXPECT_EQ(net->stats().messages_blocked, 3u);
}

TEST_F(NetFixture, LinkFaultDropsProbabilistically) {
  auto net = make(cfg);
  int got12 = 0, got13 = 0;
  net->attach(2, [&](const Message&) { ++got12; });
  net->attach(3, [&](const Message&) { ++got13; });
  net->set_link_fault(1, 2, LinkFault{1.0, 0});
  for (int i = 0; i < 50; ++i) {
    net->send(Message{1, 2, MsgType::kAppData, {}});
    net->send(Message{1, 3, MsgType::kAppData, {}});
  }
  sim.run();
  EXPECT_EQ(got12, 0);  // total loss on the degraded link
  EXPECT_EQ(got13, 50);  // untouched link unaffected
  EXPECT_EQ(net->stats().messages_dropped, 50u);
  net->clear_link_fault(1, 2);
  net->send(Message{1, 2, MsgType::kAppData, {}});
  sim.run();
  EXPECT_EQ(got12, 1);
}

TEST_F(NetFixture, NodeFaultDegradesEveryTouchingLink) {
  auto net = make(cfg);
  int got = 0;
  net->attach(1, [&](const Message&) { ++got; });
  net->attach(2, [&](const Message&) { ++got; });
  net->attach(3, [&](const Message&) { ++got; });
  net->set_node_fault(1, LinkFault{1.0, 0});
  net->send(Message{1, 2, MsgType::kAppData, {}});  // outbound from 1
  net->send(Message{3, 1, MsgType::kAppData, {}});  // inbound to 1
  sim.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net->stats().messages_dropped, 2u);
  net->send(Message{2, 3, MsgType::kAppData, {}});  // link not touching 1
  sim.run();
  EXPECT_EQ(got, 1);
  net->clear_node_fault(1);
  net->send(Message{1, 2, MsgType::kAppData, {}});
  sim.run();
  EXPECT_EQ(got, 2);
}

TEST_F(NetFixture, FaultLatencyDelaysDeliveryWithoutOccupyingIngress) {
  cfg.jitter_mean = 0;
  auto net = make(cfg);
  const DurationMicros extra = seconds(30.0);
  TimeMicros slow_at = -1, fast_at = -1;
  net->attach(2, [&](const Message& m) {
    (m.from == 1 ? slow_at : fast_at) = sim.now();
  });
  net->set_link_fault(1, 2, LinkFault{0.0, extra});
  net->send(Message{1, 2, MsgType::kAppData, {}});  // delayed 30 s
  net->send(Message{3, 2, MsgType::kAppData, {}});  // must NOT queue behind it
  sim.run();
  EXPECT_GE(slow_at, extra);
  EXPECT_LT(fast_at, seconds(1.0));
  // Injected latency is propagation, not serialization: once the fault is
  // cleared and time passes, the flow entries are sweepable (no horizon 30 s
  // in the future).
  net->clear_link_faults();
  EXPECT_EQ(net->flow_count(), 0u);
}

TEST_F(NetFixture, HealedPartitionLeavesNoDeadFlowEntriesUnderChurn) {
  cfg.jitter_mean = 0;
  auto net = make(cfg);
  std::uint64_t got = 0;
  constexpr NodeId kNodes = 64;
  for (NodeId n = 0; n < kNodes; ++n) {
    net->attach(n, [&](const Message&) { ++got; });
  }
  // Build up flow entries on every node.
  for (NodeId n = 1; n < kNodes; ++n) net->send(Message{n, 0, MsgType::kAppData, Bytes(256, 1)});
  sim.run();
  EXPECT_GT(net->flow_count(), 0u);

  // Partition half away; traffic continues on one side only, and churn
  // detaches some partitioned-away nodes entirely while they are cut off.
  std::vector<std::vector<NodeId>> sides(1);
  for (NodeId n = kNodes / 2; n < kNodes; ++n) sides[0].push_back(n);
  net->partition(sides);
  for (int round = 0; round < 4; ++round) {
    for (NodeId n = 1; n < kNodes / 2; ++n) {
      net->send(Message{n, 0, MsgType::kAppData, Bytes(256, 1)});
    }
    for (NodeId n = kNodes / 2; n < kNodes; ++n) {
      net->send(Message{n, 0, MsgType::kAppData, {}});  // all blocked
    }
    sim.run();
  }
  for (NodeId n = kNodes - 8; n < kNodes; ++n) net->detach(n);  // churned away

  // Heal. The partition stalled the send-driven amortized sweep for the
  // blocked side; heal_partition() performs an exact sweep so no dead
  // serialization entries survive it (everything idle by now).
  net->heal_partition();
  EXPECT_EQ(net->flow_count(), 0u);

  // Live traffic immediately after the heal works and re-creates entries.
  std::uint64_t before = got;
  net->send(Message{kNodes - 1, 0, MsgType::kAppData, {}});
  sim.run();
  EXPECT_EQ(got, before + 1);  // formerly partitioned side can reach 0 again
  EXPECT_LE(net->flow_count(), 2u);
}

TEST_F(NetFixture, SweepFlowsIsExactAndReportsEvictions) {
  cfg.jitter_mean = 0;
  auto net = make(cfg);
  net->attach(1, [](const Message&) {});
  for (NodeId n = 2; n < 34; ++n) net->send(Message{n, 1, MsgType::kAppData, {}});
  sim.run();  // all horizons in the past now
  EXPECT_GT(net->flow_count(), 0u);
  std::size_t evicted = net->sweep_flows();
  EXPECT_GT(evicted, 0u);
  EXPECT_EQ(net->flow_count(), 0u);
  EXPECT_EQ(net->sweep_flows(), 0u);
}

// ---------------------------------------------------------------------------
// Flow-table eviction (regression: one Flow per node ever seen, forever)
// ---------------------------------------------------------------------------

TEST_F(NetFixture, IdleFlowEntriesAreSwept) {
  auto net = make(cfg);
  std::uint64_t got = 0;
  net->attach(1, [&](const Message&) { ++got; });
  // 50k distinct transient senders each send once, then fall idle. Without
  // eviction flows_ keeps one serialization entry per sender forever.
  for (NodeId s = 1000; s < 51000; ++s) {
    net->send(Message{s, 1, MsgType::kAppData, Bytes{1}});
    if ((s & 0x3F) == 0) sim.run();  // drain: the senders' horizons pass
  }
  sim.run();
  EXPECT_EQ(got, 50000u);
  // Sweeps are amortized (one per flows_.size() sends), so the table holds
  // at most the nodes active since the last sweep — not all 50k ever seen.
  EXPECT_LT(net->flow_count(), 4096u);
}

TEST_F(NetFixture, ActiveFlowsSurviveTheSweep) {
  auto net = make(cfg);
  TimeMicros last = 0;
  std::uint64_t got = 0;
  net->attach(2, [&](const Message&) {
    last = sim.now();
    ++got;
  });
  // 2000 distinct one-shot senders saturate node 2's ingress in one burst;
  // with a 256-send sweep allowance, several sweeps run mid-burst. If a
  // sweep wrongly evicted node 2's ACTIVE flow, its ingress horizon would
  // reset and deliveries would compress below the serialized lower bound.
  constexpr std::size_t kSenders = 2000;
  for (NodeId s = 100; s < 100 + kSenders; ++s) {
    net->send(Message{s, 2, MsgType::kAppData, Bytes(4096, 1)});
  }
  sim.run();
  EXPECT_EQ(got, kSenders);
  const double per_msg =
      (4096.0 + Message::kHeaderOverhead) / cfg.ingress_bytes_per_sec * kMicrosPerSecond;
  EXPECT_GE(last, static_cast<TimeMicros>(per_msg * (kSenders - 1)));
}

// ---------------------------------------------------------------------------
// Payload digest cache: SHA-256 computed at most once per (frame, range),
// memoized on the shared control block.
// ---------------------------------------------------------------------------

TEST(PayloadDigest, ComputedOnceAndSharedAcrossCopiesAndSlices) {
  Payload p(Bytes(300, 0x42));
  const std::uint64_t base = crypto::sha256_digest_count();
  crypto::Digest d = p.digest();
  EXPECT_EQ(crypto::sha256_digest_count(), base + 1);

  // Copies and re-slices of the same range are cache hits: the memo lives
  // on the buffer control block, not on the Payload value.
  Payload copy = p;
  EXPECT_EQ(copy.digest(), d);
  Payload whole = p.slice({p.data(), p.size()});
  EXPECT_EQ(whole.digest(), d);
  EXPECT_EQ(p.digest(), d);
  EXPECT_EQ(crypto::sha256_digest_count(), base + 1);

  // And the cached value is the real digest.
  EXPECT_EQ(d, crypto::sha256(p.data(), p.size()));
}

TEST(PayloadDigest, MemoIsKeyedByRange) {
  Payload frame(Bytes{1, 2, 3, 4, 5, 6, 7, 8});
  Payload head = frame.slice({frame.data(), 4});
  Payload tail = frame.slice({frame.data() + 4, 4});

  crypto::Digest dh = head.digest();
  crypto::Digest dt = tail.digest();
  EXPECT_NE(dh, dt);
  EXPECT_EQ(dh, crypto::sha256(head.data(), head.size()));
  EXPECT_EQ(dt, crypto::sha256(tail.data(), tail.size()));

  // The memo is a small set, not a single slot: both ranges stay cached
  // side by side (a batched pre-prepare hashes the whole ops region AND
  // per-op sub-ranges of the same frame).
  const std::uint64_t base = crypto::sha256_digest_count();
  EXPECT_EQ(tail.digest(), dt);  // hit
  EXPECT_EQ(head.digest(), dh);  // hit — did not evict the other range
  EXPECT_EQ(crypto::sha256_digest_count(), base);
}

TEST(PayloadDigest, MemoHoldsSlotsRangesAndEvictsRoundRobin) {
  // One frame, kDigestMemoSlots + 1 distinct ranges.
  constexpr std::size_t kSlots = Payload::kDigestMemoSlots;
  Bytes bytes(kSlots + 1);
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<std::uint8_t>(i + 1);
  Payload frame(bytes);
  std::vector<Payload> ranges;
  for (std::size_t i = 0; i < kSlots + 1; ++i) {
    ranges.push_back(frame.slice({frame.data(), i + 1}));
  }

  // Fill every slot: k distinct ranges hash exactly k times...
  std::uint64_t base = crypto::sha256_digest_count();
  std::vector<crypto::Digest> digests;
  for (std::size_t i = 0; i < kSlots; ++i) digests.push_back(ranges[i].digest());
  EXPECT_EQ(crypto::sha256_digest_count(), base + kSlots);
  // ...and re-hashing any of them is a pure cache hit.
  for (std::size_t i = 0; i < kSlots; ++i) EXPECT_EQ(ranges[i].digest(), digests[i]);
  EXPECT_EQ(crypto::sha256_digest_count(), base + kSlots);

  // A (k+1)-th range evicts the oldest entry (round-robin): the newcomer
  // and the survivors hit, the evicted range recomputes correctly.
  crypto::Digest extra = ranges[kSlots].digest();
  EXPECT_EQ(extra, crypto::sha256(ranges[kSlots].data(), ranges[kSlots].size()));
  base = crypto::sha256_digest_count();
  EXPECT_EQ(ranges[kSlots].digest(), extra);
  for (std::size_t i = 1; i < kSlots; ++i) EXPECT_EQ(ranges[i].digest(), digests[i]);
  EXPECT_EQ(crypto::sha256_digest_count(), base);
  EXPECT_EQ(ranges[0].digest(), digests[0]);  // evicted: recomputed, still right
  EXPECT_EQ(crypto::sha256_digest_count(), base + 1);
}

TEST_F(NetFixture, DigestCacheSurvivesDeliveryAcrossRecipients) {
  auto net = make(cfg);
  std::uint64_t base = 0;
  std::size_t handled = 0;
  crypto::Digest expect{};
  for (NodeId n = 1; n <= 8; ++n) {
    net->attach(n, [&](const Message& m) {
      // Every recipient wants the digest of the same shared frame; only
      // the first computes it.
      EXPECT_EQ(m.payload.digest(), expect);
      EXPECT_EQ(crypto::sha256_digest_count(), base + 1);
      ++handled;
    });
  }
  Payload shared(Bytes(2048, 0x9c));
  expect = crypto::sha256(shared.data(), shared.size());
  for (NodeId n = 1; n <= 8; ++n) {
    net->send(Message{0, n, MsgType::kAppData, shared});
  }
  base = crypto::sha256_digest_count();
  sim.run();
  EXPECT_EQ(handled, 8u);
  EXPECT_EQ(crypto::sha256_digest_count(), base + 1);
}

TEST(Payload, FrameSizeExposesThePinnedBuffer) {
  Payload frame(Bytes(100, 0x11));
  EXPECT_EQ(frame.frame_size(), 100u);
  EXPECT_EQ(frame.frame_size(), frame.size());

  // A slice still reports the whole backing frame it pins.
  Payload part = frame.slice({frame.data() + 10, 20});
  EXPECT_EQ(part.size(), 20u);
  EXPECT_EQ(part.frame_size(), 100u);

  // Copying out yields an independently owned buffer.
  Payload owned(part.to_bytes());
  EXPECT_EQ(owned.frame_size(), owned.size());
}

}  // namespace
}  // namespace atum::net
