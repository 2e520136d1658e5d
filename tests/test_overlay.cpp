// Tests for the overlay layer: H-graph structure, group-message acceptance
// (majority vouching + digest optimization), random walks (bulk RNG,
// certificate chains, uniformity), and gossip policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/stats.h"
#include "crypto/keys.h"
#include "net/network.h"
#include "overlay/gossip.h"
#include "overlay/group_message.h"
#include "overlay/hgraph.h"
#include "overlay/random_walk.h"
#include "sim/simulator.h"

namespace atum::overlay {
namespace {

// ---------------------------------------------------------------------------
// HGraph
// ---------------------------------------------------------------------------

TEST(HGraph, BootstrapSingleVertex) {
  HGraph g(3);
  g.add_first(7);
  EXPECT_EQ(g.size(), 1u);
  EXPECT_TRUE(g.contains(7));
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(g.successor(c, 7), 7u);
    EXPECT_EQ(g.predecessor(c, 7), 7u);
  }
  EXPECT_TRUE(g.validate());
  EXPECT_TRUE(g.neighbors(7).empty());
}

TEST(HGraph, InsertAfterMaintainsRing) {
  HGraph g(1);
  g.add_first(0);
  g.insert_after(0, 0, 1);
  g.insert_after(0, 1, 2);
  EXPECT_EQ(g.successor(0, 0), 1u);
  EXPECT_EQ(g.successor(0, 1), 2u);
  EXPECT_EQ(g.successor(0, 2), 0u);
  EXPECT_EQ(g.predecessor(0, 0), 2u);
  EXPECT_TRUE(g.validate());
}

TEST(HGraph, InsertRandomKeepsAllCyclesValid) {
  Rng rng(5);
  HGraph g(4);
  for (GroupId v = 0; v < 100; ++v) {
    if (v == 0) {
      g.add_first(v);
    } else {
      g.insert_random(v, rng);
    }
  }
  EXPECT_EQ(g.size(), 100u);
  EXPECT_TRUE(g.validate());
}

TEST(HGraph, RemoveBridgesTheGap) {
  Rng rng(6);
  HGraph g(2);
  for (GroupId v = 0; v < 10; ++v) {
    if (v == 0) {
      g.add_first(v);
    } else {
      g.insert_random(v, rng);
    }
  }
  GroupId pred = g.predecessor(0, 5), succ = g.successor(0, 5);
  g.remove(5);
  EXPECT_FALSE(g.contains(5));
  if (pred != 5 && succ != 5) {
    EXPECT_EQ(g.successor(0, pred), succ);
  }
  EXPECT_TRUE(g.validate());
}

TEST(HGraph, RemoveDownToOneVertex) {
  Rng rng(7);
  HGraph g(3);
  g.add_first(0);
  g.insert_random(1, rng);
  g.insert_random(2, rng);
  g.remove(1);
  g.remove(2);
  EXPECT_EQ(g.size(), 1u);
  EXPECT_EQ(g.successor(0, 0), 0u);
  EXPECT_TRUE(g.validate());
}

TEST(HGraph, ConstantDegree) {
  Rng rng(8);
  HGraph g(5);
  for (GroupId v = 0; v < 64; ++v) {
    if (v == 0) {
      g.add_first(v);
    } else {
      g.insert_random(v, rng);
    }
  }
  for (GroupId v = 0; v < 64; ++v) {
    EXPECT_EQ(g.links(v).size(), 10u);           // 2 per cycle
    EXPECT_LE(g.neighbors(v).size(), 10u);        // distinct neighbors
    EXPECT_GE(g.neighbors(v).size(), 1u);
  }
}

TEST(HGraph, ErrorsOnUnknownVertices) {
  HGraph g(2);
  g.add_first(1);
  EXPECT_THROW(g.successor(0, 99), std::invalid_argument);
  EXPECT_THROW(g.remove(99), std::invalid_argument);
  EXPECT_THROW(g.insert_after(0, 99, 5), std::invalid_argument);
  EXPECT_THROW(g.insert_after(0, 1, 1), std::invalid_argument);  // duplicate
}

TEST(HGraph, ZeroCyclesRejected) { EXPECT_THROW(HGraph(0), std::invalid_argument); }

// ---------------------------------------------------------------------------
// Group messages
// ---------------------------------------------------------------------------

struct GmFixture : ::testing::Test {
  sim::Simulator sim;
  net::SimNetwork net{sim, net::NetworkConfig::datacenter(), 77};
  Rng rng{11};
  std::vector<NodeId> group_a{1, 2, 3, 4, 5};  // sending vgroup
  NodeId receiver = 100;
  std::vector<std::pair<GroupMessageId, net::Payload>> delivered;
  std::unique_ptr<GroupMessageReceiver> rx;

  void make_receiver(std::size_t claimed_size = 5) {
    rx = std::make_unique<GroupMessageReceiver>(
        net::Transport(net, receiver),
        [this](const GroupMessageId& id, NodeId, net::Payload p) {
          delivered.emplace_back(id, std::move(p));
        });
    rx->set_group_size_fn([claimed_size](GroupId g) -> std::optional<std::size_t> {
      if (g == 50) return claimed_size;
      return std::nullopt;
    });
  }

  void send_from_all(const Bytes& payload, const std::vector<NodeId>& senders) {
    for (NodeId s : senders) {
      net::Transport t(net, s);
      send_group_message(t, group_a, GroupMessageId{50, 9}, {receiver}, payload, rng);
    }
  }
};

TEST_F(GmFixture, AcceptsWithAllSendersCorrect) {
  make_receiver();
  send_from_all(Bytes{0xAA}, group_a);
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].second, Bytes{0xAA});
  EXPECT_EQ(delivered[0].first.from_group, 50u);
}

TEST_F(GmFixture, AcceptsWithExactMajority) {
  make_receiver();
  send_from_all(Bytes{0xBB}, {1, 2, 3});  // 3 of 5 = majority
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
}

TEST_F(GmFixture, RejectsBelowMajority) {
  make_receiver();
  send_from_all(Bytes{0xCC}, {1, 2});  // 2 of 5 < majority
  sim.run();
  EXPECT_TRUE(delivered.empty());
}

TEST_F(GmFixture, DeliversExactlyOnceOnDuplicates) {
  make_receiver();
  send_from_all(Bytes{0xDD}, group_a);
  sim.run();
  send_from_all(Bytes{0xDD}, group_a);  // same id resent
  sim.run();
  EXPECT_EQ(delivered.size(), 1u);
}

// Regression: a duplicate arriving AFTER its tombstone expired used to mint
// a fresh Pending entry and deliver the same GroupMessageId a second time.
// The rolling delivered-id set (kept for ~8 TTLs past delivery) must drop it.
TEST_F(GmFixture, PostTtlDuplicateIsNotRedelivered) {
  make_receiver();
  rx->set_tombstone_ttl(seconds(1));
  send_from_all(Bytes{0xD7}, group_a);
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);

  // Let the tombstone expire, then prove it is really gone: an unrelated
  // frame triggers the GC sweep and the pending table empties.
  sim.run_until(sim.now() + seconds(3));
  for (NodeId s : group_a) {
    net::Transport t(net, s);
    send_group_message(t, group_a, GroupMessageId{50, 10}, {receiver}, Bytes{0x11}, rng);
  }
  sim.run();
  ASSERT_EQ(delivered.size(), 2u);
  // Only the fresh id's tombstone remains; the expired one was collected.
  EXPECT_EQ(rx->pending_count(), 1u) << "expired tombstone should have been collected";

  // The replayed id is past its tombstone but inside the rolling window.
  send_from_all(Bytes{0xD7}, group_a);
  sim.run();
  EXPECT_EQ(delivered.size(), 2u) << "post-TTL duplicate was re-delivered";
}

// The dedup window is two rotation generations (one rotation every 8 TTLs,
// taken lazily on arrival). An id delivered just before a rotation is still
// dropped after it, and is fresh again only once the second rotation has
// erased its generation.
TEST_F(GmFixture, DeliveredIdSurvivesOneRotationAndExpiresAtTheSecond) {
  make_receiver();
  rx->set_tombstone_ttl(seconds(1));
  auto send_id = [this](std::uint64_t seq, const Bytes& payload) {
    for (NodeId s : group_a) {
      net::Transport t(net, s);
      send_group_message(t, group_a, GroupMessageId{50, seq}, {receiver}, payload, rng);
    }
    sim.run();
  };
  send_id(1, Bytes{0x01});  // first arrival arms the first rotation ~8 s out
  ASSERT_EQ(delivered.size(), 1u);

  sim.run_until(seconds(7.9));
  send_id(2, Bytes{0x02});  // delivered just before the first rotation
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(rx->delivered_dedup_count(), 2u);

  sim.run_until(seconds(8.5));
  send_id(2, Bytes{0x02});  // this arrival rotates; id 2 is one generation old
  EXPECT_EQ(delivered.size(), 2u) << "dropped from the window after one rotation";
  EXPECT_EQ(rx->delivered_dedup_count(), 2u);

  sim.run_until(seconds(16.0));
  send_id(2, Bytes{0x02});  // the second rotation is not due until ~16.5 s
  EXPECT_EQ(delivered.size(), 2u);

  sim.run_until(seconds(17.0));
  send_id(2, Bytes{0x02});  // second rotation: both old deliveries age out
  ASSERT_EQ(delivered.size(), 3u) << "id stayed deduped past the second rotation";
  EXPECT_EQ(delivered.back().first.seq, 2u);
  EXPECT_EQ(rx->delivered_dedup_count(), 1u);  // only the re-delivery
}

// Buffered ids of an unknown sender group deliver in GroupMessageId order
// once its size is learned, whatever order they arrived in.
TEST_F(GmFixture, ReevaluateDeliversBufferedIdsInIdOrder) {
  make_receiver();
  bool known = false;
  rx->set_group_size_fn([&known](GroupId) -> std::optional<std::size_t> {
    if (!known) return std::nullopt;
    return 5;
  });
  std::vector<GroupMessageId> sent;
  Rng order(5);
  for (std::uint64_t i = 0; i < 24; ++i) {
    GroupId g = (i % 3 == 0) ? 60 : 50;
    sent.push_back(GroupMessageId{g, order.next_u64()});
  }
  for (const GroupMessageId& id : sent) {
    for (NodeId s : group_a) {
      net::Transport t(net, s);
      send_group_message(t, group_a, id, {receiver}, Bytes{0x5A}, rng);
    }
  }
  sim.run();
  ASSERT_TRUE(delivered.empty());
  EXPECT_EQ(rx->pending_count(), sent.size());

  known = true;
  rx->reevaluate();
  std::sort(sent.begin(), sent.end());
  ASSERT_EQ(delivered.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(delivered[i].first, sent[i]) << "delivery " << i;
  }
}

// A sender group that equivocates (node 3 vouches for two contents, each
// backed by a majority of 5) delivers exactly one of them: the lower
// digest, regardless of which content arrived first.
TEST_F(GmFixture, EquivocationDeliversTheLowerDigest) {
  make_receiver();
  bool known = false;
  rx->set_group_size_fn([&known](GroupId) -> std::optional<std::size_t> {
    if (!known) return std::nullopt;
    return 5;
  });
  const Bytes a{0xA1}, b{0xB2};
  const Bytes& lower = crypto::sha256(a) < crypto::sha256(b) ? a : b;
  auto send = [this](std::uint64_t seq, const Bytes& payload, std::vector<NodeId> senders) {
    for (NodeId s : senders) {
      net::Transport t(net, s);
      send_group_message(t, group_a, GroupMessageId{50, seq}, {receiver}, payload, rng);
    }
    sim.run();
  };
  send(1, a, {1, 2, 3});
  send(1, b, {3, 4, 5});
  send(2, b, {1, 2, 3});
  send(2, a, {3, 4, 5});
  ASSERT_TRUE(delivered.empty());

  known = true;
  rx->reevaluate();
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0].first.seq, 1u);
  EXPECT_EQ(delivered[0].second, lower);
  EXPECT_EQ(delivered[1].first.seq, 2u);
  EXPECT_EQ(delivered[1].second, lower);
}

TEST_F(GmFixture, DigestOptimizationOnlyMajoritySendsFull) {
  make_receiver();
  // Count wire message types: ranks 0..2 (of 5) send full, ranks 3..4 digest.
  std::uint64_t full = 0, digest = 0;
  net.attach(receiver, net::MsgType::kGroupMsgFull,
             [&](const net::Message&) { ++full; });
  net.attach(receiver, net::MsgType::kGroupMsgDigest,
             [&](const net::Message&) { ++digest; });
  send_from_all(Bytes{0xEE}, group_a);
  sim.run();
  EXPECT_EQ(full, 3u);
  EXPECT_EQ(digest, 2u);
}

TEST_F(GmFixture, ByzantineMinorityCannotForgeContent) {
  make_receiver();
  // Two Byzantine senders push a corrupted payload; three correct ones the
  // real payload. Only the real one is ever delivered.
  send_from_all(Bytes{0x01}, {1, 2});    // liars
  send_from_all(Bytes{0x02}, {3, 4, 5}); // truth-tellers (majority)
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].second, Bytes{0x02});
}

TEST_F(GmFixture, UnknownGroupBuffersUntilReevaluate) {
  make_receiver();
  std::size_t known_size = 0;  // group unknown initially
  rx->set_group_size_fn([&known_size](GroupId) -> std::optional<std::size_t> {
    if (known_size == 0) return std::nullopt;
    return known_size;
  });
  send_from_all(Bytes{0x77}, group_a);
  sim.run();
  EXPECT_TRUE(delivered.empty());
  EXPECT_GT(rx->pending_count(), 0u);
  known_size = 5;  // composition learned via a neighbor update
  rx->reevaluate();
  ASSERT_EQ(delivered.size(), 1u);
}

TEST_F(GmFixture, MembershipFilterDropsOutsiders) {
  make_receiver();
  rx->set_membership_fn([this](GroupId g, NodeId n) {
    return g == 50 && std::find(group_a.begin(), group_a.end(), n) != group_a.end();
  });
  // Five outsiders flood identical content; must not be accepted.
  send_from_all(Bytes{0x99}, {200, 201, 202, 203, 204});
  sim.run();
  EXPECT_TRUE(delivered.empty());
  // Genuine members still get through.
  send_from_all(Bytes{0x98}, group_a);
  sim.run();
  EXPECT_EQ(delivered.size(), 1u);
}

// ---------------------------------------------------------------------------
// Zero-copy delivery & tombstone GC
// ---------------------------------------------------------------------------

TEST_F(GmFixture, DeliveryIsZeroCopyFromTheWire) {
  make_receiver();
  // Hand-encode one full frame and send the SAME frozen Payload from a
  // majority of senders (exactly what PreparedGroupMessage does per
  // sender): the delivered payload must be a slice of that buffer, not a
  // copy of it.
  ByteWriter w;
  w.u64(50);
  w.u64(9);
  w.bytes(Bytes{0xAB, 0xCD, 0xEF});
  net::Payload wire(w.take());
  for (NodeId s : {1, 2, 3}) {
    net::Transport t(net, s);
    t.send(receiver, net::MsgType::kGroupMsgFull, wire);
  }
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  const net::Payload& p = delivered[0].second;
  EXPECT_EQ(p, (Bytes{0xAB, 0xCD, 0xEF}));
  EXPECT_GE(p.data(), wire.data());                            // inside...
  EXPECT_LE(p.data() + p.size(), wire.data() + wire.size());   // ...the frame
  EXPECT_EQ(p.use_count(), wire.use_count());                  // same buffer
}

TEST_F(GmFixture, FanOutSharesOneWireBufferAcrossReceivers) {
  // Two receivers, one PreparedGroupMessage per sender: every delivered
  // payload aliases its sender's single frozen frame — the fan-out
  // materializes one buffer per *sender*, not one per recipient.
  std::vector<net::Payload> got;
  auto rx2 = std::make_unique<GroupMessageReceiver>(
      net::Transport(net, 101),
      [&](const GroupMessageId&, NodeId, net::Payload p) { got.push_back(std::move(p)); });
  rx2->set_group_size_fn([](GroupId) -> std::optional<std::size_t> { return 5; });
  make_receiver();
  for (NodeId s : group_a) {
    net::Transport t(net, s);
    send_group_message(t, group_a, GroupMessageId{50, 9}, {receiver, 101},
                       net::Payload(Bytes(2048, 0x5A)), rng);
  }
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  ASSERT_EQ(got.size(), 1u);
  // Both receivers hold slices; each aliases one of the three full-sender
  // frames, so at most 3 distinct buffers back any number of receivers.
  EXPECT_EQ(delivered[0].second, got[0]);
}

TEST_F(GmFixture, DeliveredTombstonesAreGarbageCollectedAfterTtl) {
  make_receiver();
  rx->set_tombstone_ttl(seconds(5.0));
  send_from_all(Bytes{0x11}, group_a);
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(rx->pending_count(), 1u);  // tombstone retained for dedup
  // Duplicates within the TTL are suppressed...
  send_from_all(Bytes{0x11}, group_a);
  sim.run();
  EXPECT_EQ(delivered.size(), 1u);
  EXPECT_EQ(rx->pending_count(), 1u);
  // ...and past the TTL the tombstone is swept on the next arrival.
  sim.run_until(sim.now() + seconds(6.0));
  net::Transport t(net, 1);
  send_group_message(t, group_a, GroupMessageId{50, 77}, {receiver}, net::Payload(Bytes{0x22}),
                     rng);
  sim.run();
  EXPECT_EQ(rx->pending_count(), 1u);  // only the new (undelivered) id remains
}

TEST_F(GmFixture, UndeliveredFloodFromByzantineSenderIsBounded) {
  make_receiver();
  rx->set_tombstone_ttl(seconds(2.0));
  // One Byzantine member of a known group mints a fresh id per tick and
  // sends digest-only frames that can never deliver (no full copy, no
  // majority). Undelivered buffering must expire like tombstones do —
  // otherwise this grows pending_ by one entry per id forever.
  net::Transport t(net, 1);
  for (std::uint64_t seq = 0; seq < 300; ++seq) {
    ByteWriter w;
    w.u64(50);
    w.u64(seq);
    crypto::Digest d = crypto::sha256(Bytes{static_cast<std::uint8_t>(seq)});
    w.raw(d.data(), d.size());
    t.send(receiver, net::MsgType::kGroupMsgDigest, w.take());
    sim.run_until(sim.now() + millis(100));
  }
  sim.run();
  EXPECT_TRUE(delivered.empty());
  // 2 s TTL at one fresh id per 100 ms: ~20 live entries, never 300.
  EXPECT_LT(rx->pending_count(), 40u);
}

TEST_F(GmFixture, PendingStaysBoundedUnderSustainedBroadcast) {
  make_receiver();
  rx->set_tombstone_ttl(seconds(2.0));
  constexpr std::uint64_t kRounds = 200;
  for (std::uint64_t seq = 0; seq < kRounds; ++seq) {
    for (NodeId s : group_a) {
      net::Transport t(net, s);
      send_group_message(t, group_a, GroupMessageId{50, seq}, {receiver},
                        net::Payload(Bytes{0x33}), rng);
    }
    sim.run_until(sim.now() + millis(100));
  }
  sim.run();
  EXPECT_EQ(delivered.size(), kRounds);
  // 2 s TTL at one delivery per 100 ms: ~20 live tombstones, never 200.
  EXPECT_LT(rx->pending_count(), 40u);
}

// ---------------------------------------------------------------------------
// Vouch-path digest caching: SHA-256 at most once per frame, regardless of
// how many receivers, relays, or digest-rank senders touch it.
// ---------------------------------------------------------------------------

TEST_F(GmFixture, SameFrameVouchedAtManyReceiversHashesOnce) {
  make_receiver();
  GroupMessageReceiver rx2(net::Transport(net, 101),
                           [&](const GroupMessageId&, NodeId, net::Payload) {});
  rx2.set_group_size_fn([](GroupId) -> std::optional<std::size_t> { return 5; });

  // Member 1 has rank 0 of 5: a full-payload sender. One frozen wire frame
  // fans out to both receivers.
  net::Payload payload(Bytes(512, 0xEE));
  PreparedGroupMessage msg(group_a, /*self=*/1, GroupMessageId{50, 9}, payload);
  net::Transport t(net, 1);
  const std::uint64_t base = crypto::sha256_digest_count();
  msg.send_to(t, {receiver, 101}, rng);
  sim.run();
  // Both receivers vouched for the SAME frame slice; the digest memo on
  // the frame's control block means exactly one SHA-256 ran.
  EXPECT_EQ(crypto::sha256_digest_count(), base + 1);
}

TEST_F(GmFixture, FullGroupSendHashesOncePerFrameAndOncePerSharedPayload) {
  make_receiver();
  std::vector<net::Payload> got2;
  GroupMessageReceiver rx2(net::Transport(net, 101),
                           [&](const GroupMessageId&, NodeId, net::Payload p) {
                             got2.push_back(std::move(p));
                           });
  rx2.set_group_size_fn([](GroupId) -> std::optional<std::size_t> { return 5; });

  // All five members send the same frozen payload to both receivers: ranks
  // 0-2 send full frames (one frozen frame each), ranks 3-4 send digests
  // derived from the SHARED payload buffer.
  net::Payload payload(Bytes(512, 0xEE));
  const std::uint64_t base = crypto::sha256_digest_count();
  for (NodeId s : group_a) {
    net::Transport t(net, s);
    PreparedGroupMessage(group_a, s, GroupMessageId{50, 9}, payload)
        .send_to(t, {receiver, 101}, rng);
  }
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  ASSERT_EQ(got2.size(), 1u);
  EXPECT_EQ(delivered[0].second, payload);
  // 3 full frames hashed once each (both receivers share each frame's
  // memo) + 1 digest for the shared payload reused by both digest-rank
  // senders. The uncached path would hash 3*2 (vouches) + 2 (senders) = 8.
  EXPECT_EQ(crypto::sha256_digest_count(), base + 4);
}

// ---------------------------------------------------------------------------
// Random walks
// ---------------------------------------------------------------------------

TEST(WalkState, StartMintsBulkRandomness) {
  Rng rng(3);
  auto w = WalkState::start(WalkId{5, 9}, WalkPurpose::kSample, 12, Bytes{1}, rng);
  EXPECT_EQ(w.randomness.size(), 12u);
  EXPECT_EQ(w.step, 0u);
  EXPECT_FALSE(w.done());
  EXPECT_EQ(w.path, std::vector<GroupId>{5});
}

TEST(WalkState, EncodeDecodeRoundTrip) {
  Rng rng(4);
  auto w = WalkState::start(WalkId{1, 2}, WalkPurpose::kJoinPlacement, 7, Bytes{9, 8}, rng);
  w.step = 3;
  w.path = {1, 4, 6};
  auto d = WalkState::decode(w.encode());
  EXPECT_EQ(d.id, w.id);
  EXPECT_EQ(d.purpose, WalkPurpose::kJoinPlacement);
  EXPECT_EQ(d.rwl, 7u);
  EXPECT_EQ(d.step, 3u);
  EXPECT_EQ(d.randomness, w.randomness);
  EXPECT_EQ(d.payload, w.payload);
  EXPECT_EQ(d.path, w.path);
}

TEST(WalkState, DecodeRejectsCorruptStates) {
  Rng rng(5);
  auto w = WalkState::start(WalkId{1, 2}, WalkPurpose::kSample, 5, {}, rng);
  Bytes wire = w.encode();
  wire.resize(wire.size() / 2);
  EXPECT_THROW(WalkState::decode(wire), SerdeError);
}

TEST(WalkState, PickLinkIsDeterministic) {
  Rng rng(6);
  auto w = WalkState::start(WalkId{1, 1}, WalkPurpose::kSample, 4, {}, rng);
  EXPECT_EQ(w.pick_link(10), w.pick_link(10));
  w.step = 1;
  // Different step uses a different pre-minted number (almost surely
  // different index for a large modulus).
  EXPECT_EQ(w.pick_link(1), 0u);
}

TEST(WalkState, ExhaustedWalkThrows) {
  Rng rng(7);
  auto w = WalkState::start(WalkId{1, 1}, WalkPurpose::kSample, 2, {}, rng);
  w.step = 2;
  EXPECT_TRUE(w.done());
  EXPECT_THROW(w.pick_link(3), std::logic_error);
}

struct CertFixture : ::testing::Test {
  crypto::KeyStore keys{42};
  WalkId id{10, 77};
  std::map<GroupId, std::vector<NodeId>> groups{
      {10, {1, 2, 3}}, {11, {4, 5, 6}}, {12, {7, 8, 9}}};

  HopCert make_cert(GroupId g, GroupId next, std::uint32_t step, std::size_t signer_count) {
    HopCert h;
    h.group = g;
    h.next_group = next;
    h.step = step;
    for (std::size_t i = 0; i < signer_count; ++i) {
      NodeId n = groups[g][i];
      h.sigs.emplace_back(n, sign_hop(id, step, g, next, keys.key_of(n)));
    }
    return h;
  }

  auto members_fn() {
    return [this](GroupId g) -> std::optional<std::vector<NodeId>> {
      auto it = groups.find(g);
      if (it == groups.end()) return std::nullopt;
      return it->second;
    };
  }
};

TEST_F(CertFixture, ValidChainVerifies) {
  CertChain c;
  c.hops.push_back(make_cert(10, 11, 0, 2));
  c.hops.push_back(make_cert(11, 12, 1, 2));
  auto selected = c.verify(id, 10, members_fn(), keys);
  ASSERT_TRUE(selected.has_value());
  EXPECT_EQ(*selected, 12u);
}

TEST_F(CertFixture, ChainRoundTripsThroughWire) {
  CertChain c;
  c.hops.push_back(make_cert(10, 11, 0, 2));
  auto decoded = CertChain::decode(c.encode());
  EXPECT_EQ(decoded.hops.size(), 1u);
  EXPECT_TRUE(decoded.verify(id, 10, members_fn(), keys).has_value());
}

TEST_F(CertFixture, RejectsInsufficientSigners) {
  CertChain c;
  c.hops.push_back(make_cert(10, 11, 0, 1));  // 1 of 3 < majority
  EXPECT_FALSE(c.verify(id, 10, members_fn(), keys).has_value());
}

TEST_F(CertFixture, RejectsBrokenLinkage) {
  CertChain c;
  c.hops.push_back(make_cert(10, 11, 0, 2));
  c.hops.push_back(make_cert(12, 11, 1, 2));  // hop from the wrong group
  EXPECT_FALSE(c.verify(id, 10, members_fn(), keys).has_value());
}

TEST_F(CertFixture, RejectsForgedSignature) {
  CertChain c;
  HopCert h = make_cert(10, 11, 0, 2);
  h.sigs[0].second[0] ^= 0x01;
  c.hops.push_back(h);
  EXPECT_FALSE(c.verify(id, 10, members_fn(), keys).has_value());
}

TEST_F(CertFixture, RejectsDuplicateSigners) {
  CertChain c;
  HopCert h = make_cert(10, 11, 0, 1);
  h.sigs.push_back(h.sigs[0]);  // same node twice
  c.hops.push_back(h);
  EXPECT_FALSE(c.verify(id, 10, members_fn(), keys).has_value());
}

TEST_F(CertFixture, RejectsWrongWalkId) {
  CertChain c;
  c.hops.push_back(make_cert(10, 11, 0, 2));
  WalkId other{10, 78};
  EXPECT_FALSE(c.verify(other, 10, members_fn(), keys).has_value());
}

TEST_F(CertFixture, VerificationCostGrowsWithChain) {
  CertChain c1, c3;
  c1.hops.push_back(make_cert(10, 11, 0, 2));
  c3.hops.push_back(make_cert(10, 11, 0, 2));
  c3.hops.push_back(make_cert(11, 12, 1, 2));
  c3.hops.push_back(make_cert(12, 10, 2, 2));
  EXPECT_LT(c1.verification_count(), c3.verification_count());
}

TEST(WalkUniformity, LongWalksPassChiSquare) {
  Rng rng(99);
  auto counts = simulate_walk_endpoints(32, 6, 12, 32000, rng);
  EXPECT_TRUE(passes_uniformity_test(counts, 0.99));
}

TEST(WalkUniformity, OneHopWalksAreNotUniform) {
  Rng rng(100);
  // A single hop can only reach direct neighbors: wildly non-uniform.
  auto counts = simulate_walk_endpoints(64, 3, 1, 64000, rng);
  EXPECT_FALSE(passes_uniformity_test(counts, 0.99));
}

TEST(WalkUniformity, OptimalLengthGrowsWithGroupCount) {
  Rng rng(101);
  std::size_t small = optimal_walk_length(8, 4, 0.99, 8000, 20, rng);
  std::size_t large = optimal_walk_length(512, 4, 0.99, 8000, 20, rng);
  EXPECT_LE(small, large);
  EXPECT_GE(large, 4u);
}

TEST(WalkUniformity, DenserGraphNeedsShorterWalks) {
  Rng rng(102);
  std::size_t sparse = optimal_walk_length(256, 2, 0.99, 8000, 25, rng);
  std::size_t dense = optimal_walk_length(256, 10, 0.99, 8000, 25, rng);
  EXPECT_LE(dense, sparse);
}

// ---------------------------------------------------------------------------
// Gossip policies
// ---------------------------------------------------------------------------

std::vector<NeighborRef> three_cycle_neighbors() {
  return {
      {100, 0, 0}, {101, 0, 1}, {102, 1, 0}, {103, 1, 1}, {104, 2, 0}, {105, 2, 1},
  };
}

TEST(Gossip, FloodRelaysEverywhere) {
  GossipState g(forward_flood());
  auto r = g.relays(BroadcastId{1, 1}, {}, three_cycle_neighbors());
  EXPECT_EQ(r.size(), 6u);
}

TEST(Gossip, CyclePolicyRestrictsButKeepsMandatoryLink) {
  GossipState g(forward_cycles({1}));
  auto r = g.relays(BroadcastId{1, 1}, {}, three_cycle_neighbors());
  // Cycle 1 both directions + the mandatory cycle-0 successor.
  ASSERT_EQ(r.size(), 3u);
  std::set<GroupId> targets;
  for (const auto& n : r) targets.insert(n.group);
  EXPECT_TRUE(targets.contains(100));  // mandatory deterministic link
  EXPECT_TRUE(targets.contains(102));
  EXPECT_TRUE(targets.contains(103));
}

TEST(Gossip, NonePolicyStillGuaranteesDelivery) {
  GossipState g(forward_none());
  auto r = g.relays(BroadcastId{1, 1}, {}, three_cycle_neighbors());
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].group, 100u);
  EXPECT_EQ(r[0].cycle, 0u);
  EXPECT_EQ(r[0].direction, 0);
}

TEST(Gossip, RandomPolicyIsDeterministicPerBroadcast) {
  auto f = forward_random(0.5, 7);
  auto g1 = GossipState(f), g2 = GossipState(f);
  auto n = three_cycle_neighbors();
  auto r1 = g1.relays(BroadcastId{3, 9}, {}, n);
  auto r2 = g2.relays(BroadcastId{3, 9}, {}, n);
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < r1.size(); ++i) EXPECT_EQ(r1[i].group, r2[i].group);
}

TEST(Gossip, RandomPolicyVariesAcrossBroadcasts) {
  GossipState g(forward_random(0.5, 7));
  auto n = three_cycle_neighbors();
  std::set<std::size_t> sizes;
  for (std::uint64_t s = 0; s < 32; ++s) {
    sizes.insert(g.relays(BroadcastId{1, s}, {}, n).size());
  }
  EXPECT_GT(sizes.size(), 1u);
}

TEST(Gossip, FirstSightingDedups) {
  GossipState g(forward_flood());
  EXPECT_TRUE(g.first_sighting(BroadcastId{1, 1}));
  EXPECT_FALSE(g.first_sighting(BroadcastId{1, 1}));
  EXPECT_TRUE(g.first_sighting(BroadcastId{1, 2}));
  EXPECT_TRUE(g.seen(BroadcastId{1, 1}));
  EXPECT_FALSE(g.seen(BroadcastId{2, 1}));
}

}  // namespace
}  // namespace atum::overlay
