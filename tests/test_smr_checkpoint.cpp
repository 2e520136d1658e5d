// Regression tests for the PBFT checkpoint window and the config-history
// hash chain:
//  * the executed history stays bounded by watermark_window however long
//    the instance runs (the seed pinned every batch frame forever), also
//    when every op is proposed from the previous op's decide callback;
//  * records adopted through state transfer count as decided, exactly like
//    executed ones;
//  * a laggard that re-derives the record digests of a nulled-op batch and
//    a view change's null filler from served bytes lands on the state
//    digest the executing replicas folded from batch digests;
//  * a laggard whose gap crosses the peers' truncation point installs the
//    stable checkpoint and reports the skipped range through the install
//    handler, then converges on the suffix;
//  * non-adjacent epochs with identical membership (A -> B -> A) get
//    distinct epoch hashes and therefore distinct instance tags;
//  * a member removed while partitioned learns of its removal from f+1
//    byte-identical removal notices once the partition heals (the
//    leave-confirmation gap);
//  * the log ring: it wraps many times with history_size() equal to the
//    slot-by-slot record count, a view change resets its tail, a NEW-VIEW
//    claiming a far seq does not stretch it, and it matches a std::map
//    model under random use;
//  * rank-bitmap votes count ranks past the first 64-bit word, in a
//    VoteSet and in a group of 70.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/serde.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "net/network.h"
#include "obs/registry.h"
#include "sim/simulator.h"
#include "smr/pbft.h"
#include "smr/reconfig.h"

namespace atum::smr {
namespace {

Bytes op_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

struct CkptGroup {
  sim::Simulator sim;
  net::SimNetwork net{sim, net::NetworkConfig::datacenter(), 77};
  crypto::KeyStore keys{29};
  GroupConfig cfg;
  std::vector<std::unique_ptr<obs::Registry>> metrics;  // one per replica
  std::vector<std::unique_ptr<PbftSmr>> replicas;
  std::map<NodeId, std::vector<std::pair<NodeId, Bytes>>> decided;
  // Runs after each decide is recorded (nullable).
  std::function<void(NodeId)> after_decide;

  // `tweak` (nullable) adjusts one replica's options before it is built.
  CkptGroup(std::size_t g, PbftOptions opt,
            const std::function<void(NodeId, PbftOptions&)>& tweak = {}) {
    for (NodeId n = 0; n < g; ++n) cfg.members.push_back(n);
    for (NodeId n = 0; n < g; ++n) {
      metrics.push_back(std::make_unique<obs::Registry>());
      PbftOptions own = opt;
      own.metrics = metrics.back().get();
      if (tweak) tweak(n, own);
      auto r = std::make_unique<PbftSmr>(net::Transport(net, n), cfg, keys, own,
                                         PbftFaultMode::kCorrect);
      r->set_decide_handler([this, n](std::uint64_t, NodeId origin, const net::Payload& op) {
        decided[n].emplace_back(origin, op.to_bytes());
        if (after_decide) after_decide(n);
      });
      replicas.push_back(std::move(r));
    }
  }

  PbftSmr& at(std::size_t i) { return *replicas[i]; }
  std::uint64_t counter(std::size_t i, const char* name) {
    return metrics[i]->counter(name).value();
  }
  void run_for(DurationMicros d) { sim.run_until(sim.now() + d); }

  // Delivers a pre-prepare from view 0's primary (replica 0) for `seq`,
  // carrying `ops` as (origin, origin seq, op) in order, to `to`.
  void forge_pre_prepare(std::uint64_t seq,
                         const std::vector<std::tuple<NodeId, std::uint64_t, Bytes>>& ops,
                         const std::vector<NodeId>& to) {
    ByteWriter region;
    region.varint(ops.size());
    for (const auto& [origin, origin_seq, op] : ops) {
      region.u64(origin);
      region.u64(origin_seq);
      region.bytes(op);
    }
    const crypto::Digest digest = crypto::sha256(region.data());
    ByteWriter w;
    w.u64(at(0).instance_tag());
    w.u64(0);  // view
    w.u64(seq);
    w.raw(digest.data(), digest.size());
    w.bytes(region.data());
    const net::Payload frame(w.take());
    for (NodeId n : to) net.send(net::Message{0, n, net::MsgType::kPbftPrePrepare, frame});
  }
};

// The ledger's in-order fast path (advance the watermark, no sparse set)
// and its out-of-order path end in the same state and the same encoding.
TEST(RequestLedger, InOrderAndOutOfOrderInsertsAgree) {
  RequestLedger in_order, reversed, mixed;
  for (std::uint64_t s = 1; s <= 10; ++s) EXPECT_TRUE(in_order.insert(7, s));
  for (std::uint64_t s = 10; s >= 1; --s) EXPECT_TRUE(reversed.insert(7, s));
  for (std::uint64_t s : {1, 2, 5, 3, 4, 6, 9, 7, 8, 10}) EXPECT_TRUE(mixed.insert(7, s));
  EXPECT_EQ(in_order, reversed);
  EXPECT_EQ(in_order, mixed);
  ByteWriter a, b;
  in_order.encode(a);
  reversed.encode(b);
  EXPECT_EQ(a.data(), b.data());

  EXPECT_FALSE(in_order.insert(7, 4));   // below the watermark
  EXPECT_FALSE(in_order.insert(7, 10));  // the watermark itself
  EXPECT_TRUE(in_order.contains(7, 10));
  EXPECT_FALSE(in_order.contains(7, 11));
  EXPECT_TRUE(in_order.insert(7, 12));   // a gap: kept sparse
  EXPECT_FALSE(in_order.insert(7, 12));
  EXPECT_FALSE(in_order.contains(7, 11));
  EXPECT_TRUE(in_order.insert(7, 11));   // fills the gap, folds 12 in
  EXPECT_TRUE(in_order.contains(7, 12));

  ByteReader r(b.data());
  EXPECT_EQ(RequestLedger::decode(r), reversed);
}

// The memory bound, asserted: 200 sequential ops with batch_max_ops=1 fill
// 200 log slots; with interval 4 / window 16 the retained history must
// never exceed the window and the base must have advanced far past zero.
// On the seed behavior (exec_history_ unbounded) history_size() would be
// 200 and history_base() 0 — this test fails there by two orders.
TEST(PbftCheckpoint, ExecutedHistoryStaysBoundedByWindow) {
  PbftOptions opt;
  opt.checkpoint_interval = 4;
  opt.watermark_window = 16;
  opt.batch_max_ops = 1;
  CkptGroup g(4, opt);

  for (int i = 0; i < 200; ++i) {
    g.at(static_cast<std::size_t>(i % 4)).propose(op_bytes("op" + std::to_string(i)));
    if (i % 10 == 9) g.run_for(millis(200));
  }
  g.run_for(seconds(10));

  ASSERT_EQ(g.decided[0].size(), 200u);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(g.decided[n], g.decided[0]) << "replica " << n;
    EXPECT_LE(g.at(n).history_size(), opt.watermark_window)
        << "replica " << n << " pinned more than the head window";
    EXPECT_GT(g.at(n).history_base(), 150u)
        << "replica " << n << " never truncated (seed behavior)";
    EXPECT_GE(g.at(n).stable_seq(), 180u) << "replica " << n;
  }
}

// smr.checkpoints_stable counts every advance of the stable checkpoint,
// whichever path completes the quorum: a peer vote arriving after our own
// execution (handle_checkpoint) or our execution completing a quorum whose
// votes arrived first (maybe_stabilize). Counting only the second path read
// 0 here while stable_seq() reached 400. An advance may skip boundaries, so
// the count is at most one per interval.
TEST(PbftCheckpoint, StableCheckpointCounterCountsEveryAdvance) {
  PbftOptions opt;
  opt.checkpoint_interval = 4;
  opt.watermark_window = 16;
  opt.batch_max_ops = 1;
  CkptGroup g(4, opt);

  for (int i = 0; i < 400; ++i) {
    g.at(static_cast<std::size_t>(i % 4)).propose(op_bytes("op" + std::to_string(i)));
    if (i % 10 == 9) g.run_for(millis(200));
  }
  g.run_for(seconds(10));

  for (NodeId n = 0; n < 4; ++n) {
    const std::uint64_t stable = g.at(n).stable_seq();
    const std::uint64_t counted = g.counter(n, "smr.checkpoints_stable");
    EXPECT_GE(stable, 396u) << "replica " << n;
    EXPECT_GE(counted, 1u) << "replica " << n << ": advances went uncounted";
    EXPECT_LE(counted, stable / opt.checkpoint_interval) << "replica " << n;
  }
}

// Records adopted through a state reply fire decide like executed ones, so
// they count like them: smr.ops_decided, smr.batches_executed and
// smr.batch_ops used to skip every adopted record.
TEST(PbftCheckpoint, AdoptedRecordsCountAsDecided) {
  PbftOptions opt;
  opt.batch_max_ops = 1;
  CkptGroup g(4, opt);

  g.net.isolate(3, true);
  for (int i = 0; i < 10; ++i) g.at(0).propose(op_bytes("op" + std::to_string(i)));
  g.run_for(seconds(2));
  ASSERT_EQ(g.decided[0].size(), 10u);
  ASSERT_TRUE(g.decided[3].empty());

  // Healed, replica 3 sees later seqs commit without ever having seen seqs
  // 1..10; no checkpoint truncated them (interval 64), so it fetches the
  // head range and adopts its records from f+1 byte-identical replies.
  g.net.isolate(3, false);
  for (int i = 10; i < 15; ++i) g.at(0).propose(op_bytes("op" + std::to_string(i)));
  g.run_for(seconds(10));

  ASSERT_EQ(g.decided[3], g.decided[0]);
  ASSERT_EQ(g.decided[3].size(), 15u);
  EXPECT_EQ(g.counter(3, "smr.checkpoint_installs"), 0u) << "caught up by range, not install";
  EXPECT_EQ(g.counter(3, "smr.ops_decided"), g.decided[3].size());
  EXPECT_EQ(g.counter(3, "smr.batches_executed"), g.at(3).batches_executed());
}

// Every op is proposed from inside the previous op's decide callback. With
// f = 0 replica 0 is a quorum on its own, so the whole chain executes
// inside the first propose(), stabilising and truncating at every
// boundary while ops are still being proposed. Replica 1 is a fresh
// laggard, cut off from the start: it installs a checkpoint, then adopts
// the records above it through a head-range reply.
TEST(PbftCheckpoint, ChainedProposalsDecideOnceAcrossBoundaries) {
  PbftOptions opt;
  opt.checkpoint_interval = 4;
  opt.watermark_window = 16;
  opt.batch_max_ops = 1;
  opt.view_change_timeout = seconds(30);  // the lone laggard must not take over
  CkptGroup g(2, opt);
  ASSERT_EQ(g.at(0).max_faults(), 0u);

  int next = 0, target = 0;
  auto propose_next = [&] {
    if (next < target) g.at(0).propose(op_bytes("op" + std::to_string(next++)));
  };
  g.after_decide = [&](NodeId n) {
    if (n == 0) propose_next();
  };
  std::uint64_t skipped = 0;
  g.at(1).set_install_handler(
      [&](std::uint64_t, std::uint64_t, std::uint64_t from_ops, std::uint64_t to_ops) {
        skipped += to_ops - from_ops;
      });

  g.net.isolate(1, true);
  target = 40;
  propose_next();
  ASSERT_EQ(g.decided[0].size(), 40u) << "the chain runs inside the first propose()";
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(g.decided[0][static_cast<std::size_t>(i)].second, op_bytes("op" + std::to_string(i)));
  }
  EXPECT_EQ(g.at(0).stable_seq(), 40u);
  EXPECT_LE(g.at(0).history_size(), opt.watermark_window);

  // Healed, replica 1 drops seqs 41..50 as beyond its window but installs
  // checkpoint 48 off replica 0's vote. Seq 51 then lands inside its new
  // window, and the head gap 49..50 comes back as a range reply.
  g.net.isolate(1, false);
  target = 50;
  propose_next();
  g.run_for(seconds(1));
  target = 51;
  propose_next();
  g.run_for(seconds(5));

  ASSERT_EQ(g.decided[0].size(), 51u);
  EXPECT_EQ(skipped, 48u);
  ASSERT_EQ(skipped + g.decided[1].size(), 51u);
  for (std::size_t i = 0; i < g.decided[1].size(); ++i) {
    EXPECT_EQ(g.decided[1][i], g.decided[0][static_cast<std::size_t>(skipped) + i])
        << "divergence at suffix index " << i;
  }
  for (NodeId n = 0; n < 2; ++n) {
    EXPECT_EQ(g.at(n).batches_executed(), 51u) << "replica " << n;
    EXPECT_LE(g.at(n).history_size(), opt.watermark_window) << "replica " << n;
  }
}

// The state digest chains record digests, and execution takes the batch
// digest as the record digest only when the record IS the batch: no op
// nulled, not a null filler. A laggard re-derives every record digest from
// the served bytes, so it pins that rule. Replica 3 is cut off while the
// group executes a batch repeating one request (seq 14) and then only
// prepares seq 17 (seq 16 never pre-prepared). Healed, with replica 2
// silent, it joins the view change that fills 16 with a null batch; the
// new view commits 16.. with its help, but it cannot execute them behind
// its gap and the group cannot stabilise 16 without its vote. The votes of
// replicas 0 and 1 for boundary 24 send it to one voter for the range
// (13, 24], which it adopts only because validate_chain re-folds it to
// digests those two votes confirm: a single replier can never make the f+1
// byte-identical replies of the fallback.
TEST(PbftCheckpoint, LaggardReFoldsNulledAndFillerRecordsToTheGroupsDigest) {
  PbftOptions opt;
  opt.checkpoint_interval = 4;
  opt.watermark_window = 16;
  opt.batch_max_ops = 1;
  opt.view_change_timeout = seconds(1);
  // View 0's primary never flushes by itself, so the test assigns every
  // view-0 seq; view 1's primary (replica 1) flushes each op at once.
  CkptGroup g(4, opt, [](NodeId n, PbftOptions& o) {
    if (n == 0) {
      o.batch_max_ops = 64;
      o.batch_flush_delay = seconds(3600);
    }
  });
  std::uint64_t origin_seq = 0;
  auto propose_and_assign = [&](std::uint64_t seq, int copies, const std::vector<NodeId>& to) {
    const Bytes op = op_bytes("op" + std::to_string(origin_seq + 1));
    g.at(1).propose(op);
    ++origin_seq;
    g.run_for(millis(50));
    std::vector<std::tuple<NodeId, std::uint64_t, Bytes>> ops(
        static_cast<std::size_t>(copies), {1, origin_seq, op});
    g.forge_pre_prepare(seq, ops, to);
    g.run_for(millis(200));
  };

  for (std::uint64_t seq = 1; seq <= 13; ++seq) propose_and_assign(seq, 1, {0, 1, 2, 3});
  for (NodeId n = 0; n < 4; ++n) {
    ASSERT_EQ(g.at(n).batches_executed(), 13u) << "replica " << n;
    ASSERT_EQ(g.at(n).stable_seq(), 12u) << "replica " << n;
  }

  g.net.isolate(3, true);
  propose_and_assign(14, 2, {0, 1, 2});  // the repeat executes as a null op
  propose_and_assign(15, 1, {0, 1, 2});
  propose_and_assign(17, 1, {0, 1, 2});  // prepared, stuck behind seq 16
  ASSERT_EQ(g.at(0).batches_executed(), 15u);
  ASSERT_EQ(g.decided[0].size(), 15u) << "seq 14 decides its op once";

  g.net.isolate(3, false);
  g.at(2).set_fault(PbftFaultMode::kSilent);
  g.run_for(seconds(3));
  for (NodeId n : {0u, 1u, 3u}) ASSERT_EQ(g.at(n).view(), 1u) << "replica " << n;
  ASSERT_EQ(g.at(0).batches_executed(), 17u) << "null filler 16 and batch 17 executed";
  ASSERT_EQ(g.at(3).batches_executed(), 13u) << "the laggard is stuck behind seq 14";
  ASSERT_EQ(g.at(0).stable_seq(), 12u) << "16 cannot stabilise without the laggard";

  for (int i = 0; i < 7; ++i) g.at(0).propose(op_bytes("tail" + std::to_string(i)));
  g.run_for(seconds(3));

  EXPECT_EQ(g.counter(3, "smr.checkpoint_installs"), 0u) << "caught up by records, not install";
  EXPECT_EQ(g.decided[3], g.decided[0]);
  EXPECT_EQ(g.decided[0].size(), 23u);
  for (NodeId n : {0u, 1u, 3u}) {
    EXPECT_EQ(g.at(n).batches_executed(), 24u) << "replica " << n;
    EXPECT_EQ(g.at(n).stable_seq(), 24u) << "replica " << n;
    EXPECT_EQ(g.at(n).state_digest(), g.at(0).state_digest()) << "replica " << n;
  }
}

// Checkpoints keep advancing across a view change (the new primary's
// instance continues the same digest chain).
TEST(PbftCheckpoint, WindowSurvivesViewChange) {
  PbftOptions opt;
  opt.checkpoint_interval = 4;
  opt.watermark_window = 16;
  opt.batch_max_ops = 1;
  opt.view_change_timeout = millis(500);
  CkptGroup g(4, opt);

  for (int i = 0; i < 20; ++i) g.at(1).propose(op_bytes("a" + std::to_string(i)));
  g.run_for(seconds(5));
  ASSERT_EQ(g.decided[1].size(), 20u);

  g.at(0).set_fault(PbftFaultMode::kSilent);  // primary of view 0 dies
  for (int i = 0; i < 20; ++i) g.at(1).propose(op_bytes("b" + std::to_string(i)));
  g.run_for(seconds(20));

  ASSERT_EQ(g.decided[1].size(), 40u);
  for (NodeId n = 1; n < 4; ++n) {
    EXPECT_EQ(g.decided[n], g.decided[1]) << "replica " << n;
    EXPECT_GE(g.at(n).view(), 1u);
    EXPECT_LE(g.at(n).history_size(), opt.watermark_window) << "replica " << n;
    EXPECT_GE(g.at(n).stable_seq(), 20u)
        << "replica " << n << ": checkpoints must keep stabilizing in the new view";
  }
}

// A laggard cut off across several checkpoint boundaries cannot replay the
// truncated prefix: it must install the peers' stable checkpoint, report
// the skipped ops through the install handler, and decide the suffix
// identically — no op lost, none duplicated, ordinals accounted for.
TEST(PbftCheckpoint, InstallCatchUpAccountsForSkippedOps) {
  PbftOptions opt;
  opt.checkpoint_interval = 4;
  opt.watermark_window = 16;
  opt.batch_max_ops = 1;
  CkptGroup g(4, opt);

  g.net.isolate(3, true);
  for (int i = 0; i < 60; ++i) {
    g.at(0).propose(op_bytes("op" + std::to_string(i)));
    if (i % 10 == 9) g.run_for(millis(200));
  }
  g.run_for(seconds(5));
  ASSERT_EQ(g.decided[0].size(), 60u);
  ASSERT_TRUE(g.decided[3].empty());
  // The servers really truncated past the laggard's position.
  ASSERT_GT(g.at(0).history_base(), 0u);

  std::uint64_t skipped = 0;
  std::uint64_t installs = 0;
  g.at(3).set_install_handler(
      [&](std::uint64_t from_seq, std::uint64_t to_seq, std::uint64_t from_ops,
          std::uint64_t to_ops) {
        EXPECT_LT(from_seq, to_seq);
        skipped += to_ops - from_ops;
        ++installs;
      });
  g.net.isolate(3, false);
  for (int i = 60; i < 72; ++i) g.at(0).propose(op_bytes("op" + std::to_string(i)));
  g.run_for(seconds(30));
  // Once installed, the replica takes part in agreement again: ops proposed
  // now must decide at replica 3 through the normal three-phase path.
  for (int i = 72; i < 74; ++i) g.at(0).propose(op_bytes("op" + std::to_string(i)));
  g.run_for(seconds(10));

  ASSERT_EQ(g.decided[0].size(), 74u);
  EXPECT_GE(installs, 1u);
  ASSERT_EQ(skipped + g.decided[3].size(), 74u) << "gap + suffix must cover the sequence";
  EXPECT_GT(g.decided[3].size(), 0u);
  for (std::size_t i = 0; i < g.decided[3].size(); ++i) {
    EXPECT_EQ(g.decided[3][i], g.decided[0][static_cast<std::size_t>(skipped) + i])
        << "divergence at suffix index " << i;
  }
  EXPECT_LE(g.at(3).history_size(), opt.watermark_window);
}

// The log ring wraps many times: 12.5 windows of seqs through a window of
// 16 slots, checkpointing every 4. After every decide, the O(1)
// history_size() equals the slot-by-slot count of executed records, and
// the ring never holds storage for more seqs than the window.
TEST(PbftCheckpoint, LogRingWrapsManyTimesWithExactHistory) {
  PbftOptions opt;
  opt.checkpoint_interval = 4;
  opt.watermark_window = 16;
  opt.batch_max_ops = 1;
  CkptGroup g(4, opt);
  std::size_t checks = 0;
  g.after_decide = [&](NodeId n) {
    const PbftSmr& r = g.at(n);
    ASSERT_EQ(r.history_size(), r.records_held()) << "replica " << n;
    ASSERT_EQ(r.history_base() + r.history_size(), r.batches_executed()) << "replica " << n;
    ASSERT_LE(r.log_capacity(), opt.watermark_window) << "replica " << n;
    ++checks;
  };

  constexpr int kOps = 200;
  for (int i = 0; i < kOps; ++i) {
    g.at(static_cast<std::size_t>(i % 4)).propose(op_bytes("op" + std::to_string(i)));
    if (i % 10 == 9) g.run_for(millis(200));
  }
  g.run_for(seconds(10));

  ASSERT_EQ(g.decided[0].size(), static_cast<std::size_t>(kOps));
  EXPECT_EQ(checks, 4u * kOps);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(g.decided[n], g.decided[0]) << "replica " << n;
    EXPECT_EQ(g.at(n).batches_executed(), static_cast<std::uint64_t>(kOps)) << "replica " << n;
    EXPECT_GE(g.at(n).stable_seq(), 10 * opt.watermark_window) << "replica " << n;
    EXPECT_EQ(g.at(n).history_size(), g.at(n).records_held()) << "replica " << n;
  }
}

// A view change drops the log's tail above what it carries over, mid
// window. Replica 3 alone logs forged view-0 batches for seqs 7..9 (never
// prepared anywhere, so never carried), and its prepares give replicas 1
// and 2 slots there too; when view 0's primary dies, the new view resets
// those slots at every replica and reassigns seq 7 to the pending op.
// Nothing forged decides, everyone decides the same ops in the same order,
// and the history count stays exact.
TEST(PbftCheckpoint, ViewChangeTruncatesTheTailMidWindow) {
  PbftOptions opt;
  opt.checkpoint_interval = 4;
  opt.watermark_window = 16;
  opt.batch_max_ops = 1;
  opt.view_change_timeout = seconds(1);
  // View 0's primary never flushes by itself: the test assigns view-0 seqs.
  CkptGroup g(4, opt, [](NodeId n, PbftOptions& o) {
    if (n == 0) {
      o.batch_max_ops = 64;
      o.batch_flush_delay = seconds(3600);
    }
  });
  g.after_decide = [&](NodeId n) {
    ASSERT_EQ(g.at(n).history_size(), g.at(n).records_held()) << "replica " << n;
  };

  for (std::uint64_t seq = 1; seq <= 6; ++seq) {
    const Bytes op = op_bytes("a" + std::to_string(seq));
    g.at(1).propose(op);
    g.run_for(millis(50));
    g.forge_pre_prepare(seq, {{1, seq, op}}, {0, 1, 2, 3});
    g.run_for(millis(200));
  }
  for (NodeId n = 0; n < 4; ++n) {
    ASSERT_EQ(g.at(n).batches_executed(), 6u) << "replica " << n;
    ASSERT_EQ(g.at(n).stable_seq(), 4u) << "replica " << n;
  }

  // The primary's own ops skip the client cross-check, so replica 3 logs
  // these; nobody else ever sees them.
  for (std::uint64_t seq = 7; seq <= 9; ++seq) {
    g.forge_pre_prepare(seq, {{0, 100 + seq, op_bytes("forged" + std::to_string(seq))}}, {3});
  }
  g.run_for(millis(200));
  ASSERT_EQ(g.at(3).batches_executed(), 6u);

  for (NodeId n = 1; n < 4; ++n) ASSERT_EQ(g.at(n).log_span(), 5u) << "replica " << n;

  g.at(0).set_fault(PbftFaultMode::kSilent);
  g.at(2).propose(op_bytes("b0"));
  g.run_for(seconds(5));
  for (NodeId n = 1; n < 4; ++n) {
    ASSERT_EQ(g.at(n).view(), 1u) << "replica " << n;
    ASSERT_EQ(g.at(n).batches_executed(), 7u) << "replica " << n;
    EXPECT_EQ(g.at(n).log_span(), 3u) << "replica " << n << ": slots 8..9 outlived the view change";
  }

  for (int i = 1; i < 5; ++i) g.at(2).propose(op_bytes("b" + std::to_string(i)));
  g.run_for(seconds(5));

  for (NodeId n = 1; n < 4; ++n) {
    EXPECT_EQ(g.at(n).view(), 1u) << "replica " << n;
    EXPECT_EQ(g.at(n).batches_executed(), 11u) << "replica " << n;
    EXPECT_EQ(g.decided[n], g.decided[1]) << "replica " << n;
    EXPECT_EQ(g.at(n).state_digest(), g.at(1).state_digest()) << "replica " << n;
    EXPECT_EQ(g.at(n).history_size(), g.at(n).records_held()) << "replica " << n;
  }
  ASSERT_EQ(g.decided[3].size(), 11u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(g.decided[3][6 + i], std::make_pair(NodeId{2}, op_bytes("b" + std::to_string(i))))
        << "seq " << 7 + i << " carries the new view's op, not the forged one";
  }
}

// A NEW-VIEW's stable seq is whatever its signer claims. One claiming
// 2^40 carries an O entry there; the replica enters the view, but the log
// ring does not stretch to that seq (it would need 2^40 slots).
TEST(PbftCheckpoint, NewViewFarPastTheWindowDoesNotStretchTheLog) {
  PbftOptions opt;
  opt.watermark_window = 16;
  CkptGroup g(4, opt);
  const std::uint64_t far = std::uint64_t{1} << 40;
  ByteWriter body;
  body.u64(1);    // new view; its primary is replica 1
  body.u64(far);  // claimed stable seq
  body.varint(1);
  body.varint(10);  // O entry: u64 seq, bytes(ops region of the null batch)
  body.u64(far + 1);
  body.varint(1);
  body.varint(0);
  const crypto::Signature sig = g.keys.key_of(1).sign(body.data());
  ByteWriter w;
  w.u64(g.at(0).instance_tag());
  w.raw(body.data().data(), body.size());
  w.raw(sig.data(), sig.size());
  g.net.send(net::Message{1, 2, net::MsgType::kPbftNewView, net::Payload(w.take())});
  g.run_for(millis(100));

  EXPECT_EQ(g.at(2).view(), 1u);
  EXPECT_LE(g.at(2).log_span(), opt.watermark_window);
  EXPECT_LE(g.at(2).log_capacity(), opt.watermark_window);
}

// Votes are rank bits over the sorted members; ranks from 64 up live past
// the first word.
TEST(VoteSet, CountsAndFindsRanksAcrossWordBoundaries) {
  VoteSet v;
  EXPECT_EQ(v.size(), 0u);
  for (std::size_t rank : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 200u}) {
    EXPECT_FALSE(v.contains(rank));
    EXPECT_TRUE(v.insert(rank));
    EXPECT_FALSE(v.insert(rank)) << "a second vote from rank " << rank << " does not count";
    EXPECT_TRUE(v.contains(rank));
  }
  EXPECT_EQ(v.size(), 8u);
  EXPECT_FALSE(v.contains(62));
  EXPECT_FALSE(v.contains(66));
  EXPECT_FALSE(v.contains(199));
  EXPECT_FALSE(v.contains(1000)) << "beyond every stored word";
  v.clear();
  EXPECT_EQ(v.size(), 0u);
  for (std::size_t rank : {0u, 64u, 200u}) EXPECT_FALSE(v.contains(rank));
  EXPECT_TRUE(v.insert(200));
  EXPECT_EQ(v.size(), 1u);
}

// A group of 70 (f = 23): with 23 low-rank backups silent, the prepare and
// commit quorums (46 and 47) need every correct replica, including the six
// whose ranks (64..69) fall in the second bitmap word.
TEST(PbftCheckpoint, QuorumsCountVotesFromRanksPastTheFirstWord) {
  PbftOptions opt;
  opt.view_change_timeout = seconds(30);  // the live primary must stay
  CkptGroup g(70, opt);
  ASSERT_EQ(g.at(0).max_faults(), 23u);
  for (NodeId n = 1; n <= 23; ++n) g.at(n).set_fault(PbftFaultMode::kSilent);

  for (int i = 0; i < 3; ++i) g.at(69).propose(op_bytes("op" + std::to_string(i)));
  g.run_for(seconds(5));

  for (NodeId n : {0u, 24u, 63u, 64u, 69u}) {
    ASSERT_EQ(g.decided[n].size(), 3u) << "replica " << n;
    EXPECT_EQ(g.decided[n], g.decided[0]) << "replica " << n;
    EXPECT_EQ(g.at(n).view(), 0u) << "replica " << n;
  }
  EXPECT_TRUE(g.decided[1].empty());
}

// SeqRing against a std::map model: random slot writes within a sliding
// window, truncations at both ends and growth past the capacity leave the
// same live slots with the same contents.
TEST(SeqRing, MatchesAMapModelUnderRandomUse) {
  struct Slot {
    std::uint64_t value = 0;
    void reset() { value = 0; }
  };
  SeqRing<Slot> ring;
  std::map<std::uint64_t, std::uint64_t> model;  // seq -> value, 0 = reset
  std::uint64_t base = 0;
  std::uint64_t state = 12345;
  auto next = [&](std::uint64_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % bound;
  };
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t span = step < 10000 ? 16 : 100;  // forces growth midway
    switch (next(10)) {
      case 0: {  // truncate at a checkpoint
        const std::uint64_t to = base + next(span / 2 + 1);
        ring.truncate_through(to);
        model.erase(model.begin(), model.upper_bound(to));
        base = std::max(base, to);
        break;
      }
      case 1: {  // a view change drops the tail
        const std::uint64_t keep = base + next(span);
        ring.truncate_after(keep);
        model.erase(model.upper_bound(keep), model.end());
        break;
      }
      default: {
        const std::uint64_t seq = base + 1 + next(span);
        const std::uint64_t value = 1 + next(1000);
        ring.at(seq).value = value;
        model[seq] = value;
      }
    }
    ASSERT_EQ(ring.base(), base);
    for (std::uint64_t seq = base + 1; seq <= base + span; ++seq) {
      const Slot* slot = ring.find(seq);
      const auto it = model.find(seq);
      const std::uint64_t want = it == model.end() ? 0 : it->second;
      ASSERT_EQ(slot == nullptr ? 0 : slot->value, want) << "step " << step << " seq " << seq;
      if (slot == nullptr) {
        ASSERT_TRUE(seq > ring.top()) << "a live seq must be found";
      }
    }
  }
  EXPECT_GE(ring.capacity(), 100u);
  EXPECT_LE(ring.capacity(), 256u);
}

GroupConfig members(std::initializer_list<NodeId> ns) {
  GroupConfig c;
  c.members = ns;
  c.normalize();
  return c;
}

struct ChainHarness {
  sim::Simulator sim;
  net::SimNetwork net{sim, net::NetworkConfig::datacenter(), 53};
  crypto::KeyStore keys{17};
  EngineOptions opt;
  std::map<NodeId, std::unique_ptr<ReconfigurableSmr>> nodes;

  ChainHarness() {
    opt.kind = EngineKind::kAsync;
    opt.pbft.view_change_timeout = millis(500);
  }

  void add_node(NodeId n, const GroupConfig& cfg) {
    nodes[n] = std::make_unique<ReconfigurableSmr>(net, n, cfg, keys, opt);
  }
  void run_for(DurationMicros d) { sim.run_until(sim.now() + d); }
};

// A -> B -> A: the third epoch has the same membership as the first but a
// different chain hash, so the PBFT instance tag differs too — an
// old-instance laggard can never adopt the new instance's history.
TEST(EpochChain, IdenticalMembershipsNonAdjacentEpochsGetDistinctTags) {
  ChainHarness h;
  auto a = members({0, 1, 2, 3});
  for (NodeId n : {0u, 1u, 2u, 3u, 4u}) h.add_node(n, a);
  // Node 4 idles with config A but is not a member; it joins in epoch B.

  std::vector<crypto::Digest> hashes;
  std::vector<std::uint64_t> tags;
  auto record = [&](NodeId n) {
    hashes.push_back(h.nodes[n]->epoch_hash());
    tags.push_back(crypto::digest_prefix64(h.nodes[n]->epoch_hash()));
  };
  record(0);  // epoch 0 (A)

  h.nodes[0]->propose_add(4);
  h.run_for(seconds(5));
  ASSERT_EQ(h.nodes[0]->epoch(), 1u);
  record(0);  // epoch 1 (B)

  h.nodes[1]->propose_remove(4);
  h.run_for(seconds(5));
  ASSERT_EQ(h.nodes[0]->epoch(), 2u);
  record(0);  // epoch 2 (A again)

  EXPECT_NE(hashes[0], hashes[1]);
  EXPECT_NE(hashes[1], hashes[2]);
  EXPECT_NE(hashes[0], hashes[2]) << "A->B->A epochs must not share a chain hash";
  EXPECT_NE(tags[0], tags[2]) << "A->B->A epochs must not share an instance tag";

  // All members of the final config agree on the chain head.
  for (NodeId n : a.members) {
    EXPECT_EQ(h.nodes[n]->epoch_hash(), hashes[2]) << "node " << n;
    EXPECT_EQ(h.nodes[n]->epoch(), 2u) << "node " << n;
  }
}

// The leave-confirmation gap: node 3 is partitioned while the group decides
// its removal; the config op retired the instance that decided it, so node
// 3 can never learn the outcome from that instance. After the heal, the
// retried removal notices (f+1 byte-identical from members of its
// last-known config) close the gap at the protocol level.
TEST(EpochChain, PartitionedRemovedMemberLearnsRemovalFromNotices) {
  ChainHarness h;
  auto cfg = members({0, 1, 2, 3});
  for (NodeId n : cfg.members) h.add_node(n, cfg);

  std::vector<std::pair<std::uint64_t, bool>> node3_configs;  // (epoch, contains self)
  h.nodes[3]->set_config_handler([&](std::uint64_t epoch, const GroupConfig& c) {
    node3_configs.emplace_back(epoch, c.contains(3));
  });

  h.net.isolate(3, true);
  h.run_for(millis(100));
  h.nodes[0]->propose_remove(3);
  h.run_for(seconds(2));
  ASSERT_EQ(h.nodes[0]->epoch(), 1u);
  ASSERT_TRUE(h.nodes[3]->active()) << "zombie: decided out but never told";
  ASSERT_TRUE(node3_configs.empty());

  h.net.isolate(3, false);
  h.run_for(seconds(10));  // covers the 1 s and 5 s notice retries

  ASSERT_EQ(node3_configs.size(), 1u) << "node 3 must learn of its removal exactly once";
  EXPECT_EQ(node3_configs[0].first, 1u);
  EXPECT_FALSE(node3_configs[0].second);
  EXPECT_FALSE(h.nodes[3]->active());
  EXPECT_EQ(h.nodes[3]->epoch_hash(), h.nodes[0]->epoch_hash())
      << "the notice carries the new chain head";
}

}  // namespace
}  // namespace atum::smr
