// Edge cases of PBFT request batching: deadline vs size-bound flushes, the
// byte bound splitting a burst, view changes that strand a buffered batch,
// an equivocating primary sending conflicting BATCHES, a batch repeating
// one request, a non-canonical ops region, the SHA-256 volume a batch
// costs, and state transfer
// of a batched exec history to a head-gap replica. The happy paths (order,
// faults, checkpoints) live in test_smr_async.cpp; this file pins down the
// seams batching added.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/serde.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "smr/pbft.h"

namespace atum::smr {
namespace {

Bytes op_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

struct BatchGroup {
  sim::Simulator sim;
  net::SimNetwork net{sim, net::NetworkConfig::datacenter(), 4242};
  crypto::KeyStore keys{11};
  GroupConfig cfg;
  std::vector<std::unique_ptr<PbftSmr>> replicas;
  std::map<NodeId, std::vector<std::pair<NodeId, Bytes>>> decided;

  explicit BatchGroup(std::size_t g, PbftOptions opt = {},
                      std::vector<std::pair<std::size_t, PbftFaultMode>> faults = {}) {
    for (NodeId n = 0; n < g; ++n) cfg.members.push_back(n);
    for (NodeId n = 0; n < g; ++n) {
      PbftFaultMode mode = PbftFaultMode::kCorrect;
      for (auto [idx, m] : faults) {
        if (idx == n) mode = m;
      }
      auto r = std::make_unique<PbftSmr>(net::Transport(net, n), cfg, keys, opt, mode);
      r->set_decide_handler([this, n](std::uint64_t, NodeId origin, const net::Payload& op) {
        decided[n].emplace_back(origin, op.to_bytes());
      });
      replicas.push_back(std::move(r));
    }
  }

  PbftSmr& at(std::size_t i) { return *replicas[i]; }
  void run_for(DurationMicros d) { sim.run_until(sim.now() + d); }
};

// A partial batch (fewer ops than batch_max_ops) must not wait forever: the
// flush deadline fires and the whole buffer goes out as ONE sequence.
TEST(PbftBatching, DeadlineFlushesPartialBatchAsOneSeq) {
  PbftOptions opt;
  opt.batch_max_ops = 16;
  opt.batch_flush_delay = millis(5);
  BatchGroup g(4, opt);
  TimeMicros first_decide = -1;
  g.at(1).set_decide_handler([&](std::uint64_t, NodeId, const net::Payload&) {
    if (first_decide < 0) first_decide = g.sim.now();
  });
  const TimeMicros t0 = g.sim.now();
  for (int i = 0; i < 3; ++i) g.at(0).propose(op_bytes("op" + std::to_string(i)));
  g.run_for(seconds(1));
  ASSERT_EQ(g.decided[0].size(), 3u);
  // One seq for all three ops (quorum amortization actually happened)...
  EXPECT_EQ(g.at(0).batches_executed(), 1u);
  // ...and the flush waited for the deadline, not the full-batch trigger.
  ASSERT_GE(first_decide, 0);
  EXPECT_GE(first_decide - t0, opt.batch_flush_delay);
}

// A full batch flushes immediately — the deadline must not add latency when
// the size bound already tripped.
TEST(PbftBatching, FullBatchFlushesBeforeTheDeadline) {
  PbftOptions opt;
  opt.batch_max_ops = 16;
  opt.batch_flush_delay = millis(50);  // long enough to be visible if waited on
  BatchGroup g(4, opt);
  TimeMicros first_decide = -1;
  g.at(1).set_decide_handler([&](std::uint64_t, NodeId, const net::Payload&) {
    if (first_decide < 0) first_decide = g.sim.now();
  });
  const TimeMicros t0 = g.sim.now();
  for (int i = 0; i < 16; ++i) g.at(0).propose(op_bytes("op" + std::to_string(i)));
  g.run_for(seconds(1));
  ASSERT_EQ(g.decided[0].size(), 16u);
  EXPECT_EQ(g.at(0).batches_executed(), 1u);
  ASSERT_GE(first_decide, 0);
  EXPECT_LT(first_decide - t0, opt.batch_flush_delay);
}

// The byte bound splits a burst even when the op count fits: 64-byte ops
// under a 100-byte cap carve into two-op batches.
TEST(PbftBatching, ByteBoundSplitsBurstIntoMultipleSeqs) {
  PbftOptions opt;
  opt.batch_max_ops = 16;
  opt.batch_max_bytes = 100;
  BatchGroup g(4, opt);
  for (int i = 0; i < 4; ++i) {
    Bytes op(64, static_cast<std::uint8_t>(i));
    g.at(0).propose(std::move(op));
  }
  g.run_for(seconds(1));
  ASSERT_EQ(g.decided[0].size(), 4u);
  EXPECT_EQ(g.at(0).batches_executed(), 2u);
  for (NodeId n = 1; n < 4; ++n) EXPECT_EQ(g.decided[n], g.decided[0]);
}

// batch_max_ops = 1 is classic PBFT: every op its own sequence.
TEST(PbftBatching, BatchSizeOneDegeneratesToOneSeqPerOp) {
  PbftOptions opt;
  opt.batch_max_ops = 1;
  BatchGroup g(4, opt);
  for (int i = 0; i < 5; ++i) g.at(0).propose(op_bytes("op" + std::to_string(i)));
  g.run_for(seconds(2));
  ASSERT_EQ(g.decided[0].size(), 5u);
  EXPECT_EQ(g.at(0).batches_executed(), 5u);
}

// View change mid-batch: the primary buffers ops (deadline far away, size
// bound not reached) and then dies before flushing. The requests were
// broadcast, so the backups hold them in pending_, time out the primary,
// and the NEW primary re-proposes the stranded ops — nothing buffered is
// lost, nothing is duplicated.
TEST(PbftBatching, ViewChangeRescuesOpsStrandedInTheBatchBuffer) {
  PbftOptions opt;
  opt.batch_max_ops = 16;
  opt.batch_flush_delay = seconds(30.0);  // never fires inside the test
  opt.view_change_timeout = millis(500);
  BatchGroup g(4, opt);
  for (int i = 0; i < 3; ++i) g.at(0).propose(op_bytes("stranded" + std::to_string(i)));
  // The ops sit in replica 0's batch buffer; kill it before any flush.
  g.at(0).set_fault(PbftFaultMode::kSilent);
  g.run_for(seconds(10));
  for (NodeId n = 1; n < 4; ++n) {
    ASSERT_EQ(g.decided[n].size(), 3u) << "replica " << n;
    EXPECT_EQ(g.decided[n], g.decided[1]);
    EXPECT_GE(g.at(n).view(), 1u) << "view must have advanced past the dead primary";
  }
  // Exactly-once: each stranded op delivered a single time.
  for (int i = 0; i < 3; ++i) {
    const Bytes want = op_bytes("stranded" + std::to_string(i));
    int count = 0;
    for (const auto& [origin, op] : g.decided[1]) {
      EXPECT_EQ(origin, 0u);
      count += (op == want);
    }
    EXPECT_EQ(count, 1) << "op " << i;
  }
}

// An equivocating primary sends CONFLICTING BATCH frames for the same seq
// to different halves of the group. The batch digest covers the whole ops
// region, so the halves cannot both assemble a quorum; correct replicas
// either agree on one batch or view-change past the traitor — and never
// diverge or deliver a corrupted op.
TEST(PbftBatching, EquivocatingPrimaryCannotForkBatches) {
  PbftOptions opt;
  opt.batch_max_ops = 8;
  opt.view_change_timeout = millis(500);
  BatchGroup g(4, opt, {{0, PbftFaultMode::kEquivocatePrimary}});
  for (int i = 0; i < 6; ++i) g.at(1).propose(op_bytes("victim" + std::to_string(i)));
  g.run_for(seconds(15));
  // All correct replicas decided the same sequence...
  for (NodeId n = 2; n < 4; ++n) EXPECT_EQ(g.decided[n], g.decided[1]);
  // ...every op delivered from origin 1 is byte-exact and at most once.
  for (const auto& [origin, op] : g.decided[1]) {
    if (origin != 1) continue;
    bool known = false;
    for (int i = 0; i < 6; ++i) known |= (op == op_bytes("victim" + std::to_string(i)));
    EXPECT_TRUE(known) << "corrupted op delivered";
  }
  for (int i = 0; i < 6; ++i) {
    const Bytes want = op_bytes("victim" + std::to_string(i));
    int count = 0;
    for (const auto& [origin, op] : g.decided[1]) count += (origin == 1 && op == want);
    EXPECT_LE(count, 1) << "op " << i << " delivered twice";
  }
}

// A Byzantine primary may put one pending request into a batch twice; the
// batch still commits, since every op matches the client's own broadcast.
// Execution records the repeat as a null op, so the op decides once
// everywhere.
TEST(PbftBatching, RepeatedRequestInOneBatchDecidesOnce) {
  PbftOptions opt;
  opt.batch_flush_delay = seconds(3600);  // the real primary never flushes by itself
  BatchGroup g(4, opt);
  g.at(1).propose(op_bytes("twice"));  // request (1, 1), pending at every replica
  g.run_for(millis(100));

  // Replica 0's pre-prepare for seq 1, forged to carry that request twice.
  ByteWriter ops;
  ops.varint(2);
  for (int i = 0; i < 2; ++i) {
    ops.u64(1);  // origin
    ops.u64(1);  // origin seq
    ops.bytes(op_bytes("twice"));
  }
  const crypto::Digest digest = crypto::sha256(ops.data());
  ByteWriter w;
  w.u64(g.at(0).instance_tag());
  w.u64(0);  // view
  w.u64(1);  // seq
  w.raw(digest.data(), digest.size());
  w.bytes(ops.data());
  const net::Payload frame(w.take());
  for (NodeId n = 0; n < 4; ++n) {
    g.net.send(net::Message{0, n, net::MsgType::kPbftPrePrepare, frame});
  }
  g.run_for(seconds(2));

  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(g.at(n).batches_executed(), 1u) << "replica " << n;
    ASSERT_EQ(g.decided[n].size(), 1u) << "replica " << n;
    EXPECT_EQ(g.decided[n][0].first, 1u);
    EXPECT_EQ(g.decided[n][0].second, op_bytes("twice"));
  }
}

// SHA-256 volume per executed batch: the primary hashes the ops region once
// and the backups share one hash of the pre-prepare frame through its
// digest memo. Each replica then folds the batch digest into its state
// digest (two blocks) instead of re-hashing the batch's op bytes. A chain
// that hashed each record's bytes at every replica would spend about 7
// region hashes per batch here, far above the bound.
TEST(PbftBatching, FullBatchesHashTheirOpsRegionTwicePerGroup) {
  constexpr std::size_t kOps = 16, kOpBytes = 64, kBatches = 8;
  BatchGroup g(4);
  const std::size_t n = g.cfg.size();

  ByteWriter region;
  region.varint(kOps);
  for (std::size_t i = 0; i < kOps; ++i) {
    region.u64(0);
    region.u64(i + 1);
    region.bytes(Bytes(kOpBytes, 0));
  }
  std::uint64_t before = crypto::sha256_block_count();
  (void)crypto::sha256(region.data());
  const std::uint64_t region_blocks = crypto::sha256_block_count() - before;
  ASSERT_EQ(region_blocks, 21u);  // 1297 bytes

  before = crypto::sha256_block_count();
  for (std::size_t b = 0; b < kBatches; ++b) {
    for (std::size_t i = 0; i < kOps; ++i) {
      g.at(0).propose(Bytes(kOpBytes, static_cast<std::uint8_t>(b * kOps + i)));
    }
    g.run_for(millis(100));
  }
  const std::uint64_t blocks = crypto::sha256_block_count() - before;

  for (NodeId r = 0; r < n; ++r) {
    ASSERT_EQ(g.at(r).batches_executed(), kBatches) << "replica " << r;
    ASSERT_EQ(g.decided[r].size(), kBatches * kOps) << "replica " << r;
  }
  EXPECT_LT(blocks, kBatches * (2 * region_blocks + 4 * n))
      << blocks / kBatches << " blocks per batch";
}

// The batch digest stands in for the record digest of a batch that nulls no
// op, which holds only for the canonical encoding. An ops region with an
// overlong varint count decodes to the same batch but hashes differently,
// so backups must drop the pre-prepare as malformed.
TEST(PbftBatching, NonCanonicalOpsRegionIsRejected) {
  PbftOptions opt;
  opt.batch_flush_delay = seconds(3600);  // the real primary never flushes by itself
  BatchGroup g(4, opt);
  g.at(1).propose(op_bytes("once"));  // request (1, 1), pending at every replica
  g.run_for(millis(100));

  auto pre_prepare = [&](const Bytes& region) {
    const crypto::Digest digest = crypto::sha256(region);
    ByteWriter w;
    w.u64(g.at(0).instance_tag());
    w.u64(0);  // view
    w.u64(1);  // seq
    w.raw(digest.data(), digest.size());
    w.bytes(region);
    const net::Payload frame(w.take());
    for (NodeId n = 0; n < 4; ++n) {
      g.net.send(net::Message{0, n, net::MsgType::kPbftPrePrepare, frame});
    }
    g.run_for(seconds(1));
  };
  // The one op, after an op count spelled out in `count` bytes.
  auto region = [](std::initializer_list<std::uint8_t> count) {
    ByteWriter w;
    for (std::uint8_t c : count) w.u8(c);
    w.u64(1);  // origin
    w.u64(1);  // origin seq
    w.bytes(op_bytes("once"));
    return w.take();
  };
  pre_prepare(region({0x81, 0x00}));  // count 1 as an overlong varint
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(g.at(n).batches_executed(), 0u) << "replica " << n;
  }

  pre_prepare(region({0x01}));
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(g.at(n).batches_executed(), 1u) << "replica " << n;
    ASSERT_EQ(g.decided[n].size(), 1u) << "replica " << n;
    EXPECT_EQ(g.decided[n][0].second, op_bytes("once"));
  }
}

// State transfer of a BATCHED history: a replica isolated through several
// multi-op batches reconnects with a head gap and adopts the fetched
// history — per-op, in batch order, prefix-identical to the live replicas.
TEST(PbftBatching, BatchedExecHistoryTransfersToHeadGapReplica) {
  PbftOptions opt;
  opt.batch_max_ops = 4;
  opt.checkpoint_interval = 4;
  opt.watermark_window = 16;
  opt.view_change_timeout = millis(500);
  BatchGroup g(4, opt);

  g.net.isolate(3, true);
  for (int i = 0; i < 12; ++i) g.at(0).propose(op_bytes("op" + std::to_string(i)));
  g.run_for(seconds(10));
  ASSERT_EQ(g.decided[0].size(), 12u);
  // The history being transferred really is batched: 12 ops in ≤ 12/4·2
  // slots (burst arrival makes full batches; allow stragglers).
  EXPECT_LE(g.at(0).batches_executed(), 6u);
  EXPECT_TRUE(g.decided[3].empty());

  // The gap crosses the peers' stable checkpoint, so replica 3 installs the
  // checkpoint instead of replaying from seq 0: the skipped prefix is
  // reported through the install handler and the decided stream resumes as
  // a suffix of the group's.
  std::uint64_t skipped = 0;
  g.at(3).set_install_handler(
      [&](std::uint64_t, std::uint64_t, std::uint64_t from_ops, std::uint64_t to_ops) {
        skipped += to_ops - from_ops;
      });
  g.net.isolate(3, false);
  for (int i = 12; i < 24; ++i) g.at(0).propose(op_bytes("op" + std::to_string(i)));
  g.run_for(seconds(30));
  EXPECT_EQ(g.decided[0].size(), 24u);
  ASSERT_EQ(skipped + g.decided[3].size(), 24u)
      << "install gap + decided suffix must cover the full sequence";
  EXPECT_GT(g.decided[3].size(), 0u) << "replica 3 should decide the post-checkpoint suffix";
  for (std::size_t i = 0; i < g.decided[3].size(); ++i) {
    EXPECT_EQ(g.decided[3][i], g.decided[0][static_cast<std::size_t>(skipped) + i])
        << "divergence at " << i;
  }
}

// Batch boundaries are invisible to ordering: interleaved proposers, mixed
// batch fill levels, every replica delivers the identical op sequence.
TEST(PbftBatching, MixedProposersSameTotalOrderAcrossBatches) {
  PbftOptions opt;
  opt.batch_max_ops = 4;
  opt.batch_flush_delay = millis(2);
  BatchGroup g(7, opt);
  for (int i = 0; i < 30; ++i) {
    g.at(static_cast<std::size_t>(i % 7)).propose(op_bytes("op" + std::to_string(i)));
  }
  g.run_for(seconds(10));
  ASSERT_EQ(g.decided[0].size(), 30u);
  // Multiple ops really shared seqs.
  EXPECT_LT(g.at(0).batches_executed(), 30u);
  for (NodeId n = 1; n < 7; ++n) EXPECT_EQ(g.decided[n], g.decided[0]);
}

}  // namespace
}  // namespace atum::smr
