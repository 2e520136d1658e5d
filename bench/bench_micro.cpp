// Microbenchmarks for the substrates (google-benchmark): crypto, wire
// serialization, the event queue, network dispatch, the group-message
// receiver, H-graph maintenance, and walk stepping.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "common/binomial.h"
#include "common/rng.h"
#include "common/serde.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "net/network.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "overlay/group_message.h"
#include "overlay/hgraph.h"
#include "overlay/random_walk.h"
#include "sim/simulator.h"
#include "smr/pbft.h"

using namespace atum;

static void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(1 << 20);

static void BM_HmacSign(benchmark::State& state) {
  crypto::KeyStore ks(1);
  const crypto::SigningKey& key = ks.key_of(7);
  Bytes msg(256, 0x11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.sign(msg));
  }
}
BENCHMARK(BM_HmacSign);

static void BM_SerdeRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    ByteWriter w;
    for (int i = 0; i < 16; ++i) {
      w.u64(static_cast<std::uint64_t>(i));
      w.varint(static_cast<std::uint64_t>(i * 1000));
    }
    ByteReader r(w.data());
    std::uint64_t sum = 0;
    for (int i = 0; i < 16; ++i) {
      sum += r.u64();
      sum += r.varint();
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_SerdeRoundTrip);

static void BM_SimulatorThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(i, [] {});
    }
    benchmark::DoNotOptimize(sim.run());
  }
}
BENCHMARK(BM_SimulatorThroughput);

// The broadcast fan-out shape: ~40k pending events (peak_slots on perfbench
// broadcast is ~37k) with horizons log-uniform from 0.3 ms (a network
// delay) to 60 s (a TTL timer), and every popped event schedules one more.
// Time per pop. BM_SimulatorThroughput's 1000 pre-sorted times never let
// the queue grow.
static void BM_SimulatorFanout(benchmark::State& state) {
  constexpr std::size_t kPending = 40'000;
  // Pre-drawn horizons, cycled, keep the RNG out of the timed loop.
  struct Horizons {
    std::vector<DurationMicros> d;
    std::size_t next = 0;
    DurationMicros draw() { return d[next++ & (d.size() - 1)]; }
  } horizons;
  Rng rng(0xFA40);
  for (std::size_t i = 0; i < 4096; ++i) {
    horizons.d.push_back(static_cast<DurationMicros>(300.0 * std::pow(200'000.0, rng.next_double())));
  }
  sim::Simulator sim;
  struct Reschedule {
    sim::Simulator* sim;
    Horizons* h;
    void operator()() const { sim->schedule_after(h->draw(), *this); }
  };
  for (std::size_t i = 0; i < kPending; ++i) sim.schedule_after(horizons.draw(), Reschedule{&sim, &horizons});
  for (auto _ : state) {
    sim.step();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorFanout);

// Group broadcast fan-out: one 4 KiB payload sent to N recipients through
// the simulated network, then delivered. This is Atum's hot path (every
// group message is sent to every member of the destination vgroup).
namespace {
constexpr std::size_t kFanoutPayloadBytes = 4096;

template <typename SendFn>
void run_fanout_bench(benchmark::State& state, SendFn&& send_one) {
  const auto recipients = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  net::SimNetwork net(sim, net::NetworkConfig::datacenter());
  std::uint64_t delivered = 0;
  for (NodeId n = 1; n <= recipients; ++n) {
    net.attach(n, [&delivered](const net::Message&) { ++delivered; });
  }
  for (auto _ : state) {
    for (NodeId n = 1; n <= recipients; ++n) send_one(net, n);
    sim.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(recipients * kFanoutPayloadBytes));
}
}  // namespace

// The seed behavior: each recipient gets its own deep copy of the payload.
static void BM_BroadcastFanoutDeepCopy(benchmark::State& state) {
  Bytes payload(kFanoutPayloadBytes, 0xCD);
  run_fanout_bench(state, [&payload](net::SimNetwork& net, NodeId n) {
    net.send(net::Message{0, n, net::MsgType::kAppData, payload});  // freezes a fresh copy
  });
}
BENCHMARK(BM_BroadcastFanoutDeepCopy)->Arg(8)->Arg(64)->Arg(512);

// The overhauled path: freeze once, share the buffer across all recipients.
static void BM_BroadcastFanoutShared(benchmark::State& state) {
  net::Payload payload(Bytes(kFanoutPayloadBytes, 0xCD));
  run_fanout_bench(state, [&payload](net::SimNetwork& net, NodeId n) {
    net.send(net::Message{0, n, net::MsgType::kAppData, payload});
  });
}
BENCHMARK(BM_BroadcastFanoutShared)->Arg(8)->Arg(64)->Arg(512);

// Per-frame digest cache (net::Payload::digest). The cached variant is the
// group-message vouch path after PR 3: one SHA-256 per frame, then memo
// hits. The uncached variant is the old per-call cost for comparison.
static void BM_PayloadDigestUncached(benchmark::State& state) {
  net::Payload p(Bytes(static_cast<std::size_t>(state.range(0)), 0x5f));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(p.data(), p.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_PayloadDigestUncached)->Arg(128)->Arg(4096);

static void BM_PayloadDigestCached(benchmark::State& state) {
  net::Payload p(Bytes(static_cast<std::size_t>(state.range(0)), 0x5f));
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.digest());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_PayloadDigestCached)->Arg(128)->Arg(4096);

// Vouch fan-out: one 4 KiB frame delivered to N receivers, every receiver
// needs its digest (what GroupMessageReceiver does to vouch). Cached: the
// first receiver hashes, the rest hit the frame memo.
namespace {
template <typename DigestFn>
void run_vouch_bench(benchmark::State& state, DigestFn&& digest_of) {
  const auto recipients = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  net::SimNetwork net(sim, net::NetworkConfig::datacenter());
  std::uint64_t sink = 0;
  for (NodeId n = 1; n <= recipients; ++n) {
    net.attach(n, [&](const net::Message& m) { sink += digest_of(m.payload)[0]; });
  }
  for (auto _ : state) {
    net::Payload frame(Bytes(kFanoutPayloadBytes, 0xCD));  // fresh frame per round
    for (NodeId n = 1; n <= recipients; ++n) {
      net.send(net::Message{0, n, net::MsgType::kAppData, frame});
    }
    sim.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(recipients * kFanoutPayloadBytes));
}
}  // namespace

static void BM_VouchFanoutUncached(benchmark::State& state) {
  run_vouch_bench(state, [](const net::Payload& p) { return crypto::sha256(p.data(), p.size()); });
}
BENCHMARK(BM_VouchFanoutUncached)->Arg(8)->Arg(64);

static void BM_VouchFanoutCached(benchmark::State& state) {
  run_vouch_bench(state, [](const net::Payload& p) { return p.digest(); });
}
BENCHMARK(BM_VouchFanoutCached)->Arg(8)->Arg(64);

// Group-message receiver, per frame: a 7-member sender group vouches for
// one 128 B body, 4 ranks with the full frame and 3 with its digest (all
// full senders share one buffer, so the receiver hashes once per id). Arg
// 0: every round is a fresh id, so each frame takes the vouch path and the
// round delivers. Arg 1: every round replays one delivered id, so each
// frame is a dedup drop. Includes the network send + dispatch of each
// frame (BM_NetDispatch alone) and the encoding of the two frames per
// round.
static void BM_GroupReceiverFrame(benchmark::State& state) {
  const bool duplicate = state.range(0) == 1;
  constexpr GroupId kGroup = 9;
  constexpr NodeId kReceiver = 100;
  constexpr std::size_t kSenders = 7;
  constexpr std::size_t kFull = kSenders / 2 + 1;
  sim::Simulator sim;
  net::SimNetwork net(sim, net::NetworkConfig::datacenter());
  std::uint64_t delivered = 0;
  overlay::GroupMessageReceiver rx(
      net::Transport(net, kReceiver),
      [&delivered](const overlay::GroupMessageId&, NodeId, net::Payload) { ++delivered; });
  rx.set_group_size_fn([](GroupId) -> std::optional<std::size_t> { return kSenders; });
  rx.set_membership_fn([](GroupId, NodeId n) { return n >= 1 && n <= kSenders; });
  const Bytes body(128, 0x42);
  const crypto::Digest digest = crypto::sha256(body);
  auto send_round = [&](std::uint64_t seq) {
    ByteWriter full;
    full.u64(kGroup);
    full.u64(seq);
    full.bytes(body);
    ByteWriter dig;
    dig.u64(kGroup);
    dig.u64(seq);
    dig.raw(digest.data(), digest.size());
    net::Payload full_frame(full.take()), digest_frame(dig.take());
    for (NodeId s = 1; s <= kSenders; ++s) {
      const bool is_full = s <= kFull;
      net.send(net::Message{s, kReceiver,
                            is_full ? net::MsgType::kGroupMsgFull : net::MsgType::kGroupMsgDigest,
                            is_full ? full_frame : digest_frame});
    }
    sim.run();
  };
  std::uint64_t seq = 1;
  if (duplicate) send_round(seq);
  for (auto _ : state) {
    send_round(duplicate ? seq : ++seq);
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kSenders));
}
BENCHMARK(BM_GroupReceiverFrame)->Arg(0)->Arg(1);

// GroupMessageReceiver::reevaluate (run on every accepted neighbor update)
// on a table holding Arg delivered ids kept for dedup and nothing
// buffering: the usual state under churn, which has nothing to re-check.
static void BM_ReceiverReevaluate(benchmark::State& state) {
  const auto delivered_ids = static_cast<std::uint64_t>(state.range(0));
  constexpr GroupId kGroup = 9;
  constexpr NodeId kReceiver = 100;
  const std::vector<NodeId> senders{1, 2, 3};
  sim::Simulator sim;
  net::SimNetwork net(sim, net::NetworkConfig::datacenter());
  std::uint64_t delivered = 0;
  overlay::GroupMessageReceiver rx(
      net::Transport(net, kReceiver),
      [&delivered](const overlay::GroupMessageId&, NodeId, net::Payload) { ++delivered; });
  rx.set_group_size_fn([&senders](GroupId) -> std::optional<std::size_t> {
    return senders.size();
  });
  Rng rng(3);
  const net::Payload body(Bytes(32, 0x42));
  for (std::uint64_t seq = 1; seq <= delivered_ids; ++seq) {
    for (NodeId s : senders) {
      net::Transport t(net, s);
      overlay::send_group_message(t, senders, overlay::GroupMessageId{kGroup, seq}, {kReceiver},
                                  body, rng);
    }
  }
  sim.run();
  if (rx.delivered_dedup_count() != delivered_ids) state.SkipWithError("ids did not deliver");
  for (auto _ : state) {
    rx.reevaluate();
  }
  benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_ReceiverReevaluate)->Arg(0)->Arg(1000)->Arg(10000);

// SimNetwork per message: send plus delivery of one message to a node with
// 12 typed handlers (an Atum node registers about that many: PBFT, group
// messages, heartbeats, joins), cycling through the types.
static void BM_NetDispatch(benchmark::State& state) {
  const net::MsgType types[] = {
      net::MsgType::kPbftRequest,     net::MsgType::kPbftPrePrepare,
      net::MsgType::kPbftPrepare,     net::MsgType::kPbftCommit,
      net::MsgType::kPbftViewChange,  net::MsgType::kPbftNewView,
      net::MsgType::kPbftCheckpoint,  net::MsgType::kGroupMsgFull,
      net::MsgType::kGroupMsgDigest,  net::MsgType::kHeartbeat,
      net::MsgType::kJoinRequest,     net::MsgType::kJoinReply,
  };
  sim::Simulator sim;
  net::SimNetwork net(sim, net::NetworkConfig::datacenter());
  std::uint64_t handled = 0;
  for (net::MsgType t : types) {
    net.attach(1, t, [&handled](const net::Message&) { ++handled; });
  }
  const net::Payload payload(Bytes(64, 0x17));
  std::size_t i = 0;
  for (auto _ : state) {
    net.send(net::Message{0, 1, types[i], payload});
    sim.step();
    i = (i + 1) % std::size(types);
  }
  benchmark::DoNotOptimize(handled);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_NetDispatch);

// One PBFT group of 4 deciding a backlog of 64-byte ops at the given batch
// cap, wall-clock per decided op. batch 1 is classic PBFT; 4 and 16 show
// the host-side amortization (fewer messages, fewer digests, fewer quorum
// scans per op) on top of the simulated-time win bench_smr_throughput
// measures.
static void BM_PbftBatchDecide(benchmark::State& state) {
  const auto batch_cap = static_cast<std::size_t>(state.range(0));
  constexpr std::uint64_t kOps = 256;
  std::uint64_t decided_total = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    net::SimNetwork net(sim, net::NetworkConfig::datacenter(), 0x5417);
    crypto::KeyStore keys(11);
    smr::GroupConfig cfg;
    for (NodeId i = 0; i < 4; ++i) cfg.members.push_back(i);
    smr::PbftOptions opt;
    opt.batch_max_ops = batch_cap;
    opt.view_change_timeout = seconds(60.0);
    std::vector<std::unique_ptr<smr::PbftSmr>> replicas;
    std::uint64_t decided = 0;
    for (NodeId i = 0; i < 4; ++i) {
      auto r = std::make_unique<smr::PbftSmr>(net::Transport(net, i), cfg, keys, opt);
      r->set_decide_handler(
          [&decided](std::uint64_t, NodeId, const net::Payload&) { ++decided; });
      replicas.push_back(std::move(r));
    }
    for (std::uint64_t i = 0; i < kOps; ++i) {
      replicas[0]->propose(Bytes(64, static_cast<std::uint8_t>(i)));
    }
    sim.run_until(sim.now() + seconds(120.0));
    decided_total += decided;
    for (auto& r : replicas) r->stop();
  }
  benchmark::DoNotOptimize(decided_total);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kOps));
}
BENCHMARK(BM_PbftBatchDecide)->Arg(1)->Arg(4)->Arg(16);

// Observability cells (ISSUE 9). The instrumentation contract is "near
// zero when idle": a cached Counter* bump is one relaxed fetch_add, a
// histogram record is two fetch_adds plus the bucket math, and a disabled
// tracer call is one relaxed bool load + branch. These pin those costs.
static void BM_CounterInc(benchmark::State& state) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("bench.counter");
  for (auto _ : state) {
    c.inc();
  }
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_CounterInc);

static void BM_HistogramRecord(benchmark::State& state) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("bench.histogram");
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.record(v);
    v = (v * 2862933555777941757ULL + 3037000493ULL) >> 32;  // vary the bucket
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

static void BM_TraceDisabled(benchmark::State& state) {
  obs::Tracer tracer;  // default: disabled — the cost every hop pays always
  std::int64_t t = 0;
  for (auto _ : state) {
    tracer.record(++t, 7, obs::TracePoint::kRelay, 0x9e3779b97f4a7c15ULL, 12, 3);
  }
  benchmark::DoNotOptimize(tracer.recorded());
}
BENCHMARK(BM_TraceDisabled);

static void BM_TraceEnabled(benchmark::State& state) {
  obs::Tracer tracer;
  tracer.enable(/*ring_capacity=*/4096);
  std::int64_t t = 0;
  for (auto _ : state) {
    tracer.record(++t, 7, obs::TracePoint::kRelay, 0x9e3779b97f4a7c15ULL, 12, 3);
  }
  benchmark::DoNotOptimize(tracer.recorded());
}
BENCHMARK(BM_TraceEnabled);

static void BM_HGraphInsert(benchmark::State& state) {
  for (auto _ : state) {
    Rng rng(1);
    overlay::HGraph g(5);
    for (GroupId v = 0; v < 256; ++v) {
      if (v == 0) {
        g.add_first(v);
      } else {
        g.insert_random(v, rng);
      }
    }
    benchmark::DoNotOptimize(g.size());
  }
}
BENCHMARK(BM_HGraphInsert);

static void BM_WalkEndpoints(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        overlay::simulate_walk_endpoints(128, 5, 10, 10'000, rng));
  }
}
BENCHMARK(BM_WalkEndpoints);

static void BM_BinomialTail(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(binomial_tail_geq(56, 28, 0.06));
  }
}
BENCHMARK(BM_BinomialTail);
