// Tests for the discrete-event simulator: ordering, cancellation, periodic
// timers, determinism.
#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace atum::sim {
namespace {

// A handle the simulator never issued: a far-future generation on slot 7.
EventId make_unknown_id(int round) {
  return (static_cast<EventId>(0xFFFF0000u + static_cast<std::uint32_t>(round)) << 32) | 7u;
}

TEST(Simulator, StartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_TRUE(s.empty());
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Simulator, FifoAmongEqualTimestamps) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) s.schedule_at(5, [&order, i] { order.push_back(i); });
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator s;
  TimeMicros seen = -1;
  s.schedule_at(100, [&] { s.schedule_after(50, [&] { seen = s.now(); }); });
  s.run();
  EXPECT_EQ(seen, 150);
}

TEST(Simulator, NegativeDelayThrows) {
  Simulator s;
  EXPECT_THROW(s.schedule_after(-1, [] {}), std::invalid_argument);
}

TEST(Simulator, PastDeadlineClampsToNow) {
  Simulator s;
  TimeMicros seen = -1;
  s.schedule_at(100, [&] {
    s.schedule_at(5, [&] { seen = s.now(); });  // 5 < now=100
  });
  s.run();
  EXPECT_EQ(seen, 100);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  EventId id = s.schedule_at(10, [&] { fired = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator s;
  EventId id = s.schedule_at(1, [] {});
  s.run();
  s.cancel(id);  // must not blow up or affect future events
  bool fired = false;
  s.schedule_at(2, [&] { fired = true; });
  s.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator s;
  std::vector<TimeMicros> fired;
  for (TimeMicros t : {10, 20, 30, 40}) s.schedule_at(t, [&fired, &s] { fired.push_back(s.now()); });
  s.run_until(25);
  EXPECT_EQ(fired, (std::vector<TimeMicros>{10, 20}));
  EXPECT_EQ(s.now(), 25);
  s.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Simulator, RunUntilInclusive) {
  Simulator s;
  bool fired = false;
  s.schedule_at(25, [&] { fired = true; });
  s.run_until(25);
  EXPECT_TRUE(fired);
}

TEST(Simulator, RunWithLimitStopsEarly) {
  Simulator s;
  int count = 0;
  for (int i = 0; i < 100; ++i) s.schedule_at(i, [&] { ++count; });
  EXPECT_EQ(s.run(10), 10u);
  EXPECT_EQ(count, 10);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.schedule_after(1, recurse);
  };
  s.schedule_at(0, recurse);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), 4);
}

TEST(Simulator, ExecutedEventsCounter) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.schedule_at(i, [] {});
  s.run();
  EXPECT_EQ(s.executed_events(), 7u);
}

TEST(PeriodicTimer, FiresRepeatedly) {
  Simulator s;
  int fires = 0;
  PeriodicTimer t(s, 10, [&] { ++fires; });
  s.run_until(55);
  EXPECT_EQ(fires, 5);  // at 10,20,30,40,50
  t.stop();
}

TEST(PeriodicTimer, StopHaltsFiring) {
  Simulator s;
  int fires = 0;
  PeriodicTimer t(s, 10, [&] { ++fires; });
  s.run_until(25);
  t.stop();
  s.run_until(200);
  EXPECT_EQ(fires, 2);
}

TEST(PeriodicTimer, StopFromInsideCallback) {
  Simulator s;
  int fires = 0;
  PeriodicTimer t(s, 10, [&] {
    if (++fires == 3) t.stop();
  });
  s.run_until(500);
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(t.running());
}

TEST(PeriodicTimer, DestructorCancels) {
  Simulator s;
  int fires = 0;
  {
    PeriodicTimer t(s, 10, [&] { ++fires; });
    s.run_until(15);
  }
  s.run_until(100);
  EXPECT_EQ(fires, 1);
}

TEST(PeriodicTimer, RejectsNonPositivePeriod) {
  Simulator s;
  EXPECT_THROW(PeriodicTimer(s, 0, [] {}), std::invalid_argument);
}

TEST(Simulator, LiveEventsStaysExactUnderCancel) {
  Simulator s;
  EXPECT_EQ(s.live_events(), 0u);
  EventId a = s.schedule_at(10, [] {});
  EventId b = s.schedule_at(20, [] {});
  EXPECT_EQ(s.live_events(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.live_events(), 1u);
  s.cancel(a);  // double cancel: no-op, no underflow
  EXPECT_EQ(s.live_events(), 1u);
  s.run();
  EXPECT_EQ(s.live_events(), 0u);
  s.cancel(b);               // cancel after fire: no-op
  s.cancel(0);               // reserved null handle
  s.cancel(0xdeadbeefULL);   // handle never issued
  EXPECT_EQ(s.live_events(), 0u);
  EXPECT_TRUE(s.empty());
  // The engine still works afterwards.
  bool fired = false;
  s.schedule_after(1, [&] { fired = true; });
  EXPECT_EQ(s.live_events(), 1u);
  s.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, CancelledFiredAndUnknownIdsDoNotAccumulate) {
  // Seed bug: cancelling fired/unknown ids grew the tombstone set forever
  // and made live_events() (queue size minus tombstones) underflow.
  Simulator s;
  for (int round = 0; round < 1000; ++round) {
    EventId id = s.schedule_at(round, [] {});
    s.run();
    s.cancel(id);                                   // already fired
    s.cancel(make_unknown_id(round));               // never issued
    EXPECT_EQ(s.live_events(), 0u);
    EXPECT_TRUE(s.empty());
  }
  EXPECT_EQ(s.queued_entries(), 0u);
  EXPECT_EQ(s.queue_blocks_in_use(), 0u);
  EXPECT_LE(s.queue_blocks_allocated(), 2u);  // blocks are recycled, not re-made
  EXPECT_LE(s.slot_count(), 4u);  // arena tracks peak concurrency, not history
}

TEST(Simulator, MemoryBoundedUnderScheduleCancelChurn) {
  // 1M schedule/cancel cycles with a rolling window of pending events — the
  // heartbeat-timeout pattern of a 100k-node run. The seed's tombstone set
  // grew with every cancel; the slot arena and queue must stay proportional
  // to the window, not to the cycle count.
  Simulator s;
  constexpr std::size_t kWindow = 1024;
  // Blocks for 4 * kWindow entries, plus a partly filled head and tail per
  // bucket.
  constexpr std::size_t kMaxBlocks = 4 * kWindow / Simulator::kBlockEntries + 2 * Simulator::kBuckets;
  std::vector<EventId> pending;
  pending.reserve(kWindow);
  for (std::size_t i = 0; i < 1'000'000; ++i) {
    if (pending.size() == kWindow) {
      s.cancel(pending[i % kWindow]);
      pending[i % kWindow] = s.schedule_at(static_cast<TimeMicros>(i + 1'000'000), [] {});
    } else {
      pending.push_back(s.schedule_at(static_cast<TimeMicros>(i + 1'000'000), [] {}));
    }
    ASSERT_LE(s.live_events(), kWindow);
    ASSERT_LE(s.slot_count(), 2 * kWindow);
    ASSERT_LE(s.queued_entries(), 4 * kWindow);  // stale entries swept by compaction
    ASSERT_LE(s.queue_blocks_in_use(), kMaxBlocks);
    // A drain holds at most one block beyond the ones it refills.
    ASSERT_LE(s.queue_blocks_allocated(), kMaxBlocks + 1);
  }
  EXPECT_EQ(s.live_events(), kWindow);
  for (EventId id : pending) s.cancel(id);
  EXPECT_EQ(s.live_events(), 0u);
  s.run();
  EXPECT_EQ(s.executed_events(), 0u);  // everything was cancelled in time
  EXPECT_EQ(s.queued_entries(), 0u);
  EXPECT_EQ(s.queue_blocks_in_use(), 0u);
}

TEST(Simulator, SlotReuseDoesNotResurrectOldHandles) {
  Simulator s;
  bool first_fired = false;
  bool second_fired = false;
  EventId a = s.schedule_at(10, [&] { first_fired = true; });
  s.cancel(a);
  // The slot is recycled with a new generation; the old handle must not be
  // able to cancel the new occupant.
  EventId b = s.schedule_at(20, [&] { second_fired = true; });
  s.cancel(a);
  s.run();
  EXPECT_FALSE(first_fired);
  EXPECT_TRUE(second_fired);
  EXPECT_NE(a, b);
}

TEST(Simulator, CancelFromInsideEventHandler) {
  Simulator s;
  bool victim_fired = false;
  EventId victim = s.schedule_at(20, [&] { victim_fired = true; });
  s.schedule_at(10, [&] { s.cancel(victim); });
  s.run();
  EXPECT_FALSE(victim_fired);
  EXPECT_EQ(s.live_events(), 0u);
}

TEST(Simulator, RunUntilSkipsCancelledEvents) {
  Simulator s;
  std::vector<int> fired;
  s.schedule_at(10, [&] { fired.push_back(1); });
  EventId mid = s.schedule_at(20, [&] { fired.push_back(2); });
  s.schedule_at(30, [&] { fired.push_back(3); });
  s.cancel(mid);
  EXPECT_EQ(s.run_until(30), 2u);
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(Simulator, DeterministicInterleaving) {
  // Two identical runs produce identical event orders.
  auto run_once = [] {
    Simulator s;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      s.schedule_at(i % 7, [&order, i] { order.push_back(i); });
    }
    s.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

// Drives one Simulator with random schedules, cancels, nested schedules and
// short-stopping run_until calls, and checks every fired event against a
// reference that orders the pending events by (time, insertion).
class QueueModel {
 public:
  explicit QueueModel(std::uint64_t seed) : rng_(seed) {}

  void run(int ops) {
    for (int i = 0; i < ops; ++i) {
      switch (rng_.next_below(9)) {
        case 0: schedule(s_.now() + horizon()); break;
        case 1: {  // a burst of equal times
          const TimeMicros at = s_.now() + horizon();
          for (auto k = rng_.next_in(2, 12); k > 0; --k) schedule(at);
          break;
        }
        case 2: {  // join a pending time, possibly filed under an older base
          if (ref_.empty()) break;
          schedule(pick()->first.first);
          break;
        }
        case 3: {
          const DurationMicros d = horizon();
          const Key key{s_.now() + d, next_insertion_++};
          ref_.emplace(key, s_.schedule_after(d, [this, key] { fire(key); }));
          break;
        }
        case 4: if (!ref_.empty()) cancel(ref_.begin()); break;
        case 5: if (!ref_.empty()) cancel(pick()); break;
        case 6:
          for (auto n = ref_.size() * 2 / 3; n > 0; --n) cancel(pick());
          break;
        case 7: s_.run(rng_.next_in(1, 64)); break;
        case 8: run_until_short(); break;
      }
      ASSERT_EQ(s_.live_events(), ref_.size());
    }
    s_.run();
    EXPECT_TRUE(ref_.empty());
    EXPECT_EQ(s_.executed_events(), fired_);
  }

  std::uint64_t out_of_order() const { return out_of_order_; }
  std::uint64_t compactions() const { return compactions_; }
  std::uint64_t fired() const { return fired_; }

 private:
  using Key = std::pair<TimeMicros, std::uint64_t>;  // (time, insertion)
  using Ref = std::map<Key, EventId>;

  // Horizons from 0 to 2^40 µs, spread evenly over their bit widths.
  DurationMicros horizon() {
    return static_cast<DurationMicros>(rng_.next_below(std::uint64_t{1} << rng_.next_below(41)));
  }
  Ref::iterator pick() {
    return std::next(ref_.begin(), static_cast<std::ptrdiff_t>(rng_.next_below(ref_.size())));
  }

  void schedule(TimeMicros at) {
    const Key key{at, next_insertion_++};
    ref_.emplace(key, s_.schedule_at(at, [this, key] { fire(key); }));
  }
  void cancel(Ref::iterator it) {
    const std::size_t before = s_.queued_entries();
    s_.cancel(it->second);
    ref_.erase(it);
    // A cancel leaves its entry queued unless it set off a compaction,
    // which must really drop the stale entries.
    if (s_.queued_entries() < before) {
      ++compactions_;
      EXPECT_EQ(s_.queued_entries(), s_.live_events());
    }
  }
  // Stops short of the next event, then schedules inside [t, next event).
  void run_until_short() {
    if (ref_.empty()) return;
    const TimeMicros next = ref_.begin()->first.first;
    if (next <= s_.now()) return;
    const TimeMicros t = s_.now() + static_cast<TimeMicros>(
                                        rng_.next_below(static_cast<std::uint64_t>(next - s_.now())));
    EXPECT_EQ(s_.run_until(t), 0u);
    EXPECT_EQ(s_.now(), t);
    schedule(t);
    schedule(t + static_cast<TimeMicros>(rng_.next_below(static_cast<std::uint64_t>(next - t))));
  }

  void fire(Key key) {
    if (ref_.empty() || ref_.begin()->first != key || s_.now() != key.first) {
      if (out_of_order_++ == 0) {
        ADD_FAILURE() << "fired (" << key.first << ", #" << key.second << ") at " << s_.now()
                      << "; reference expected "
                      << (ref_.empty() ? std::string("nothing")
                                       : "(" + std::to_string(ref_.begin()->first.first) + ", #" +
                                             std::to_string(ref_.begin()->first.second) + ")");
      }
    }
    ref_.erase(key);
    ++fired_;
    // Nested use from inside a callback: schedules (some at this very
    // instant) and a cancel.
    if (rng_.chance(0.3)) {
      for (auto k = rng_.next_in(1, 3); k > 0; --k) {
        schedule(rng_.chance(0.3) ? s_.now() : s_.now() + horizon());
      }
    }
    if (rng_.chance(0.1) && !ref_.empty()) cancel(pick());
  }

  Rng rng_;
  Simulator s_;
  Ref ref_;  // pending events in firing order
  std::uint64_t next_insertion_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t out_of_order_ = 0;
  std::uint64_t compactions_ = 0;
};

TEST(Simulator, MatchesAReferenceQueueUnderRandomUse) {
  std::uint64_t compactions = 0;
  std::uint64_t fired = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    QueueModel model(seed);
    model.run(3000);
    EXPECT_EQ(model.out_of_order(), 0u);
    compactions += model.compactions();
    fired += model.fired();
  }
  // The mix really exercised compaction and a long run of pops.
  EXPECT_GT(compactions, 64u);
  EXPECT_GT(fired, 64u * 1000u);
}

// ---------------------------------------------------------------------------
// EventFn small-buffer storage
// ---------------------------------------------------------------------------

TEST(EventFn, DeliveryClosureStaysInline) {
  // The shape SimNetwork::send schedules per message: a network pointer
  // plus the Message (with its refcounted sliced Payload). This closure
  // defines EventFn::kInlineCapacity — if it ever spills to the heap the
  // per-message allocation the SBO exists to remove is back.
  net::SimNetwork* network = nullptr;
  net::Message m{1, 2, net::MsgType::kAppData, net::Payload(Bytes(256, 7))};
  EventFn fn([network, m = std::move(m)]() { (void)network; });
  EXPECT_TRUE(fn.stores_inline());
}

TEST(EventFn, InlineClosureDestroysCaptures) {
  auto token = std::make_shared<int>(1);
  {
    EventFn fn([token] {});
    EXPECT_TRUE(fn.stores_inline());
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);  // inline storage ran the destructor
}

TEST(EventFn, HeapFallbackForOversizedClosures) {
  auto token = std::make_shared<int>(42);
  std::array<std::uint64_t, 16> big{};
  int fired = 0;
  EventFn fn([token, big, &fired] {
    fired += static_cast<int>(big[0]) + 1;
  });
  EXPECT_TRUE(static_cast<bool>(fn));
  EXPECT_FALSE(fn.stores_inline());
  fn();
  EXPECT_EQ(fired, 1);
  fn = nullptr;  // releases the heap callable
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventFn, MoveTransfersOwnership) {
  int fired = 0;
  EventFn a([&fired] { ++fired; });
  EventFn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT: moved-from state is empty
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(fired, 1);
}

TEST(EventFn, SharedPayloadClosureMovesWithoutCopyingTheBuffer) {
  net::Payload payload(Bytes(4096, 0xAB));
  EXPECT_EQ(payload.use_count(), 1);
  EventFn fn([p = payload]() { (void)p; });
  EXPECT_TRUE(fn.stores_inline());
  EXPECT_EQ(payload.use_count(), 2);  // one shared ref, not a 4 KiB copy
  EventFn moved = std::move(fn);
  EXPECT_EQ(payload.use_count(), 2);  // relocation moved the ref, not the buffer
  moved = nullptr;
  EXPECT_EQ(payload.use_count(), 1);
}

TEST(EventFn, EmptyInvocationThrowsLikeStdFunction) {
  EventFn fn;
  EXPECT_THROW(fn(), std::bad_function_call);
  EventFn null_fn(nullptr);
  EXPECT_THROW(null_fn(), std::bad_function_call);
}

TEST(Simulator, ThrowingHandlerDoesNotLeakTheSlot) {
  Simulator s;
  auto token = std::make_shared<int>(7);
  s.schedule_at(1, [token] { throw std::runtime_error("handler failure"); });
  EXPECT_THROW(s.step(), std::runtime_error);
  // The slot (and the closure's captures) must have been recycled despite
  // the exception; the simulator stays usable.
  EXPECT_EQ(token.use_count(), 1);
  bool fired = false;
  s.schedule_at(2, [&fired] { fired = true; });
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_LE(s.slot_count(), 1u);  // the recycled slot was reused
}

TEST(Simulator, EventsScheduledFromInsideACallbackFire) {
  // Closures execute in place in the chunked arena; a callback scheduling
  // enough events to grow the arena must not invalidate itself.
  Simulator s;
  int fired = 0;
  s.schedule_at(1, [&] {
    for (int i = 0; i < 2000; ++i) {
      s.schedule_at(2, [&fired] { ++fired; });
    }
  });
  s.run();
  EXPECT_EQ(fired, 2000);
}

}  // namespace
}  // namespace atum::sim

