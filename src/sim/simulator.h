// Discrete-event simulation engine.
//
// This is the substrate substituting for the paper's EC2 deployment: every
// node's protocol logic runs as event handlers on one simulated clock.
// Events with equal timestamps fire in scheduling order (stable), which
// together with seeded RNG makes whole experiments bit-reproducible.
//
// Storage model: event closures live in a generation-stamped slot arena of
// fixed-size chunks (stable addresses — closures are placed once and
// execute in place, never relocated). The queue orders 16-byte {time, id}
// entries in a monotone radix bucket queue: event times never go below the
// clock, so an entry is filed under the highest bit in which its time
// differs from the queue's base (the last popped time), and a pop only
// ever re-buckets the lowest non-empty bucket against its minimum. Buckets
// are FIFO chains of fixed-size blocks drawn from one shared free list, so
// equal-time entries keep their scheduling order without a sequence number
// and queue memory follows the pending entries, not each bucket's own peak. Closures are held in EventFn,
// a small-buffer-optimized callable sized for the message-delivery
// closure, so the per-event hot path performs no heap allocation at all.
// cancel() is O(1) amortized — it frees the closure and recycles the slot
// immediately, and stale queue entries are swept by periodic compaction
// once they outnumber the live ones. Under churn (schedule/cancel cycles,
// e.g. heartbeat timeouts across 100k nodes) memory stays proportional to
// the number of *pending* events, not to the number ever scheduled or
// cancelled.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"

namespace atum::sim {

// Move-only callable for simulator events, with small-buffer-optimized
// storage.
//
// Every simulated message delivery schedules one closure capturing the
// network pointer plus the Message being delivered (~64 bytes with a
// refcounted sliced Payload). std::function's small-object buffer (16
// bytes on libstdc++) pushed every such closure onto the heap, making
// allocator traffic the dominant cost of bench_micro fan-out. EventFn
// sizes its inline buffer for that delivery closure; larger callables
// fall back to the heap transparently. test_sim pins the delivery shape
// to the inline path.
class EventFn {
 public:
  // Exactly fits the delivery closure (SimNetwork* + Message with its
  // 32-byte sliced Payload). Growing Message pushes deliveries onto the
  // heap-fallback path — test_sim pins the inline invariant so that shows
  // up as a test failure, not a silent perf cliff.
  static constexpr std::size_t kInlineCapacity = 64;

  EventFn() noexcept = default;
  EventFn(std::nullptr_t) noexcept {}

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             std::is_invocable_v<std::remove_cvref_t<F>&>)
  EventFn(F&& f) {  // NOLINT: implicit, drop-in for std::function<void()>
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineCapacity && alignof(Fn) <= 8 &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = inline_ops<Fn>();
    } else {
      // lint: naked-new-ok(SBO heap fallback; owned via ops_->destroy) // lint: hot-path-alloc-ok(SBO miss only: schedule-path callables stay inline)
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = heap_ops<Fn>();
    }
  }

  EventFn(EventFn&& other) noexcept { take(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  EventFn& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  // Empty EventFns throw like std::function would (rather than chasing a
  // null ops_): scheduling a nullptr event stays a catchable mistake.
  void operator()() {
    if (ops_ == nullptr) throw std::bad_function_call();
    ops_->invoke(storage_);
  }
  explicit operator bool() const noexcept { return ops_ != nullptr; }
  // True when the callable lives in the inline buffer (no heap
  // allocation); introspection for the zero-allocation regression tests.
  bool stores_inline() const noexcept { return ops_ != nullptr && ops_->inline_stored; }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move into dst + destroy src. nullptr => relocation is a plain memcpy
    // of `size` bytes (trivially-copyable closures, and the heap case
    // where the buffer only holds a pointer) — the hot-path moves then
    // reduce to a small copy instead of an indirect call.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;  // nullptr => trivially destructible
    std::uint32_t size;               // callable footprint in the buffer
    bool inline_stored;
  };

  template <typename Fn>
  static const Ops* inline_ops() {
    static constexpr Ops kOps{
        [](void* s) { (*static_cast<Fn*>(s))(); },
        std::is_trivially_copyable_v<Fn>
            ? nullptr
            : +[](void* dst, void* src) noexcept {
                Fn* f = static_cast<Fn*>(src);
                ::new (dst) Fn(std::move(*f));
                f->~Fn();
              },
        std::is_trivially_destructible_v<Fn>
            ? nullptr
            : +[](void* s) noexcept { static_cast<Fn*>(s)->~Fn(); },
        /*size=*/sizeof(Fn),
        /*inline_stored=*/true};
    return &kOps;
  }

  template <typename Fn>
  static const Ops* heap_ops() {
    static constexpr Ops kOps{
        [](void* s) { (**static_cast<Fn**>(s))(); },
        /*relocate=*/nullptr,  // buffer holds one pointer: memcpy moves it
        [](void* s) noexcept { delete *static_cast<Fn**>(s); },
        /*size=*/sizeof(Fn*),
        /*inline_stored=*/false};
    return &kOps;
  }

  void take(EventFn& other) noexcept {
    if (other.ops_ != nullptr) {
      if (other.ops_->relocate != nullptr) {
        other.ops_->relocate(storage_, other.storage_);
      } else {
        std::memcpy(storage_, other.storage_, other.ops_->size);
      }
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(8) unsigned char storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};
// Event handle: generation (high 32 bits) | slot index (low 32 bits).
// Generations start at 1, so a valid handle is never 0 and a handle stays
// invalid forever once its event fired or was cancelled, even after the
// slot is recycled. 0 is the reserved "no event" value.
using EventId = std::uint64_t;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeMicros now() const { return now_; }

  // Schedules fn at absolute time t (>= now). Returns a handle for cancel().
  EventId schedule_at(TimeMicros t, EventFn fn);
  // Schedules fn after a non-negative delay.
  EventId schedule_after(DurationMicros delay, EventFn fn);
  // Cancels a pending event; no-op if it already fired or was cancelled.
  // O(1) amortized; releases the event's closure immediately.
  void cancel(EventId id);

  // Runs events until the queue drains or `limit` events fired.
  // Returns the number of events executed.
  std::uint64_t run(std::uint64_t limit = UINT64_MAX);
  // Runs events with timestamp <= t, then advances the clock to exactly t.
  std::uint64_t run_until(TimeMicros t);
  // Executes the single next event, if any. Returns false on empty queue.
  bool step();

  bool empty() const { return live_ == 0; }
  std::uint64_t executed_events() const { return executed_; }
  // Exact count of pending (scheduled, not yet fired or cancelled) events.
  std::uint64_t live_events() const { return live_; }

  // Introspection for memory-bound tests/benches, read off the storage
  // itself: entries held in the buckets (live + not-yet-swept stale),
  // queue blocks holding them, queue blocks ever allocated, and arena size
  // (peak concurrent live events). The first three walk the queue.
  std::size_t queued_entries() const;
  std::size_t queue_blocks_in_use() const;
  std::size_t queue_blocks_allocated() const { return blocks_.size(); }
  std::size_t slot_count() const { return slot_count_; }

  // Queue entries per storage block, and the number of buckets. A bucket
  // holds at most two partly filled blocks, so the blocks in use never
  // exceed queued_entries() / kBlockEntries + 2 * kBuckets.
  static constexpr std::uint32_t kBlockEntries = 127;
  static constexpr int kBuckets = 64;

 private:
  struct Slot {
    EventFn fn;
    std::uint32_t gen = 1;
    bool armed = false;
  };
  // Slots live in fixed-size chunks so their addresses are stable: an
  // event's closure executes IN PLACE (no move out of the arena) even when
  // the callback schedules new events and grows the arena. Together with
  // EventFn's inline storage this makes the per-event hot path zero-alloc
  // and zero-relocation.
  static constexpr std::size_t kSlotChunkShift = 8;  // 256 slots per chunk
  static constexpr std::size_t kSlotChunkSize = std::size_t{1} << kSlotChunkShift;
  static constexpr std::size_t kSlotChunkMask = kSlotChunkSize - 1;

  Slot& slot_at(std::uint32_t idx) {
    return slot_chunks_[idx >> kSlotChunkShift][idx & kSlotChunkMask];
  }
  const Slot& slot_at(std::uint32_t idx) const {
    return slot_chunks_[idx >> kSlotChunkShift][idx & kSlotChunkMask];
  }
  struct Entry {
    TimeMicros at;
    EventId id;
  };
  // Queue storage: a bucket is a FIFO chain of fixed-size blocks, and
  // every bucket takes and returns blocks through one shared free list.
  struct Block {
    Block* next;  // first: shares a cache line with the first entries
    Entry entries[kBlockEntries];
  };
  struct Bucket {
    Block* head = nullptr;  // nullptr <=> empty
    Block* tail = nullptr;
    // Lowest time pushed since the bucket was last empty, cancelled
    // entries included: still a time in this bucket's range.
    TimeMicros min = 0;
    std::uint32_t head_pos = 0;  // next entry to pop in head
    std::uint32_t tail_len = 0;  // entries written in tail
  };
  // Times are non-negative int64s, so two of them differ at most in bit
  // 62: bucket 0 holds time == base_, bucket b the times whose highest bit
  // differing from base_ is b - 1, and 64 buckets cover every time.
  static_assert(std::is_same_v<TimeMicros, std::int64_t>);

  std::size_t bucket_of(TimeMicros t) const {
    return static_cast<std::size_t>(
        std::bit_width(static_cast<std::uint64_t>(t) ^ static_cast<std::uint64_t>(base_)));
  }
  void push(std::size_t b, const Entry& e);
  void pop_front(std::size_t b);
  // Empties bucket b, handing fn its entries in order; each block returns
  // to the free list once visited, so fn may push anywhere.
  template <typename Fn>
  void drain(std::size_t b, Fn&& fn);
  Block* take_block();
  void release_block(Block* blk);

  static constexpr EventId make_id(std::uint32_t gen, std::uint32_t idx) {
    return (static_cast<EventId>(gen) << 32) | idx;
  }
  static constexpr std::uint32_t gen_of(EventId id) { return static_cast<std::uint32_t>(id >> 32); }
  static constexpr std::uint32_t index_of(EventId id) { return static_cast<std::uint32_t>(id); }

  bool slot_matches(EventId id) const {
    std::uint32_t idx = index_of(id);
    if (idx >= slot_count_) return false;
    const Slot& s = slot_at(idx);
    return s.armed && s.gen == gen_of(id);
  }
  // Frees the closure, invalidates outstanding handles, recycles the slot.
  void release_slot(std::uint32_t idx);
  // Drops stale entries and re-buckets until the front of bucket 0 is a
  // live event due at or before `limit`; returns false if there is none.
  // The base never moves past `limit`, so after run_until(t) stops short,
  // scheduling anywhere in [t, next event) stays legal.
  bool settle(TimeMicros limit);
  void maybe_compact();

  TimeMicros now_ = 0;
  TimeMicros base_ = 0;  // time of bucket 0's entries; never above now_ between calls
  std::uint64_t executed_ = 0;
  std::uint64_t live_ = 0;
  std::uint64_t stale_ = 0;     // queue entries whose event was cancelled
  std::uint64_t nonempty_ = 0;  // bit b set <=> bucket b holds entries
  std::array<Bucket, kBuckets> buckets_{};
  std::vector<std::unique_ptr<Block>> blocks_;  // every block ever made
  Block* free_blocks_ = nullptr;
  std::vector<std::unique_ptr<Slot[]>> slot_chunks_;
  // lint: adhoc-counter-ok(arena bookkeeping; exposed via the sim.slot_count registry probe)
  std::size_t slot_count_ = 0;  // slots ever minted (peak concurrent live events)
  std::vector<std::uint32_t> free_slots_;
};

// RAII periodic timer: fires `fn` every `period` until destroyed or stopped.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, DurationMicros period, EventFn fn);
  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void stop();
  bool running() const { return running_; }

 private:
  void arm();

  Simulator& sim_;
  DurationMicros period_;
  EventFn fn_;
  EventId pending_ = 0;
  bool running_ = true;
};

}  // namespace atum::sim
