#include "sim/simulator.h"

#include <bit>
#include <limits>
#include <stdexcept>
#include <utility>

namespace atum::sim {

namespace {
// Below this many queue entries a compaction sweep costs more than it saves.
constexpr std::uint64_t kMinCompactEntries = 64;
constexpr TimeMicros kNever = std::numeric_limits<TimeMicros>::max();
}  // namespace

Simulator::Block* Simulator::take_block() {
  Block* blk = free_blocks_;
  if (blk != nullptr) {
    free_blocks_ = blk->next;
  } else {
    // lint: hot-path-alloc-ok(amortized queue growth: blocks are recycled through the free list, never freed)
    blocks_.push_back(std::make_unique_for_overwrite<Block>());
    blk = blocks_.back().get();
  }
  blk->next = nullptr;
  return blk;
}

void Simulator::release_block(Block* blk) {
  blk->next = free_blocks_;
  free_blocks_ = blk;
}

void Simulator::push(std::size_t b, const Entry& e) {
  Bucket& bk = buckets_[b];
  if (bk.head == nullptr) {
    bk.head = bk.tail = take_block();
    bk.head_pos = bk.tail_len = 0;
    bk.min = e.at;
    nonempty_ |= std::uint64_t{1} << b;
  } else {
    if (bk.tail_len == kBlockEntries) {
      bk.tail->next = take_block();
      bk.tail = bk.tail->next;
      bk.tail_len = 0;
    }
    if (e.at < bk.min) bk.min = e.at;
  }
  bk.tail->entries[bk.tail_len++] = e;
}

void Simulator::pop_front(std::size_t b) {
  Bucket& bk = buckets_[b];
  ++bk.head_pos;
  if (bk.head == bk.tail) {
    if (bk.head_pos == bk.tail_len) {
      release_block(bk.head);
      bk.head = bk.tail = nullptr;
      nonempty_ &= ~(std::uint64_t{1} << b);
    }
  } else if (bk.head_pos == kBlockEntries) {
    Block* next = bk.head->next;
    release_block(bk.head);
    bk.head = next;
    bk.head_pos = 0;
  }
}

template <typename Fn>
void Simulator::drain(std::size_t b, Fn&& fn) {
  const Bucket bk = buckets_[b];
  buckets_[b].head = buckets_[b].tail = nullptr;
  nonempty_ &= ~(std::uint64_t{1} << b);
  std::uint32_t i = bk.head_pos;
  for (Block* blk = bk.head; blk != nullptr; i = 0) {
    const std::uint32_t end = blk == bk.tail ? bk.tail_len : kBlockEntries;
    for (; i < end; ++i) fn(blk->entries[i]);
    Block* next = blk->next;
    release_block(blk);
    blk = next;
  }
}

std::size_t Simulator::queued_entries() const {
  std::size_t n = 0;
  for (const Bucket& bk : buckets_) {
    if (bk.head == nullptr) continue;
    n += bk.tail_len - bk.head_pos;
    for (const Block* blk = bk.head; blk != bk.tail; blk = blk->next) n += kBlockEntries;
  }
  return n;
}

std::size_t Simulator::queue_blocks_in_use() const {
  std::size_t free = 0;
  for (const Block* blk = free_blocks_; blk != nullptr; blk = blk->next) ++free;
  return blocks_.size() - free;
}

EventId Simulator::schedule_at(TimeMicros t, EventFn fn) {
  if (t < now_) t = now_;  // clamp: "immediately" for past deadlines
  std::uint32_t idx;
  if (!free_slots_.empty()) {
    idx = free_slots_.back();
    free_slots_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(slot_count_);
    if ((slot_count_ & kSlotChunkMask) == 0) {
      // lint: hot-path-alloc-ok(amortized arena growth: one chunk per kSlotChunkSize slots, never freed)
      slot_chunks_.push_back(std::make_unique<Slot[]>(kSlotChunkSize));
    }
    ++slot_count_;
  }
  Slot& s = slot_at(idx);
  s.fn = std::move(fn);
  s.armed = true;
  EventId id = make_id(s.gen, idx);
  push(bucket_of(t), Entry{t, id});
  ++live_;
  return id;
}

EventId Simulator::schedule_after(DurationMicros delay, EventFn fn) {
  if (delay < 0) throw std::invalid_argument("Simulator: negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

void Simulator::release_slot(std::uint32_t idx) {
  Slot& s = slot_at(idx);
  s.fn = nullptr;  // reclaim the closure now, not at pop time
  s.armed = false;
  if (++s.gen == 0) s.gen = 1;  // keep handles non-zero across wraparound
  free_slots_.push_back(idx);
}

void Simulator::cancel(EventId id) {
  if (!slot_matches(id)) return;  // unknown, already fired, or cancelled
  release_slot(index_of(id));
  --live_;
  ++stale_;  // the queue entry stays behind until popped or swept
  maybe_compact();
}

void Simulator::maybe_compact() {
  const std::uint64_t entries = live_ + stale_;
  if (entries < kMinCompactEntries || stale_ * 2 <= entries) return;
  // Each bucket is refilled with its own live entries in their order, so
  // equal-time entries keep their scheduling order.
  for (std::uint64_t rest = nonempty_; rest != 0; rest &= rest - 1) {
    const auto b = static_cast<std::size_t>(std::countr_zero(rest));
    drain(b, [this, b](const Entry& e) {
      if (slot_matches(e.id)) push(b, e);
    });
  }
  stale_ = 0;
}

bool Simulator::settle(TimeMicros limit) {
  while (nonempty_ != 0) {
    if ((nonempty_ & 1) != 0) {
      const Bucket& bk = buckets_[0];
      const Entry& e = bk.head->entries[bk.head_pos];
      if (slot_matches(e.id)) return e.at <= limit;
      pop_front(0);
      --stale_;
      continue;
    }
    // The lowest non-empty bucket holds the next event. Its minimum (of
    // live or stale entries alike) becomes the base, and its entries
    // spread, in order, over the buckets below it.
    const auto b = static_cast<std::size_t>(std::countr_zero(nonempty_));
    const Bucket& bk = buckets_[b];
    if (bk.min > limit) return false;
    base_ = bk.min;
    drain(b, [this](const Entry& e) { push(bucket_of(e.at), e); });
  }
  // Only stale entries were left: the base may have passed the clock.
  base_ = now_;
  return false;
}

bool Simulator::step() {
  if (!settle(kNever)) return false;
  Bucket& front = buckets_[0];
  const Entry e = front.head->entries[front.head_pos];
  pop_front(0);
  std::uint32_t idx = index_of(e.id);
  Slot& s = slot_at(idx);
  // Disarm first: the handle dies and cancel() on it no-ops. The chunked
  // arena is address-stable, so the closure runs IN PLACE even if it
  // schedules new events; the slot is destroyed and recycled only after it
  // returns (a nested schedule can never be handed this slot meanwhile —
  // it is neither armed nor on the free list).
  s.armed = false;
  if (++s.gen == 0) s.gen = 1;
  --live_;
  now_ = e.at;
  ++executed_;
  try {
    s.fn();
  } catch (...) {
    // A throwing handler must not leak the slot (or the Payload buffers
    // its closure pins): recycle before propagating.
    s.fn = nullptr;
    free_slots_.push_back(idx);
    throw;
  }
  s.fn = nullptr;
  free_slots_.push_back(idx);
  return true;
}

std::uint64_t Simulator::run(std::uint64_t limit) {
  std::uint64_t n = 0;
  while (n < limit && step()) ++n;
  return n;
}

std::uint64_t Simulator::run_until(TimeMicros t) {
  std::uint64_t n = 0;
  while (settle(t)) {
    step();
    ++n;
  }
  if (now_ < t) now_ = t;
  return n;
}

PeriodicTimer::PeriodicTimer(Simulator& sim, DurationMicros period, EventFn fn)
    : sim_(sim), period_(period), fn_(std::move(fn)) {
  if (period <= 0) throw std::invalid_argument("PeriodicTimer: period must be positive");
  arm();
}

void PeriodicTimer::arm() {
  pending_ = sim_.schedule_after(period_, [this] {
    if (!running_) return;
    arm();   // re-arm first so fn_ may stop() us
    fn_();
  });
}

void PeriodicTimer::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(pending_);
}

}  // namespace atum::sim
