// The tick-keyed counterpart of EventQueue: a bucketed monotone
// integer-time queue with a recycled payload arena (docs/PERFORMANCE.md).
//
// ## Contract
//
// Identical to EventQueue's (time, seq) contract: pops are ordered by
// (tick, seq) -- strictly earliest tick first, FIFO among events at the
// same tick. The caller supplies the seq explicitly (the Machine shares
// one counter between this queue and its parked off-grid timers, so a
// mid-run grid rescale re-pushes everything in the original global
// order); seqs must be distinct and each push's seq larger than any
// already-popped event at the same tick.
// tests/sim/event_queue_test.cpp verifies both queues against the same
// randomized workloads.
//
// ## Why a calendar, not a heap
//
// Event-driven simulation only ever schedules at or after the current
// time, so pushes are *monotone*: never earlier than the last pop. That
// admits a calendar layout with O(1) push/pop instead of a binary heap's
// O(log n) Rational comparisons: the near future is a ring of per-tick
// FIFO buckets (vectors of (seq, arena index); appending preserves FIFO
// because seqs only grow), and events beyond the ring horizon overflow
// into a small (tick, seq) min-heap that refills the ring when the cursor
// reaches them. Pops scan forward from the cursor -- total scan work over
// a run is bounded by the time span crossed, and in the simulators' dense
// schedules the next bucket is almost always within a step or two.
//
// ## The arena
//
// Payloads live in a vector recycled through a free list; a run allocates
// only while growing to its high-water mark, and clear() keeps all
// capacity for the next run -- this is the "per-run event arena" that
// avoids per-event heap allocations.
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "support/ticks.hpp"

namespace postal {

/// Monotone (tick, seq)-ordered queue of payloads; see file comment.
template <typename Payload>
class TickEventQueue {
 public:
  TickEventQueue() : ring_(kRingSize), head_(kRingSize, 0) {}

  /// Insert at `time` (>= the last popped time, >= 0) with explicit `seq`.
  void push(Tick time, std::uint64_t seq, Payload payload) {
    POSTAL_CHECK(time >= cursor_);
    const std::uint32_t idx = alloc(std::move(payload));
    if (time < base_ + static_cast<Tick>(kRingSize)) {
      ring_[bucket(time)].push_back(Slot{seq, idx});
      ++ring_count_;
    } else {
      far_.push(Far{time, seq, idx});
    }
    ++size_;
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Tick of the earliest event; requires !empty(). Commits the scan: the
  /// cursor moves to that tick, so later pushes below it are rejected even
  /// if nothing was popped there. Use peek_time() to look without
  /// committing.
  [[nodiscard]] Tick next_time() {
    advance();
    return cursor_;
  }

  /// Tick of the earliest event without moving the cursor; requires
  /// !empty(). Lets a caller decide *whether* to pop here at all (e.g.
  /// ParMachine's window loops stop at a horizon, then push barrier
  /// traffic at ticks the committed cursor would have overshot). Cost
  /// mirrors advance()'s forward scan without its amortization, bounded
  /// by the ring size.
  [[nodiscard]] Tick peek_time() const {
    POSTAL_CHECK(size_ != 0);
    if (ring_count_ == 0) return far_.top().time;
    Tick t = cursor_;
    while (true) {
      POSTAL_CHECK(t < base_ + static_cast<Tick>(kRingSize));
      const std::size_t b = bucket(t);
      if (head_[b] < ring_[b].size()) return t;
      ++t;
    }
  }

  /// Remove and return the earliest event; requires !empty().
  std::pair<Tick, Payload> pop() {
    auto [tick, slot] = take();
    Payload out = std::move(arena_[slot.idx]);
    free_.push_back(slot.idx);
    return {tick, std::move(out)};
  }

  /// Batched per-bucket pop: position the cursor on the earliest nonempty
  /// tick and hand every event at that tick to fn(seq, Payload&&) in FIFO
  /// order -- including events fn itself pushes back at the same tick while
  /// the batch drains, exactly as repeated pop() calls would order them.
  /// Returns the drained tick. Requires !empty(). fn may push() into this
  /// queue but must not pop/drain/clear it. Compared to a pop() loop this
  /// touches the cursor/bucket bookkeeping once per tick instead of once
  /// per event; slot metadata (seq, arena index) stays separate from the
  /// payload arena, so the batch walk is a contiguous scan. This is the
  /// data-oriented hot path of ParMachine's shard loop
  /// (docs/SIMULATION.md).
  template <typename Fn>
  Tick drain_current_tick(Fn&& fn) {
    advance();
    const Tick tick = cursor_;
    const std::size_t b = bucket(tick);
    std::vector<Slot>& slots = ring_[b];
    std::size_t i = head_[b];
    std::size_t drained = 0;
    // Index-based: fn may push at `tick`, growing (and reallocating) the
    // bucket vector mid-walk; seqs only grow, so appends extend FIFO order.
    while (i < slots.size()) {
      const Slot slot = slots[i];
      ++i;
      ++drained;
      Payload payload = std::move(arena_[slot.idx]);
      free_.push_back(slot.idx);
      fn(slot.seq, std::move(payload));
    }
    slots.clear();
    head_[b] = 0;
    ring_count_ -= drained;
    size_ -= drained;
    return tick;
  }

  /// Empty the queue through fn(tick, seq, Payload&&), in pop order. Used
  /// by the Machine's grid rescale to re-key every pending event (with its
  /// original seq) on the finer grid.
  template <typename Fn>
  void drain(Fn&& fn) {
    while (size_ != 0) {
      auto [tick, slot] = take();
      fn(tick, slot.seq, std::move(arena_[slot.idx]));
      free_.push_back(slot.idx);
    }
  }

  /// Reset to empty, keeping arena/bucket capacity for the next run.
  void clear() {
    for (std::size_t b = 0; b < kRingSize; ++b) {
      ring_[b].clear();
      head_[b] = 0;
    }
    while (!far_.empty()) far_.pop();
    arena_.clear();
    free_.clear();
    size_ = 0;
    ring_count_ = 0;
    base_ = 0;
    cursor_ = 0;
  }

 private:
  struct Slot {
    std::uint64_t seq;
    std::uint32_t idx;
  };
  struct Far {
    Tick time;
    std::uint64_t seq;
    std::uint32_t idx;
    // Min-heap on (time, seq): invert for std::priority_queue's max-heap.
    friend bool operator<(const Far& a, const Far& b) {
      if (a.time != b.time) return b.time < a.time;
      return b.seq < a.seq;
    }
  };

  static constexpr std::size_t kRingSize = 1024;  // power of two (mask below)

  static std::size_t bucket(Tick t) noexcept {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(t)) &
           (kRingSize - 1);
  }

  std::uint32_t alloc(Payload&& payload) {
    if (!free_.empty()) {
      const std::uint32_t idx = free_.back();
      free_.pop_back();
      arena_[idx] = std::move(payload);
      return idx;
    }
    POSTAL_CHECK(arena_.size() < UINT32_MAX);
    arena_.push_back(std::move(payload));
    return static_cast<std::uint32_t>(arena_.size() - 1);
  }

  /// Move the cursor to the earliest nonempty bucket; requires !empty().
  void advance() {
    POSTAL_CHECK(size_ != 0);
    if (ring_count_ == 0) {
      // Nothing in the window: jump the window to the far heap's minimum.
      // All ring buckets are empty here, so rebasing cannot strand slots,
      // and the heap pops in (time, seq) order, so same-bucket appends
      // stay FIFO.
      base_ = far_.top().time;
      cursor_ = base_;
      refill();
    }
    // ring_count_ > 0 here, every live slot's tick is in [cursor_, base_ +
    // kRingSize) (pushes are >= cursor_, the window spans exactly kRingSize
    // ticks so each bucket holds one tick value), hence the scan hits a
    // nonempty bucket before the window edge.
    while (true) {
      POSTAL_CHECK(cursor_ < base_ + static_cast<Tick>(kRingSize));
      const std::size_t b = bucket(cursor_);
      if (head_[b] < ring_[b].size()) return;
      ++cursor_;
    }
  }

  void refill() {
    while (!far_.empty() && far_.top().time < base_ + static_cast<Tick>(kRingSize)) {
      const Far f = far_.top();
      far_.pop();
      ring_[bucket(f.time)].push_back(Slot{f.seq, f.idx});
      ++ring_count_;
    }
  }

  std::pair<Tick, Slot> take() {
    advance();
    const std::size_t b = bucket(cursor_);
    const Slot slot = ring_[b][head_[b]++];
    if (head_[b] == ring_[b].size()) {
      ring_[b].clear();
      head_[b] = 0;
    }
    --ring_count_;
    --size_;
    return {cursor_, slot};
  }

  std::vector<std::vector<Slot>> ring_;  ///< per-tick FIFO buckets
  std::vector<std::size_t> head_;        ///< consumed prefix per bucket
  std::priority_queue<Far> far_;         ///< events at >= base_ + kRingSize
  std::vector<Payload> arena_;           ///< recycled payload storage
  std::vector<std::uint32_t> free_;      ///< arena free list
  std::size_t size_ = 0;
  std::size_t ring_count_ = 0;  ///< live slots currently in the ring
  Tick base_ = 0;               ///< ring window is [base_, base_ + kRingSize)
  Tick cursor_ = 0;             ///< current scan position (last pop's tick)
};

}  // namespace postal
