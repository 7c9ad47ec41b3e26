// The tick-keyed counterpart of EventQueue: a bucketed monotone
// integer-time queue whose buckets hold the events themselves
// (docs/PERFORMANCE.md).
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
// FIFO buckets (vectors of {seq, payload} slots; appending preserves FIFO
// because seqs only grow), and events beyond the ring horizon overflow
// into a small (tick, seq) min-heap that refills the ring when the cursor
// reaches them. Pops scan forward from the cursor -- total scan work over
// a run is bounded by the time span crossed, and in the simulators' dense
// schedules the next bucket is almost always within a step or two.
//
// ## Inline slots and look-ahead
//
// Each event lives inline in its bucket, next to its seq, and the far
// heap holds payloads too: a pop reads one contiguous slot, with no
// side arena and no free-list index to chase. A bucket keeps its storage
// while it is reused, up to kKeepSlots slots; a drained bucket larger
// than that gives its storage back, so what the queue holds tracks the
// events in flight rather than every event a run ever pushed. clear()
// keeps the (bounded) bucket capacity for the next run.
//
// Because a bucket is already in pop order, the events that will pop next
// are known before they pop. ahead(k) returns the payload k slots past the
// next pop in the cursor's bucket (nullptr past the bucket's end), so an
// event loop can prefetch the state the k-th next event will touch while
// it handles the current one (kLookAhead, support/ticks.hpp). It is a hint:
// pop order is unchanged whether or not anyone calls it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
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
    if (time < base_ + static_cast<Tick>(kRingSize)) {
      ring_[bucket(time)].push_back(Slot{seq, std::move(payload)});
      ++ring_count_;
    } else {
      far_.push_back(Far{time, Slot{seq, std::move(payload)}});
      std::push_heap(far_.begin(), far_.end(), later);
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
    if (ring_count_ == 0) return far_.front().time;
    Tick t = cursor_;
    while (true) {
      POSTAL_CHECK(t < base_ + static_cast<Tick>(kRingSize));
      const std::size_t b = bucket(t);
      if (head_[b] < ring_[b].size()) return t;
      ++t;
    }
  }

  /// The payload k slots past the next pop in the cursor's bucket --
  /// ahead(0) is what the next pop returns when it pops at the cursor --
  /// or nullptr past that bucket's end. A prefetch hint only: valid until
  /// the next push, pop or drain step. Inside drain_current_tick's fn it
  /// looks past the event being handled.
  [[nodiscard]] const Payload* ahead(std::size_t k) const noexcept {
    const std::size_t b = bucket(cursor_);
    const std::size_t i = head_[b] + k;
    return i < ring_[b].size() ? &ring_[b][i].payload : nullptr;
  }

  /// Remove and return the earliest event; requires !empty().
  std::pair<Tick, Payload> pop() {
    Slot& slot = front();
    std::pair<Tick, Payload> out{cursor_, std::move(slot.payload)};
    consume_front();
    return out;
  }

  /// Batched per-bucket pop: position the cursor on the earliest nonempty
  /// tick and hand every event at that tick to fn(seq, Payload&&) in FIFO
  /// order -- including events fn itself pushes back at the same tick while
  /// the batch drains, exactly as repeated pop() calls would order them.
  /// Returns the drained tick. Requires !empty(). fn may push() into this
  /// queue and call ahead() but must not pop/drain/clear it. Compared to a
  /// pop() loop this touches the cursor/bucket bookkeeping once per tick
  /// instead of once per event, and the walk is a contiguous scan of the
  /// bucket. This is the data-oriented hot path of ParMachine's shard
  /// loop (docs/SIMULATION.md).
  template <typename Fn>
  Tick drain_current_tick(Fn&& fn) {
    advance();
    const Tick tick = cursor_;
    const std::size_t b = bucket(tick);
    std::vector<Slot>& slots = ring_[b];
    std::size_t drained = 0;
    // Index-based: fn may push at `tick`, growing (and reallocating) the
    // bucket vector mid-walk; seqs only grow, so appends extend FIFO order.
    // The payload moves out before fn runs, so a reallocation cannot pull
    // it from under fn, and head_ already points past it for ahead().
    while (head_[b] < slots.size()) {
      Slot& slot = slots[head_[b]++];
      const std::uint64_t seq = slot.seq;
      Payload payload = std::move(slot.payload);
      ++drained;
      fn(seq, std::move(payload));
    }
    retire(b);
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
      Slot& slot = front();
      fn(cursor_, slot.seq, std::move(slot.payload));
      consume_front();
    }
  }

  /// Reset to empty, keeping each bucket's capacity up to kKeepSlots for
  /// the next run.
  void clear() {
    for (std::size_t b = 0; b < kRingSize; ++b) retire(b);
    far_.clear();
    size_ = 0;
    ring_count_ = 0;
    base_ = 0;
    cursor_ = 0;
  }

 private:
  struct Slot {
    std::uint64_t seq;
    Payload payload;
  };
  struct Far {
    Tick time;
    Slot slot;
  };

  static constexpr std::size_t kRingSize = 1024;  // power of two (mask below)
  /// Largest bucket capacity kept once the bucket drains (see file comment).
  static constexpr std::size_t kKeepSlots = 4096;

  static std::size_t bucket(Tick t) noexcept {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(t)) &
           (kRingSize - 1);
  }

  /// Heap order for far_: std::push_heap keeps a max-heap, so "less" is
  /// "pops later" -- the (time, seq) minimum sits at the front.
  static bool later(const Far& a, const Far& b) noexcept {
    if (a.time != b.time) return b.time < a.time;
    return b.slot.seq < a.slot.seq;
  }

  /// Empty bucket b; a bucket grown past kKeepSlots releases its storage.
  void retire(std::size_t b) {
    std::vector<Slot>& slots = ring_[b];
    if (slots.capacity() > kKeepSlots) {
      std::vector<Slot>().swap(slots);
    } else {
      slots.clear();
    }
    head_[b] = 0;
  }

  /// Move the cursor to the earliest nonempty bucket; requires !empty().
  void advance() {
    POSTAL_CHECK(size_ != 0);
    if (ring_count_ == 0) {
      // Nothing in the window: jump the window to the far heap's minimum.
      // All ring buckets are empty here, so rebasing cannot strand slots,
      // and the heap pops in (time, seq) order, so same-bucket appends
      // stay FIFO.
      base_ = far_.front().time;
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

  /// The earliest event's slot, with the cursor moved to its tick;
  /// requires !empty().
  Slot& front() {
    advance();
    const std::size_t b = bucket(cursor_);
    return ring_[b][head_[b]];
  }

  /// Drop the slot front() returned.
  void consume_front() {
    const std::size_t b = bucket(cursor_);
    if (++head_[b] == ring_[b].size()) retire(b);
    --ring_count_;
    --size_;
  }

  void refill() {
    while (!far_.empty() && far_.front().time < base_ + static_cast<Tick>(kRingSize)) {
      std::pop_heap(far_.begin(), far_.end(), later);
      Far& f = far_.back();
      ring_[bucket(f.time)].push_back(std::move(f.slot));
      far_.pop_back();
      ++ring_count_;
    }
  }

  std::vector<std::vector<Slot>> ring_;  ///< per-tick FIFO buckets
  std::vector<std::size_t> head_;        ///< consumed prefix per bucket
  std::vector<Far> far_;                 ///< heap of events at >= base_ + kRingSize
  std::size_t size_ = 0;
  std::size_t ring_count_ = 0;  ///< live slots currently in the ring
  Tick base_ = 0;               ///< ring window is [base_, base_ + kRingSize)
  Tick cursor_ = 0;             ///< current scan position (last pop's tick)
};

}  // namespace postal
