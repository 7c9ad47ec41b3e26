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
// FIFO buckets of {seq, payload} slots (appending preserves FIFO because
// seqs only grow), and events beyond the ring horizon overflow into a
// small (tick, seq) min-heap that refills the ring when the cursor reaches
// them. Pops scan forward from the cursor -- total scan work over a run is
// bounded by the time span crossed, and in the simulators' dense schedules
// the next bucket is almost always within a step or two.
//
// ## Inline slots in recycled chunks
//
// Each event lives inline in its bucket, next to its seq, and the far
// heap holds payloads too: a pop reads one contiguous slot, with no side
// arena and no index to chase. A bucket is a chain of fixed-size chunks of
// kChunkSlots slots. The queue owns a free list of chunks: a bucket takes
// its chunks from it as it grows and hands each one back as soon as it has
// been popped through, so the drained chunks of one tick feed the pushes
// of later ticks. A busy tick therefore never regrows a bucket by
// doubling, and what the queue holds tracks the events in flight, rounded
// up to a chunk per live bucket. clear() keeps at most kKeepChunks free
// chunks for the next run and frees the rest, so after a run the queue
// holds a constant reserve, not the run's peak.
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
#include <new>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "support/ticks.hpp"

namespace postal {

/// Monotone (tick, seq)-ordered queue of payloads; see file comment.
template <typename Payload>
class TickEventQueue {
 public:
  /// Slots per chunk of a bucket's chain (see file comment).
  static constexpr std::size_t kChunkSlots = 256;
  /// Free chunks clear() keeps for the next run.
  static constexpr std::size_t kKeepChunks = 16;

  TickEventQueue() : ring_(kRingSize) {}
  ~TickEventQueue() {
    for (Bucket& b : ring_) empty_bucket(b);
    while (free_ != nullptr) drop_chunk();
  }

  TickEventQueue(const TickEventQueue&) = delete;
  TickEventQueue& operator=(const TickEventQueue&) = delete;
  TickEventQueue(TickEventQueue&& other) noexcept
      : ring_(std::move(other.ring_)),
        far_(std::move(other.far_)),
        free_(std::exchange(other.free_, nullptr)),
        free_chunks_(std::exchange(other.free_chunks_, 0)),
        chunks_(std::exchange(other.chunks_, 0)),
        size_(std::exchange(other.size_, 0)),
        ring_count_(std::exchange(other.ring_count_, 0)),
        base_(std::exchange(other.base_, 0)),
        cursor_(std::exchange(other.cursor_, 0)) {
    other.ring_.clear();
  }
  TickEventQueue& operator=(TickEventQueue&&) = delete;

  /// Insert at `time` (>= the last popped time, >= 0) with explicit `seq`.
  void push(Tick time, std::uint64_t seq, Payload payload) {
    POSTAL_CHECK(time >= cursor_);
    if (time < base_ + static_cast<Tick>(kRingSize)) {
      append(ring_[bucket(time)], seq, std::move(payload));
      ++ring_count_;
    } else {
      far_.push_back(Far{time, seq, std::move(payload)});
      std::push_heap(far_.begin(), far_.end(), later);
    }
    ++size_;
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Events pending at tick `t`, which must be at or after the cursor.
  /// O(1) inside the ring; a tick past the ring horizon counts the far
  /// heap. ParMachine sizes its windows by these counts.
  [[nodiscard]] std::size_t pending_at(Tick t) const {
    POSTAL_CHECK(t >= cursor_);
    if (t < base_ + static_cast<Tick>(kRingSize)) return ring_[bucket(t)].count;
    return static_cast<std::size_t>(std::count_if(
        far_.begin(), far_.end(), [t](const Far& f) { return f.time == t; }));
  }

  /// Bytes of storage the queue holds: the ring, the far heap's capacity
  /// and every chunk it owns, in buckets or free.
  [[nodiscard]] std::size_t footprint_bytes() const noexcept {
    return ring_.capacity() * sizeof(Bucket) + far_.capacity() * sizeof(Far) +
           chunks_ * sizeof(Chunk);
  }

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
      if (ring_[bucket(t)].count != 0) return t;
      ++t;
    }
  }

  /// The payload k slots past the next pop in the cursor's bucket --
  /// ahead(0) is what the next pop returns when it pops at the cursor --
  /// or nullptr past that bucket's end. A prefetch hint only: valid until
  /// the next push, pop or drain step. Inside drain_current_tick's fn it
  /// looks past the event being handled.
  [[nodiscard]] const Payload* ahead(std::size_t k) const noexcept {
    const Bucket& b = ring_[bucket(cursor_)];
    if (k >= b.count) return nullptr;
    std::size_t i = b.first + k;
    const Chunk* c = b.head;
    for (; i >= kChunkSlots; i -= kChunkSlots) c = c->next;
    return &c->slot(i)->payload;
  }

  /// Remove and return the earliest event; requires !empty().
  std::pair<Tick, Payload> pop() {
    advance();
    const Tick tick = cursor_;
    return {tick, take_front(ring_[bucket(tick)]).payload};
  }

  /// Batched per-bucket pop: position the cursor on the earliest nonempty
  /// tick and hand every event at that tick to fn(seq, Payload&&) in FIFO
  /// order -- including events fn itself pushes back at the same tick while
  /// the batch drains, exactly as repeated pop() calls would order them.
  /// Returns the drained tick. Requires !empty(). fn may push() into this
  /// queue and call ahead() but must not pop/drain/clear it. Compared to a
  /// pop() loop this touches the cursor/bucket bookkeeping once per tick
  /// instead of once per event, and the walk is a contiguous scan of the
  /// bucket's chunks. This is the data-oriented hot path of ParMachine's
  /// shard loop (docs/SIMULATION.md).
  template <typename Fn>
  Tick drain_current_tick(Fn&& fn) {
    advance();
    const Tick tick = cursor_;
    Bucket& b = ring_[bucket(tick)];
    // fn may push at `tick`, appending to this bucket's tail chunk; seqs
    // only grow, so appends extend FIFO order. The slot moves out (and a
    // popped-through chunk goes back to the free list) before fn runs, so
    // the bucket already starts past it for ahead().
    while (b.count != 0) {
      Slot slot = take_front(b);
      fn(slot.seq, std::move(slot.payload));
    }
    return tick;
  }

  /// Empty the queue through fn(tick, seq, Payload&&), in pop order. Used
  /// by the Machine's grid rescale to re-key every pending event (with its
  /// original seq) on the finer grid.
  template <typename Fn>
  void drain(Fn&& fn) {
    while (size_ != 0) {
      advance();
      Slot slot = take_front(ring_[bucket(cursor_)]);
      fn(cursor_, slot.seq, std::move(slot.payload));
    }
  }

  /// Reset to empty, keeping at most kKeepChunks free chunks for the next
  /// run.
  void clear() {
    for (Bucket& b : ring_) empty_bucket(b);
    far_.clear();
    while (free_chunks_ > kKeepChunks) drop_chunk();
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
    std::uint64_t seq;
    Payload payload;
  };
  /// Storage for kChunkSlots slots, constructed one by one as pushes land.
  struct Chunk {
    Chunk* next = nullptr;
    alignas(Slot) unsigned char bytes[kChunkSlots * sizeof(Slot)];

    [[nodiscard]] Slot* slot(std::size_t i) noexcept {
      return std::launder(reinterpret_cast<Slot*>(bytes) + i);
    }
    [[nodiscard]] const Slot* slot(std::size_t i) const noexcept {
      return std::launder(reinterpret_cast<const Slot*>(bytes) + i);
    }
  };
  /// One tick's FIFO: live slots run from `first` in `head` to `end` in
  /// `tail` along the chain. An empty bucket holds no chunk.
  struct Bucket {
    Chunk* head = nullptr;
    Chunk* tail = nullptr;
    std::uint32_t first = 0;  ///< next pop's slot in head
    std::uint32_t end = 0;    ///< next push's slot in tail
    std::size_t count = 0;    ///< live slots
  };
  static_assert(kChunkSlots <= UINT32_MAX, "slot indexes fit a Bucket's u32s");

  static constexpr std::size_t kRingSize = 1024;  // power of two (mask below)

  static std::size_t bucket(Tick t) noexcept {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(t)) &
           (kRingSize - 1);
  }

  /// Heap order for far_: std::push_heap keeps a max-heap, so "less" is
  /// "pops later" -- the (time, seq) minimum sits at the front.
  static bool later(const Far& a, const Far& b) noexcept {
    if (a.time != b.time) return b.time < a.time;
    return b.seq < a.seq;
  }

  /// A chunk from the free list, or a new one.
  Chunk* take_chunk() {
    if (free_ == nullptr) {
      Chunk* c = new Chunk;
      ++chunks_;
      return c;
    }
    Chunk* c = free_;
    free_ = c->next;
    c->next = nullptr;
    --free_chunks_;
    return c;
  }

  /// Free the first chunk of the (nonempty) free list.
  void drop_chunk() noexcept {
    Chunk* c = free_;
    free_ = c->next;
    --free_chunks_;
    --chunks_;
    delete c;
  }

  void give_chunk(Chunk* c) noexcept {
    c->next = free_;
    free_ = c;
    ++free_chunks_;
  }

  void append(Bucket& b, std::uint64_t seq, Payload&& payload) {
    if (b.tail == nullptr) {
      b.head = b.tail = take_chunk();
      b.first = b.end = 0;
    } else if (b.end == kChunkSlots) {
      Chunk* c = take_chunk();
      b.tail->next = c;
      b.tail = c;
      b.end = 0;
    }
    ::new (static_cast<void*>(b.tail->slot(b.end))) Slot{seq, std::move(payload)};
    ++b.end;
    ++b.count;
  }

  /// Move the front slot of nonempty bucket b out, returning a chunk it
  /// has popped through to the free list.
  Slot take_front(Bucket& b) {
    Slot* s = b.head->slot(b.first);
    Slot out{s->seq, std::move(s->payload)};
    s->~Slot();
    ++b.first;
    --b.count;
    --ring_count_;
    --size_;
    if (b.count == 0) {
      give_chunk(b.head);
      b.head = b.tail = nullptr;
    } else if (b.first == kChunkSlots) {
      Chunk* c = b.head;
      b.head = c->next;
      b.first = 0;
      give_chunk(c);
    }
    return out;
  }

  /// Destroy bucket b's live slots and return its chunks to the free list.
  void empty_bucket(Bucket& b) noexcept {
    std::size_t i = b.first;
    for (std::size_t left = b.count; left != 0; --left) {
      if (i == kChunkSlots) {
        Chunk* c = b.head;
        b.head = c->next;
        give_chunk(c);
        i = 0;
      }
      b.head->slot(i++)->~Slot();
    }
    if (b.head != nullptr) give_chunk(b.head);
    b = Bucket{};
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
      if (ring_[bucket(cursor_)].count != 0) return;
      ++cursor_;
    }
  }

  void refill() {
    while (!far_.empty() && far_.front().time < base_ + static_cast<Tick>(kRingSize)) {
      std::pop_heap(far_.begin(), far_.end(), later);
      Far& f = far_.back();
      append(ring_[bucket(f.time)], f.seq, std::move(f.payload));
      far_.pop_back();
      ++ring_count_;
    }
  }

  std::vector<Bucket> ring_;  ///< per-tick FIFO buckets
  std::vector<Far> far_;      ///< heap of events at >= base_ + kRingSize
  Chunk* free_ = nullptr;     ///< free list, linked through Chunk::next
  std::size_t free_chunks_ = 0;
  std::size_t chunks_ = 0;    ///< chunks owned, in buckets or free
  std::size_t size_ = 0;
  std::size_t ring_count_ = 0;  ///< live slots currently in the ring
  Tick base_ = 0;               ///< ring window is [base_, base_ + kRingSize)
  Tick cursor_ = 0;             ///< current scan position (last pop's tick)
};

}  // namespace postal
