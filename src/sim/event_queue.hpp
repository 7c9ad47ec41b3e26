// A deterministic min-heap event queue over rational time.
//
// ## The (time, seq) tie-break contract
//
// Every push is stamped with a monotonically increasing sequence number,
// and pops are ordered by (time, seq): strictly earliest time first, and
// among events at the *same* time, strictly first-pushed first (FIFO).
// This makes every simulation in this library reproducible independent of
// heap internals -- std::priority_queue gives no guarantee about equal
// keys, so the seq is load-bearing, not cosmetic. The contract is what the
// tick-keyed queue (sim/tick_queue.hpp) is verified against: both queues,
// fed the same (time, payload) pushes, pop the same payloads in the same
// order (tests/sim/event_queue_test.cpp).
#pragma once

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "support/rational.hpp"

namespace postal {

/// Priority queue of (time, payload) with FIFO tie-breaking on equal times.
template <typename Payload>
class EventQueue {
 public:
  void push(Rational time, Payload payload) {
    heap_.push(Entry{std::move(time), seq_++, std::move(payload)});
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Time of the earliest event; requires !empty().
  [[nodiscard]] const Rational& next_time() const { return heap_.top().time; }

  /// Remove and return the earliest event; requires !empty().
  std::pair<Rational, Payload> pop() {
    Entry top = heap_.top();
    heap_.pop();
    return {std::move(top.time), std::move(top.payload)};
  }

 private:
  struct Entry {
    Rational time;
    std::uint64_t seq;
    Payload payload;
    // std::priority_queue is a max-heap; invert so earliest (time, seq) wins.
    friend bool operator<(const Entry& a, const Entry& b) {
      if (a.time != b.time) return b.time < a.time;
      return b.seq < a.seq;
    }
  };

  std::priority_queue<Entry> heap_;
  std::uint64_t seq_ = 0;
};

}  // namespace postal
