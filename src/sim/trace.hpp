// Delivery traces and the analyses shared by the schedule validator and the
// event-driven machine: coverage (who got what), order preservation, and
// makespan.
//
// A Trace stores time the way the engines run it: int64 ticks on the run's
// 1/q grid (support/ticks.hpp). Each delivery is a 32-byte TickDelivery and
// each (processor, message) first arrival one Tick, with kNeverArrived
// marking a cell nothing reached. Rational time is built only at the
// accessors -- arrival(), makespan(), order_violations() and the Delivery
// values of the deliveries() view -- so every reported time and string is
// the one a Rational computation would produce (docs/SIMULATION.md).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "model/params.hpp"
#include "support/rational.hpp"
#include "support/ticks.hpp"

namespace postal {

/// One completed message delivery, in exact model time.
struct Delivery {
  ProcId src = 0;
  ProcId dst = 0;
  MsgId msg = 0;
  Rational send_start;  ///< sender started transmitting at this time
  Rational arrival;     ///< receiver finished receiving (send_start + lambda)

  friend bool operator==(const Delivery&, const Delivery&) = default;
};

/// Renders as "p3->p7 M0 sent 5/2 arrived 5".
std::ostream& operator<<(std::ostream& os, const Delivery& d);

/// One delivery as a Trace stores it: both times in ticks of the trace's
/// 1/q grid.
struct TickDelivery {
  ProcId src = 0;
  ProcId dst = 0;
  MsgId msg = 0;
  Tick send_tick = 0;     ///< send start
  Tick arrival_tick = 0;  ///< receiver finished receiving

  friend bool operator==(const TickDelivery&, const TickDelivery&) = default;
};
static_assert(sizeof(TickDelivery) == 32, "a delivery record is 32 bytes");

/// Read-only Rational view of a trace's delivery records, in record order.
/// Elements are Delivery values built on access; records() exposes the
/// stored ticks. Equality is value equality of the Deliveries, so traces
/// on different grids compare equal when their times do.
class DeliveryView {
 public:
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Delivery;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Delivery;

    const_iterator(const TickDelivery* at, std::int64_t q) : at_(at), q_(q) {}

    Delivery operator*() const;
    const_iterator& operator++() {
      ++at_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++at_;
      return before;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.at_ == b.at_;
    }

   private:
    const TickDelivery* at_;
    std::int64_t q_;
  };
  using iterator = const_iterator;
  using value_type = Delivery;
  using size_type = std::size_t;

  DeliveryView(const std::vector<TickDelivery>& records, std::int64_t q) noexcept
      : records_(&records), q_(q) {}

  [[nodiscard]] std::size_t size() const noexcept { return records_->size(); }
  [[nodiscard]] bool empty() const noexcept { return records_->empty(); }
  [[nodiscard]] Delivery operator[](std::size_t i) const {
    return *const_iterator(records_->data() + i, q_);
  }
  [[nodiscard]] const_iterator begin() const noexcept {
    return {records_->data(), q_};
  }
  [[nodiscard]] const_iterator end() const noexcept {
    return {records_->data() + records_->size(), q_};
  }

  /// The stored records; times in ticks of the trace's grid (Trace::q()).
  [[nodiscard]] const std::vector<TickDelivery>& records() const noexcept {
    return *records_;
  }

  /// Same deliveries with the same Rational times, in the same order.
  /// Equal grids compare the records directly.
  friend bool operator==(const DeliveryView& a, const DeliveryView& b);

 private:
  const std::vector<TickDelivery>* records_;
  std::int64_t q_;
};

/// How much of a run's delivery history a Trace retains
/// (docs/SIMULATION.md, "trace elision").
enum class TraceMode : std::uint8_t {
  /// Materialize every delivery in pop order (the default). The full list
  /// is the byte-replayable artifact the differential suites and the
  /// Chrome-trace exporter consume.
  kFull,
  /// Keep only the per-(processor, message) first arrivals, the delivery
  /// count, and the running makespan; deliveries() stays empty. Coverage,
  /// order preservation, arrival() and makespan() are unchanged -- only
  /// the raw delivery list is elided. For callers that never read it
  /// (sampled execution tiers, headline benches) this removes the
  /// dominant memory traffic of a large run.
  kCounters,
};

/// A full run trace: all deliveries of one simulation.
class Trace {
 public:
  /// A trace of `n` processors (at most 2^32, the ProcId range) and
  /// `messages` message ids whose times are ticks of 1/q.
  Trace(std::uint64_t n, std::uint32_t messages, std::int64_t q = 1,
        TraceMode mode = TraceMode::kFull);

  /// Record one delivery (under kCounters: counters/first-arrival only).
  void record(const TickDelivery& d);

  /// kFull: make room for `deliveries` records (a capacity hint; no-op
  /// under kCounters).
  void reserve(std::size_t deliveries);

  /// Hint that a coming record() will write the (dst, msg) first-arrival
  /// cell: prefetch it. Out-of-range ids are ignored, so no address
  /// outside the table is ever formed.
  void prefetch(ProcId dst, MsgId msg) const noexcept {
    if (dst < n_ && msg < messages_) {
      __builtin_prefetch(first_arrival_.data() + arrival_cell(dst, messages_, msg), 1);
    }
  }

  /// Move every stored tick onto the finer grid 1/q, where q is a multiple
  /// of q(). Rational values are unchanged. Machine calls this when an
  /// off-grid timer rescales its run.
  void rescale(std::int64_t q);

  [[nodiscard]] std::uint64_t n() const noexcept { return n_; }
  [[nodiscard]] std::uint32_t messages() const noexcept { return messages_; }
  [[nodiscard]] std::int64_t q() const noexcept { return q_; }
  [[nodiscard]] TraceMode mode() const noexcept { return mode_; }
  [[nodiscard]] DeliveryView deliveries() const noexcept { return {records_, q_}; }

  /// Deliveries recorded, independent of mode (under kCounters the list
  /// itself is elided but the count is exact).
  [[nodiscard]] std::uint64_t delivery_count() const noexcept {
    return mode_ == TraceMode::kCounters
               ? counters_count_
               : static_cast<std::uint64_t>(records_.size());
  }

  /// Earliest arrival of message `msg` at processor `p` (nullopt if never).
  [[nodiscard]] std::optional<Rational> arrival(ProcId p, MsgId msg) const;

  /// Latest arrival over all deliveries. A trace with zero deliveries has
  /// makespan 0 by convention: broadcasting among n = 1 processors (the
  /// origin already holds everything) legitimately sends nothing and
  /// completes at t = 0. Downstream consumers share the convention -- the
  /// validator reports makespan 0 and the Chrome-trace exporter emits a
  /// valid metadata-only document (see obs/trace_export.hpp).
  [[nodiscard]] Rational makespan() const;

  /// True iff every processor other than `origin` received every message
  /// id in [0, messages).
  [[nodiscard]] bool covers_all(ProcId origin) const;

  /// Processors (excluding origin) missing at least one message.
  [[nodiscard]] std::vector<ProcId> uncovered(ProcId origin) const;

  /// True iff every processor receives messages in increasing id order
  /// (first arrivals compared; the paper's order-preservation property).
  [[nodiscard]] bool order_preserving() const;

  /// Human-readable order violations ("p3 got M2 before M1 ..."), empty if
  /// order_preserving().
  [[nodiscard]] std::vector<std::string> order_violations() const;

  // -- Replay interface (sim/par_machine.cpp, merge-replay v2) ------------
  //
  // ParMachine's barrier materializes each window's deliveries in parallel:
  // the sequential stamp-resolution pass assigns every delivery its global
  // slot, then each shard writes its own slots concurrently. Safe because
  // the slots are disjoint by construction and each first-arrival cell
  // (dst, msg) is only ever written by the shard owning `dst`
  // (docs/SIMULATION.md).

  /// kFull only: grow the delivery list by `count` empty slots; returns the
  /// index of the first new slot.
  std::size_t replay_extend(std::size_t count);

  /// kFull only: fill slot `index` (from replay_extend) with `d`, updating
  /// the (dst, msg) first-arrival cell.
  void replay_set(std::size_t index, const TickDelivery& d);

  /// kCounters only: update the (dst, msg) first-arrival cell for one
  /// delivery. Shard-parallel safe under the ownership rule above; the
  /// count/makespan half lives shard-local until counters_fold().
  void counters_note(ProcId dst, MsgId msg, Tick arrival) { note(dst, msg, arrival); }

  /// kCounters only: fold one shard's delivery count and latest arrival
  /// into the global counters (sequential, once per shard per run).
  void counters_fold(std::uint64_t count, Tick max_arrival);

 private:
  void note(ProcId dst, MsgId msg, Tick arrival) {
    Tick& cell = first_arrival_[arrival_cell(dst, messages_, msg)];
    if (arrival < cell) cell = arrival;
  }
  [[nodiscard]] Rational rat(Tick t) const { return Rational(t, q_); }

  std::uint64_t n_;
  std::uint32_t messages_;
  std::int64_t q_;
  TraceMode mode_;
  std::vector<TickDelivery> records_;
  // first_arrival_[arrival_cell(p, messages_, msg)]; kNeverArrived until
  // delivered.
  std::vector<Tick> first_arrival_;
  std::uint64_t counters_count_ = 0;  ///< kCounters: deliveries recorded
  Tick counters_makespan_ = 0;        ///< kCounters: latest arrival seen
};

}  // namespace postal
