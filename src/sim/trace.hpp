// Delivery traces and the analyses shared by the schedule validator and the
// event-driven machine: coverage (who got what), order preservation, and
// makespan.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "model/params.hpp"
#include "support/rational.hpp"

namespace postal {

/// One completed message delivery.
struct Delivery {
  ProcId src = 0;
  ProcId dst = 0;
  MsgId msg = 0;
  Rational send_start;  ///< sender started transmitting at this time
  Rational arrival;     ///< receiver finished receiving (send_start + lambda)

  friend bool operator==(const Delivery&, const Delivery&) = default;
};

/// How much of a run's delivery history a Trace retains
/// (docs/SIMULATION.md, "trace elision").
enum class TraceMode : std::uint8_t {
  /// Materialize every Delivery in pop order (the default). The full list
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
  Trace(std::uint64_t n, std::uint32_t messages, TraceMode mode = TraceMode::kFull);

  /// Record one delivery (under kCounters: counters/first-arrival only).
  void record(const Delivery& d);

  /// kFull: make room for `deliveries` records (a capacity hint; no-op
  /// under kCounters).
  void reserve(std::size_t deliveries);

  [[nodiscard]] std::uint64_t n() const noexcept { return n_; }
  [[nodiscard]] std::uint32_t messages() const noexcept { return messages_; }
  [[nodiscard]] TraceMode mode() const noexcept { return mode_; }
  [[nodiscard]] const std::vector<Delivery>& deliveries() const noexcept {
    return deliveries_;
  }

  /// Deliveries recorded, independent of mode (under kCounters the list
  /// itself is elided but the count is exact).
  [[nodiscard]] std::uint64_t delivery_count() const noexcept {
    return mode_ == TraceMode::kCounters
               ? counters_count_
               : static_cast<std::uint64_t>(deliveries_.size());
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
  void replay_set(std::size_t index, const Delivery& d);

  /// kCounters only: update the (dst, msg) first-arrival cell for one
  /// delivery. Shard-parallel safe under the ownership rule above; the
  /// count/makespan half lives shard-local until counters_fold().
  void counters_note(ProcId dst, MsgId msg, const Rational& arrival);

  /// kCounters only: fold one shard's delivery count and latest arrival
  /// into the global counters (sequential, once per shard per run).
  void counters_fold(std::uint64_t count, const Rational& max_arrival);

 private:
  std::uint64_t n_;
  std::uint32_t messages_;
  TraceMode mode_;
  std::vector<Delivery> deliveries_;
  // first_arrival_[p * messages_ + msg]; nullopt until delivered.
  std::vector<std::optional<Rational>> first_arrival_;
  std::uint64_t counters_count_ = 0;  ///< kCounters: deliveries recorded
  Rational counters_makespan_{0};     ///< kCounters: latest arrival seen
};

}  // namespace postal
