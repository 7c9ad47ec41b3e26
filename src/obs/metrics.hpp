// The observability core: a lightweight, dependency-free metrics registry.
//
// The paper's algorithms are event-driven; their interesting run-time
// quantities (port occupancy, queue depth, wire utilization, wall-clock
// cost of planning/validation) are exactly what the simulators in src/sim
// and src/net compute but never used to surface. The registry gives them a
// place to land, in three exactness classes:
//
//   Counter         -- monotone uint64 (events processed, sends queued);
//   Gauge           -- int64 with a high-water mark (FIFO depth);
//   RationalAccum   -- exact postal::Rational sums (port busy *model time*,
//                      never floats: accumulated busy windows stay on the
//                      1/q grid and tests assert equality with ==);
//   Timer           -- wall-clock nanoseconds (the only real-time class;
//                      planning and validation cost, via ScopedTimer).
//
// Snapshots serialize to JSON lines (one metric per line, names sorted) so
// downstream tooling can diff runs without a parser more complex than
// "read a line, parse an object". See docs/OBSERVABILITY.md for the schema.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "support/rational.hpp"

namespace postal::obs {

/// A monotonically increasing event count.
class Counter {
 public:
  /// Increase by `by` (default 1).
  void add(std::uint64_t by = 1) noexcept { value_ += by; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// A level that moves up and down; remembers the highest level ever set.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_ = v;
    if (v > max_) max_ = v;
  }
  [[nodiscard]] std::int64_t value() const noexcept { return value_; }
  /// High-water mark over all set() calls (0 if never set above 0).
  [[nodiscard]] std::int64_t max() const noexcept { return max_; }

 private:
  std::int64_t value_ = 0;
  std::int64_t max_ = 0;
};

/// An exact accumulator of model-time quantities (postal::Rational).
class RationalAccum {
 public:
  void add(const Rational& dt) { total_ += dt; }
  [[nodiscard]] const Rational& total() const noexcept { return total_; }

 private:
  Rational total_;
};

/// A wall-clock duration accumulator (nanoseconds + sample count).
class Timer {
 public:
  void add_ns(std::uint64_t ns) noexcept {
    total_ns_ += ns;
    ++count_;
  }
  [[nodiscard]] std::uint64_t total_ns() const noexcept { return total_ns_; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// Total in milliseconds (lossy; reporting only).
  [[nodiscard]] double total_ms() const noexcept {
    return static_cast<double>(total_ns_) / 1e6;
  }

 private:
  std::uint64_t total_ns_ = 0;
  std::uint64_t count_ = 0;
};

/// Named metrics of one run. Metric objects are created on first access and
/// live as long as the registry; repeated access by the same name returns
/// the same object. A name may be used with only one metric kind (a second
/// kind under the same name throws InvalidArgument).
///
/// Per-processor quantities live in a *series*: one stem such as
/// "machine.port_busy.p" owns a dense array of RationalAccum, and element i
/// is the metric named <stem><i> (decimal, no leading zeros) -- rational(),
/// size() and to_jsonl() see it exactly as if it had been registered under
/// that name. A series costs one table entry however long it is, which is
/// what keeps a 10^6-processor snapshot cheap to build.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  RationalAccum& rational(const std::string& name);
  Timer& timer(const std::string& name);

  /// The rational series <stem>0 .. <stem><count-1>, created zeroed on
  /// first use. The stem must be nonempty and must not end in a digit (so
  /// every element name has exactly one stem). A series' length is fixed
  /// when it is created: asking again with another count, under a stem
  /// that names a scalar, or with an element name already taken by a
  /// scalar throws InvalidArgument. The stem itself is reserved: it is not
  /// a metric, and no scalar may take its name.
  std::span<RationalAccum> rational_series(const std::string& stem,
                                           std::size_t count);

  /// Number of metrics registered so far (all kinds; each series element
  /// counts once, the series stem not at all).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Serialize every metric as one JSON object per line, sorted by name:
  ///   {"metric":"machine.events","kind":"counter","value":27}
  ///   {"metric":"machine.port_busy.p0","kind":"rational","value":"15/2",
  ///    "value_float":7.5}
  ///   {"metric":"machine.fifo_depth","kind":"gauge","value":0,"max":3}
  ///   {"metric":"sim.validate","kind":"timer","ns":81250,"count":1,
  ///    "ms":0.08125}
  /// The trailing line has a newline too (the output is a complete JSONL
  /// document; empty registries serialize to the empty string).
  [[nodiscard]] std::string to_jsonl() const;

 private:
  using Series = std::vector<RationalAccum>;
  using Metric = std::variant<Counter, Gauge, RationalAccum, Timer, Series>;

  template <class T>
  T& scalar(const std::string& name);
  /// The series element `name` denotes, or nullptr if it names none.
  [[nodiscard]] RationalAccum* element(std::string_view name);

  // One name -> metric table. std::map keeps to_jsonl() a single ordered
  // walk and never moves a node on insert, so handed-out refs stay valid.
  std::map<std::string, Metric, std::less<>> metrics_;
  std::size_t size_ = 0;
};

/// RAII wall-clock probe: measures from construction to destruction on the
/// steady clock and adds the elapsed nanoseconds to `timer`. Intended for
/// timing schedule generation and validation:
///
///   { ScopedTimer t(reg.timer("sched.generate"));
///     schedule = bcast_schedule(params, fib); }
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer& timer) noexcept
      : timer_(timer), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    timer_.add_ns(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer& timer_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace postal::obs
