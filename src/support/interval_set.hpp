// Disjoint half-open interval tracking over rational time.
//
// The model-variant validators (k-ported, LogP, reduce, heterogeneous and
// two-level latency) use one interval set per processor port: a send
// occupies the sender's output port for [t, t+1) and the receiver's input
// port for [t+lambda-1, t+lambda). The model's "simultaneous I/O" rule says
// intervals on the *same* port must be disjoint; inserting an overlapping
// interval is the violation those validators report. (validate_schedule
// visits events in time order and keeps only each port's last window; see
// sim/validator.cpp.)
//
// Intervals are half-open [lo, hi): a send finishing at time x and another
// starting at exactly x do not conflict, matching the paper's timing (e.g.
// a processor starts forwarding a message at the same instant its receive
// completes).
#pragma once

#include <map>
#include <optional>

#include "support/rational.hpp"

namespace postal {

/// A set of pairwise-disjoint half-open intervals [lo, hi).
class IntervalSet {
 public:
  /// One half-open busy interval.
  struct Interval {
    Rational lo;
    Rational hi;
    friend bool operator==(const Interval&, const Interval&) = default;
  };

  /// Try to insert [lo, hi). Returns std::nullopt on success, or the first
  /// existing interval that overlaps on failure (the set is unchanged).
  /// Requires lo < hi.
  std::optional<Interval> insert(const Rational& lo, const Rational& hi);

  /// True iff [lo, hi) overlaps some stored interval. Requires lo < hi.
  [[nodiscard]] bool overlaps(const Rational& lo, const Rational& hi) const;

  /// Number of stored intervals.
  [[nodiscard]] std::size_t size() const noexcept { return by_lo_.size(); }

  [[nodiscard]] bool empty() const noexcept { return by_lo_.empty(); }

  /// Total measure (sum of interval lengths); useful for port-utilization
  /// statistics in the benches.
  [[nodiscard]] Rational total_length() const;

  /// Earliest time >= from at which an interval of length len fits without
  /// overlap. Runs in O(#intervals) worst case.
  [[nodiscard]] Rational earliest_fit(const Rational& from, const Rational& len) const;

 private:
  [[nodiscard]] std::optional<Interval> find_overlap(const Rational& lo,
                                                     const Rational& hi) const;

  std::map<Rational, Rational> by_lo_;  // lo -> hi
};

}  // namespace postal
