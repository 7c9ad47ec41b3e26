#include "support/interval_set.hpp"

namespace postal {

auto IntervalSet::find_overlap(const Rational& lo, const Rational& hi) const
    -> std::optional<Interval> {
  POSTAL_REQUIRE(lo < hi, "IntervalSet: interval must be nonempty (lo < hi)");
  // Candidate 1: the first interval starting at or after lo; overlaps iff it
  // starts before hi.
  auto it = by_lo_.lower_bound(lo);
  if (it != by_lo_.end() && it->first < hi) {
    return Interval{it->first, it->second};
  }
  // Candidate 2: the last interval starting before lo; overlaps iff it ends
  // after lo.
  if (it != by_lo_.begin()) {
    --it;
    if (lo < it->second) {
      return Interval{it->first, it->second};
    }
  }
  return std::nullopt;
}

auto IntervalSet::insert(const Rational& lo, const Rational& hi)
    -> std::optional<Interval> {
  if (auto hit = find_overlap(lo, hi)) return hit;
  by_lo_.emplace(lo, hi);
  return std::nullopt;
}

bool IntervalSet::overlaps(const Rational& lo, const Rational& hi) const {
  return find_overlap(lo, hi).has_value();
}

Rational IntervalSet::total_length() const {
  Rational sum;
  for (const auto& [lo, hi] : by_lo_) sum += hi - lo;
  return sum;
}

Rational IntervalSet::earliest_fit(const Rational& from, const Rational& len) const {
  POSTAL_REQUIRE(Rational() < len, "IntervalSet::earliest_fit: length must be positive");
  Rational start = from;
  // Walk intervals in order; each conflict pushes the start to the end of
  // the conflicting interval. Intervals are disjoint and sorted, so one
  // forward pass suffices.
  for (const auto& [lo, hi] : by_lo_) {
    if (hi <= start) continue;       // entirely before the candidate slot
    if (start + len <= lo) break;    // candidate slot fits before this one
    start = hi;                      // push past the conflicting interval
  }
  return start;
}

}  // namespace postal
