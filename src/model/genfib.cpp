#include "model/genfib.hpp"

#include <algorithm>

namespace postal {

GenFib::GenFib(Rational lambda) : lambda_(std::move(lambda)) {
  POSTAL_REQUIRE(lambda_ >= Rational(1), "GenFib: lambda must be >= 1");
  p_ = lambda_.num();
  q_ = lambda_.den();
  // F_lambda(t) = 1 on [0, lambda), i.e. grid indices 0 .. p-1.
  memo_.assign(static_cast<std::size_t>(p_), 1);
  buckets_.note(0, 1);
}

void GenFib::extend_to(std::int64_t k) {
  while (static_cast<std::int64_t>(memo_.size()) <= k) {
    const auto i = static_cast<std::int64_t>(memo_.size());
    // i >= p >= q, so both argument indices are in range.
    const std::uint64_t value =
        sat_add(memo_[static_cast<std::size_t>(i - q_)],
                memo_[static_cast<std::size_t>(i - p_)]);
    buckets_.note(memo_.size(), value);
    memo_.push_back(value);
  }
}

std::uint64_t GenFib::F_at_index(std::int64_t k) {
  POSTAL_CHECK(k >= 0);
  extend_to(k);
  return memo_[static_cast<std::size_t>(k)];
}

std::uint64_t GenFib::F(const Rational& t) {
  POSTAL_REQUIRE(t >= Rational(0), "GenFib::F: t must be >= 0");
  // F is constant on [k/q, (k+1)/q); floor(t*q) selects the grid cell.
  const Rational scaled = t * Rational(q_);
  return F_at_index(scaled.floor());
}

Rational GenFib::f(std::uint64_t n) { return Rational(f_index(n), q_); }

std::int64_t GenFib::f_index(std::uint64_t n) {
  POSTAL_REQUIRE(n >= 1, "GenFib::f: n must be >= 1");
  POSTAL_REQUIRE(n < kSaturated, "GenFib::f: n exceeds the saturation cap");
  // Grow the memo geometrically until it contains a value >= n; because F
  // is (weakly) exponential past index p, this stays O(q * f_lambda(n))
  // entries. Saturated entries compare correctly (kSaturated >= any n).
  while (memo_.back() < n) {
    extend_to(static_cast<std::int64_t>(memo_.size()) * 2 - 1);
  }
  // memo_ is nondecreasing, so the index function is a lower bound.
  return static_cast<std::int64_t>(buckets_.lower_bound(memo_.data(), memo_.size(), n));
}

std::uint64_t GenFib::bcast_split(std::uint64_t n) {
  POSTAL_REQUIRE(n >= 2, "GenFib::bcast_split: needs a range of size >= 2");
  // F_lambda(f_lambda(n) - 1) on the grid: one time unit is q indices.
  const std::int64_t idx = f_index(n) - q_;
  // f_lambda(n) >= lambda >= 1 for n >= 2, so idx >= 0 (proof of Lemma 3).
  POSTAL_CHECK(idx >= 0);
  return F_at_index(idx);
}

std::vector<Rational> GenFib::breakpoints(const Rational& t_max) {
  POSTAL_REQUIRE(t_max >= Rational(0), "GenFib::breakpoints: t_max must be >= 0");
  const std::int64_t k_max = (t_max * Rational(q_)).floor();
  extend_to(k_max);
  std::vector<Rational> out;
  for (std::int64_t k = 1; k <= k_max; ++k) {
    if (memo_[static_cast<std::size_t>(k)] != memo_[static_cast<std::size_t>(k - 1)]) {
      out.emplace_back(k, q_);
    }
  }
  return out;
}

}  // namespace postal
