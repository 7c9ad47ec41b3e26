// The generalized Fibonacci function F_lambda(t) and its index function
// f_lambda(n) -- Section 3 of the paper.
//
//   F_lambda(t) = 1                                  for 0 <= t < lambda
//   F_lambda(t) = F_lambda(t-1) + F_lambda(t-lambda) for t >= lambda
//
//   f_lambda(n) = min{ t : F_lambda(t) >= n }        (the index function)
//
// F_lambda is a right-continuous nondecreasing step function whose jumps,
// for rational lambda = p/q (reduced), all lie on the grid { k/q : k in N }.
// GenFib therefore memoizes F on that grid exactly, with saturating 64-bit
// arithmetic (F grows exponentially; only comparisons against n <= 2^63
// matter, see support/saturating.hpp).
//
// Special cases (useful anchors, checked in the tests):
//   lambda = 1:  F_1(t) = 2^floor(t),       f_1(n) = ceil(log2 n)
//   lambda = 2:  F_2(t) = Fib(floor(t)+1),  f_2 via classic Fibonacci
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/rational.hpp"
#include "support/saturating.hpp"

namespace postal {

/// The index function over a growing F_lambda grid table in O(1) expected
/// time: first(b) is the first index whose value reaches 2^b. A query m
/// with 2^b <= m < 2^(b+1) has its answer in [first(b), first(b+1)], so it
/// probes that bucket's own index range and nothing else -- never more
/// than a binary search over the whole table, even at lambda near 1 or
/// with a large denominator, where F grows slowly per grid step. At
/// lambda = 5/2 a bucket spans about four grid indices.
class FIndexBuckets {
 public:
  /// Record table[k] = value; k counts up from 0 and values never
  /// decrease. One compare per entry, so a growing memo keeps its buckets
  /// current as it goes.
  void note(std::size_t k, std::uint64_t value) noexcept {
    while (bits_ < kBits && value >= (std::uint64_t{1} << bits_)) first_[bits_++] = k;
  }

  /// The first k with table[k] >= m, for 1 <= m <= table[size - 1], where
  /// table[0, size) is what note() has seen.
  [[nodiscard]] std::size_t lower_bound(const std::uint64_t* table, std::size_t size,
                                        std::uint64_t m) const noexcept {
    // 2^b <= m <= table[size - 1], so bucket b has been noted.
    const auto b = static_cast<std::size_t>(63 - __builtin_clzll(m));
    const std::size_t lo = first_[b];
    // table[hi] >= m: the next bucket's first entry reaches 2^(b+1) > m.
    const std::size_t hi = b + 1 < bits_ ? first_[b + 1] : size - 1;
    // Branch-free binary search of [lo, hi]: the loop runs
    // ceil(log2(hi - lo + 1)) times whatever m is, and the compare becomes
    // a conditional move, so a query costs no mispredicted branch.
    const std::uint64_t* base = table + lo;
    for (std::size_t len = hi - lo + 1; len > 1;) {
      const std::size_t half = len / 2;
      base = base[half - 1] < m ? base + half : base;
      len -= half;
    }
    return static_cast<std::size_t>(base - table);
  }

 private:
  static constexpr std::size_t kBits = 64;
  std::array<std::size_t, kBits> first_{};  ///< valid below bits_
  std::size_t bits_ = 0;                    ///< buckets reached so far
};

/// Exact evaluator for F_lambda and f_lambda at a fixed rational lambda >= 1.
///
/// Thread-compatible (not thread-safe): evaluation extends an internal memo
/// table. Construct one instance per thread or guard externally.
class GenFib {
 public:
  /// Throws InvalidArgument unless lambda >= 1.
  explicit GenFib(Rational lambda);

  /// The latency parameter this instance evaluates at.
  [[nodiscard]] const Rational& lambda() const noexcept { return lambda_; }

  /// F_lambda(t) for t >= 0 (throws InvalidArgument for t < 0). Values are
  /// clamped to kSaturated once they exceed 64 bits.
  [[nodiscard]] std::uint64_t F(const Rational& t);

  /// f_lambda(n) = min{ t : F_lambda(t) >= n } for n >= 1. The result is
  /// always a grid point k/q. Throws InvalidArgument for n == 0 and
  /// OverflowError if n exceeds the saturation cap.
  [[nodiscard]] Rational f(std::uint64_t n);

  /// The grid index of f_lambda(n): the k with f_lambda(n) = k/q. This is
  /// the big-index entry point every BCAST split goes through: the memo is
  /// grown geometrically (F is exponential, so the table stays
  /// O(q * f_lambda(n)) even for n near 10^12) and the answer read from
  /// its FIndexBuckets instead of a front-to-back scan. The
  /// index is checked int64 by construction -- it indexes the memo vector
  /// -- and converts to exact Rational time as k/q, the same
  /// grid-tick-to-Rational discipline as support/ticks.
  [[nodiscard]] std::int64_t f_index(std::uint64_t n);

  /// The j used by Algorithm BCAST on a range of size n >= 2:
  /// j = F_lambda(f_lambda(n) - 1). Satisfies 1 <= j <= n-1 (Lemma 3).
  [[nodiscard]] std::uint64_t bcast_split(std::uint64_t n);

  /// All t in [0, t_max] where F_lambda jumps, in increasing order.
  /// Useful for plotting the step function in the benches.
  [[nodiscard]] std::vector<Rational> breakpoints(const Rational& t_max);

  /// Grid resolution: F_lambda is constant on [k/q, (k+1)/q).
  [[nodiscard]] std::int64_t grid_denominator() const noexcept { return q_; }

  /// Every grid value evaluated so far: grid_values()[k] = F_lambda(k/q).
  /// Nondecreasing; after f_index(n) its last value is >= n. The reference
  /// is invalidated by the next evaluation that extends the table.
  [[nodiscard]] const std::vector<std::uint64_t>& grid_values() const noexcept {
    return memo_;
  }

 private:
  /// F at grid index k (i.e. F_lambda(k/q)); extends the memo as needed.
  [[nodiscard]] std::uint64_t F_at_index(std::int64_t k);
  void extend_to(std::int64_t k);

  Rational lambda_;
  std::int64_t p_;  // lambda = p_/q_, reduced
  std::int64_t q_;
  std::vector<std::uint64_t> memo_;  // memo_[k] = F_lambda(k/q)
  FIndexBuckets buckets_;            // over memo_, kept current by extend_to
};

}  // namespace postal
