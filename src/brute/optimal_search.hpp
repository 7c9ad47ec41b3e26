// Independent computations of the optimal single-message broadcast time,
// used by the property tests to confirm Theorem 6 without trusting the
// generalized-Fibonacci machinery.
//
// Two routes, neither of which evaluates F_lambda:
//
//  * optimal_broadcast_dp: the split recursion
//        T(1) = 0,
//        T(k) = min_{1 <= j <= k-1} max(1 + T(j), lambda + T(k-j)),
//    which scans *every* possible first-split size instead of the paper's
//    closed-form choice j = F_lambda(f_lambda(k)-1).
//
//  * optimal_broadcast_greedy: frontier expansion with a priority queue --
//    every informed processor sends to a new processor every unit of time,
//    and the n earliest inform times are taken. (Idling or re-informing a
//    processor can only delay completion, so this greedy is optimal; it is
//    the constructive reading of the paper's Lemma 5 argument.)
//
// Theorem 6 says both equal f_lambda(n) exactly.
//
// Both routes run on int64 ticks: with lambda = p/q every T(k) is a
// multiple of 1/q. When n * lambda leaves no int64 headroom on that grid
// they raise OverflowError.
#pragma once

#include <cstdint>
#include <vector>

#include "support/rational.hpp"

namespace postal {

/// Optimal broadcast time via the exhaustive split recursion. O(n^2) time,
/// O(n) memo; intended for n up to a few thousand.
[[nodiscard]] Rational optimal_broadcast_dp(std::uint64_t n, const Rational& lambda);

/// The whole DP table at once: entry k (1 <= k <= n_max) is
/// optimal_broadcast_dp(k, lambda), from one O(n_max^2) pass. Grid sweeps
/// that probe many n at a fixed lambda (par/sweep.hpp, the benches) share
/// this table instead of paying O(n^2) per point; the values are identical
/// by construction because the recursion's prefix does not depend on n_max.
/// Entry 0 is 0 (unused).
[[nodiscard]] std::vector<Rational> optimal_broadcast_dp_table(
    std::uint64_t n_max, const Rational& lambda);

/// Optimal broadcast time via greedy frontier expansion. O(n log n).
[[nodiscard]] Rational optimal_broadcast_greedy(std::uint64_t n, const Rational& lambda);

}  // namespace postal
