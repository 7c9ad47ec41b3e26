// The k-ported postal model: every processor can drive k simultaneous
// sends (CM-5-style multi-port network interfaces), still with one receive
// port. A model extension in the spirit of the paper's Section 5 ("it
// would be interesting to relax this assumption"), and the direction the
// authors themselves pursued in later work.
//
// The single-port generalized Fibonacci function becomes
//
//   F_{lambda,k}(t) = 1                                   for 0 <= t < lambda
//   F_{lambda,k}(t) = F_{lambda,k}(t-1) + k*F_{lambda,k}(t-lambda)  otherwise
//
// (an informed processor seeds k new subtrees every unit of time), and the
// optimal broadcast time is its index function f_{lambda,k}(n) -- achieved
// by the natural generalization of Algorithm BCAST (the holder keeps
// F(f-1) processors and hands each of its k simultaneous recipients at
// most F(f-lambda)), and unbeatable by the same counting argument as
// Lemma 5. k = 1 reduces to the paper's model exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "model/params.hpp"
#include "sched/model_check.hpp"
#include "sched/schedule.hpp"
#include "support/rational.hpp"
#include "support/saturating.hpp"

namespace postal {

/// Exact evaluator for F_{lambda,k} and its index function.
class GenFibK {
 public:
  /// Throws InvalidArgument unless lambda >= 1 and k >= 1.
  GenFibK(Rational lambda, std::uint64_t k);

  [[nodiscard]] const Rational& lambda() const noexcept { return lambda_; }
  [[nodiscard]] std::uint64_t k() const noexcept { return k_; }

  /// F_{lambda,k}(t), saturating.
  [[nodiscard]] std::uint64_t F(const Rational& t);
  /// f_{lambda,k}(n) = min{ t : F(t) >= n }.
  [[nodiscard]] Rational f(std::uint64_t n);

 private:
  Rational lambda_;
  std::uint64_t k_;
  std::int64_t p_;
  std::int64_t q_;
  std::vector<std::uint64_t> memo_;
};

/// The optimal k-ported broadcast schedule from p_0 (generalized BCAST).
/// With k > 1 the schedule contains up to k simultaneous sends per
/// processor -- use validate_kported, not the single-port validator.
[[nodiscard]] Schedule kported_bcast_schedule(const PostalParams& params,
                                              std::uint64_t k);

/// Exact completion: f_{lambda,k}(n) (0 for n == 1).
[[nodiscard]] Rational predict_kported_bcast(const PostalParams& params,
                                             std::uint64_t k);

/// Independent optimum via greedy frontier expansion (never evaluates F).
[[nodiscard]] Rational kported_optimal_greedy(const PostalParams& params,
                                              std::uint64_t k);

/// Result of validating a k-ported broadcast schedule.
using KPortedReport = ModelReport;

/// Validate a single-message broadcast schedule from p_0 under the
/// k-ported rules: at most k overlapping send windows [t, t+1) per
/// processor, exclusive receive windows, causality, and coverage.
[[nodiscard]] KPortedReport validate_kported(const Schedule& schedule,
                                             const PostalParams& params,
                                             std::uint64_t k);

}  // namespace postal
