// Fully heterogeneous latencies -- the general form of the paper's
// Section 5 direction "hierarchies of latency parameters that may be used
// to model subsystems within a larger system".
//
// The postal model keeps unit send/receive occupancy, but the latency is
// now an arbitrary matrix lambda(p, q) >= 1. This module provides:
//   * HeteroLatency      -- the matrix, with builders (uniform, two-level,
//                           random-clustered);
//   * simulate_hetero    -- exact single-message broadcast validation under
//                           the matrix (ports, causality, coverage);
//   * hetero_greedy_broadcast -- an earliest-arrival greedy planner: at
//                           every step the free sender/uninformed target
//                           pair with the earliest possible arrival sends
//                           next. Reduces to BCAST-quality schedules when
//                           the matrix is uniform (tested), and exploits
//                           cheap edges when it is not.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/model_check.hpp"
#include "sched/schedule.hpp"
#include "support/rational.hpp"

namespace postal {

/// A symmetric-or-not latency matrix over n processors.
class HeteroLatency {
 public:
  /// From an explicit row-major matrix. Diagonal entries are ignored;
  /// off-diagonal entries must be >= 1.
  HeteroLatency(std::uint64_t n, std::vector<Rational> matrix);

  /// Uniform lambda everywhere (the plain postal model).
  [[nodiscard]] static HeteroLatency uniform(std::uint64_t n, const Rational& lambda);

  /// Two-level: lambda_intra within clusters of size c, lambda_inter across.
  [[nodiscard]] static HeteroLatency two_level(std::uint64_t n, std::uint64_t cluster,
                                               const Rational& intra,
                                               const Rational& inter);

  /// Random per-pair latency in {lo, lo + 1/4, ..., hi}, symmetric,
  /// deterministic in `seed`.
  [[nodiscard]] static HeteroLatency random(std::uint64_t n, const Rational& lo,
                                            const Rational& hi, std::uint64_t seed);

  [[nodiscard]] std::uint64_t n() const noexcept { return n_; }
  [[nodiscard]] const Rational& lambda(ProcId a, ProcId b) const;
  /// The n x n row-major matrix; its diagonal is unused.
  [[nodiscard]] const std::vector<Rational>& matrix() const noexcept { return matrix_; }
  /// Largest off-diagonal entry (the conservative uniform bound).
  [[nodiscard]] Rational max_lambda() const;

 private:
  std::uint64_t n_;
  std::vector<Rational> matrix_;
};

/// Result of simulating a single-message broadcast under a matrix.
using HeteroSimReport = ModelReport;

/// Exact validation of a single-message broadcast schedule from p_0 under
/// per-pair latencies (arrival = t + lambda(src, dst)).
[[nodiscard]] HeteroSimReport simulate_hetero(const Schedule& schedule,
                                              const HeteroLatency& lat);

/// Earliest-arrival greedy broadcast planner. Returns a schedule that
/// simulate_hetero certifies; completion is its exact makespan. Scans in
/// int64 ticks of the matrix's common grid; a grid or time past int64
/// raises OverflowError naming hetero_greedy_broadcast.
[[nodiscard]] Schedule hetero_greedy_broadcast(const HeteroLatency& lat);

/// Baseline: plan a plain BCAST tree at the conservative max_lambda() and
/// run it under the true matrix (always valid; usually slower).
[[nodiscard]] Schedule hetero_conservative_broadcast(const HeteroLatency& lat);

}  // namespace postal
