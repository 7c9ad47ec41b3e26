// Hierarchical latency -- the paper's Section 5 direction "investigate
// hierarchies of latency parameters that may be used to model subsystems
// within a larger system".
//
// Two-level postal model: n processors partitioned into clusters of size c
// (processor p belongs to cluster p / c). A send between processors in the
// same cluster experiences lambda_intra; across clusters, lambda_inter
// (lambda_inter >= lambda_intra >= 1).
//
// Algorithms:
//  * flat      -- a single generalized Fibonacci tree planned at the
//                 conservative lambda_inter (correct but ignores cheap
//                 intra-cluster wires);
//  * two-level -- BCAST over the cluster leaders at lambda_inter, then
//                 BCAST inside every cluster at lambda_intra.
//
// Completion is measured by an exact heterogeneous-latency simulator
// (validate/measure with per-pair lambda), so the bench can show where the
// hierarchy-aware plan wins.
#pragma once

#include <cstdint>

#include "sched/model_check.hpp"
#include "sched/schedule.hpp"
#include "support/rational.hpp"

namespace postal {

/// Parameters of the two-level system.
struct TwoLevelParams {
  std::uint64_t n = 0;            ///< total processors
  std::uint64_t cluster_size = 0; ///< c; the last cluster may be smaller
  Rational lambda_intra{1};
  Rational lambda_inter{1};

  void validate() const;

  /// Cluster index of processor p.
  [[nodiscard]] std::uint64_t cluster_of(ProcId p) const;
  /// Latency between two distinct processors.
  [[nodiscard]] const Rational& lambda(ProcId a, ProcId b) const;
  /// Number of clusters.
  [[nodiscard]] std::uint64_t clusters() const;
};

/// Flat plan: one BCAST tree planned at lambda_inter.
[[nodiscard]] Schedule hierarchical_flat_schedule(const TwoLevelParams& params);

/// Two-level plan: leaders first (lambda_inter), then clusters
/// (lambda_intra).
[[nodiscard]] Schedule hierarchical_two_level_schedule(const TwoLevelParams& params);

/// Result of simulating a schedule under per-pair latencies.
using HeteroReport = ModelReport;

/// Exact simulation/validation of any single-message broadcast schedule
/// under the two-level latency function: port exclusivity, causality, and
/// coverage, with lambda depending on the (src, dst) pair. Send times in
/// `schedule` are interpreted as-is; arrival = t + lambda(src, dst).
[[nodiscard]] HeteroReport simulate_two_level(const Schedule& schedule,
                                              const TwoLevelParams& params);

}  // namespace postal
