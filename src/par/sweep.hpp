// The (n, lambda) grid sweep engine -- Theorem 6 cross-checked at every
// point, fanned across cores.
//
// Every grid point is an independent pure computation (the same
// embarrassingly-parallel shape the multihop-broadcast literature exploits
// for graph sweeps), so the engine parallelizes over *lambda groups*: one
// task per lambda builds the exhaustive-DP table T[1..max(n)] once (a
// single O(max_n^2) pass replaces one O(n^2) recomputation per point --
// the dominant cost of the historical sequential sweeps) and then walks its
// n column reading optima off the table, evaluating f_lambda(n) through the
// GenFibCache, rebuilding nothing the ScheduleCache already holds, and
// validating the BCAST schedule in the simulator.
//
// Determinism contract: results are written at grid-order indices
// (lambda-major: result[li * ns.size() + ni] is (lambdas[li], ns[ni])), so
// every field except the wall-time measurements is identical for any thread
// count, and threads == 1 executes the exact sequential code path
// (par/thread_pool.hpp). See docs/PARALLELISM.md.
#pragma once

#include <cstdint>
#include <vector>

#include "par/genfib_cache.hpp"
#include "par/schedule_cache.hpp"
#include "par/thread_pool.hpp"
#include "support/rational.hpp"
#include "support/rational.hpp"

namespace postal::par {

/// Everything the Theorem-6 cross-check knows about one grid point.
struct SweepPointResult {
  std::uint64_t n = 0;
  Rational lambda{1};
  Rational f;         ///< f_lambda(n), the paper's closed form (GenFibCache)
  Rational dp;        ///< exhaustive split-recursion optimum (DP table)
  Rational greedy;    ///< greedy frontier-expansion optimum
  Rational makespan;  ///< validator makespan of the (cached) BCAST schedule
  std::uint64_t sends = 0;  ///< events in the BCAST schedule
  bool ok = false;    ///< schedule valid and all four quantities equal
  /// Wall time of this point's own work (greedy + schedule + validation +
  /// f lookup). Excluded from the determinism contract.
  double wall_ms = 0.0;
  /// Wall time of the lambda group's shared DP-table build (the same value
  /// is reported on every point of the group). Excluded likewise.
  double dp_table_ms = 0.0;
};

/// Sweep knobs. Defaults reproduce the full cross-check on all cores using
/// the process-wide caches.
struct SweepOptions {
  unsigned threads = default_threads();  ///< 1 = exact sequential path
  bool with_dp = true;  ///< include the O(n^2) exhaustive-DP cross-check
  GenFibCache* genfib_cache = nullptr;      ///< nullptr = GenFibCache::global()
  ScheduleCache* schedule_cache = nullptr;  ///< nullptr = ScheduleCache::global()
};

/// Cross-check every point of the full lambda x n grid. Throws
/// InvalidArgument on an empty grid or any invalid (n, lambda).
[[nodiscard]] std::vector<SweepPointResult> sweep_grid(
    const std::vector<std::uint64_t>& ns, const std::vector<Rational>& lambdas,
    const SweepOptions& options = {});

/// True iff every field of every point except the wall-time measurements
/// matches -- the equality the thread-count invariance tests assert.
[[nodiscard]] bool sweep_results_equal_ignoring_wall(
    const std::vector<SweepPointResult>& a, const std::vector<SweepPointResult>& b);

}  // namespace postal::par
