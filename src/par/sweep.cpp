#include "par/sweep.hpp"

#include <algorithm>
#include <chrono>

#include "brute/optimal_search.hpp"
#include "sim/validator.hpp"
#include "support/error.hpp"

namespace postal::par {

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  const auto dt = std::chrono::steady_clock::now() - since;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()) /
         1e6;
}

}  // namespace

std::vector<SweepPointResult> sweep_grid(const std::vector<std::uint64_t>& ns,
                                         const std::vector<Rational>& lambdas,
                                         const SweepOptions& options) {
  POSTAL_REQUIRE(!ns.empty() && !lambdas.empty(), "sweep_grid: empty grid");
  GenFibCache& genfib =
      options.genfib_cache != nullptr ? *options.genfib_cache : GenFibCache::global();
  ScheduleCache& schedules = options.schedule_cache != nullptr
                                 ? *options.schedule_cache
                                 : ScheduleCache::global();
  const std::uint64_t n_max = *std::max_element(ns.begin(), ns.end());

  std::vector<SweepPointResult> out(ns.size() * lambdas.size());
  parallel_for(options.threads, lambdas.size(), [&](std::size_t li) {
    const Rational& lambda = lambdas[li];
    // One exhaustive-DP pass per lambda group: T[k] is the split-recursion
    // optimum for every k <= n_max, so each point below is a table read.
    std::vector<Rational> dp_table;
    double dp_table_ms = 0.0;
    if (options.with_dp) {
      const auto t0 = std::chrono::steady_clock::now();
      dp_table = optimal_broadcast_dp_table(n_max, lambda);
      dp_table_ms = elapsed_ms(t0);
    }
    for (std::size_t ni = 0; ni < ns.size(); ++ni) {
      const auto t0 = std::chrono::steady_clock::now();
      const std::uint64_t n = ns[ni];
      SweepPointResult r;
      r.n = n;
      r.lambda = lambda;
      r.f = genfib.f(lambda, n);
      r.greedy = optimal_broadcast_greedy(n, lambda);
      const PostalParams params(n, lambda);
      const std::shared_ptr<const Schedule> schedule = schedules.bcast(params);
      const SimReport report = validate_schedule(*schedule, params);
      r.makespan = report.makespan;
      r.sends = schedule->size();
      r.dp = options.with_dp ? dp_table[static_cast<std::size_t>(n)] : r.f;
      r.ok = report.ok && r.f == r.dp && r.f == r.greedy && r.f == r.makespan;
      r.dp_table_ms = dp_table_ms;
      r.wall_ms = elapsed_ms(t0);
      out[li * ns.size() + ni] = r;
    }
  });
  return out;
}

bool sweep_results_equal_ignoring_wall(const std::vector<SweepPointResult>& a,
                                       const std::vector<SweepPointResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const SweepPointResult& x = a[i];
    const SweepPointResult& y = b[i];
    if (x.n != y.n || x.lambda != y.lambda || x.f != y.f || x.dp != y.dp ||
        x.greedy != y.greedy || x.makespan != y.makespan || x.sends != y.sends ||
        x.ok != y.ok) {
      return false;
    }
  }
  return true;
}

}  // namespace postal::par
