// Randomized differential testing over every single-message algorithm
// family: for seeded random (n, lambda) pairs with exact rational lambda,
// four independent computations of the optimal broadcast time must agree
// bit-for-bit:
//
//   f_lambda(n)                 the paper's closed form (model/genfib),
//   optimal_broadcast_dp        the exhaustive split recursion (src/brute),
//   optimal_broadcast_greedy    frontier expansion (src/brute),
//   validator makespan          of the generated BCAST schedule (src/sim).
//
// Theorem 6 says all four coincide; the implementations share no code
// beyond Rational, so agreement on hundreds of random points is strong
// evidence against a bug hiding in any one family. The par-layer caches
// (par/genfib_cache, par/schedule_cache) are differentially tested against
// the fresh objects on the same pairs: a cache is only correct if it is
// invisible.
//
// scripts/check.sh --sanitize re-runs this binary under TSan and under
// ASan+UBSan (docs/PARALLELISM.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "brute/optimal_search.hpp"
#include "model/genfib.hpp"
#include "par/genfib_cache.hpp"
#include "par/schedule_cache.hpp"
#include "par/sweep.hpp"
#include "sched/bcast.hpp"
#include "sim/validator.hpp"
#include "support/prng.hpp"

namespace postal {
namespace {

struct RandomPair {
  std::uint64_t n;
  Rational lambda;
};

// ~200 reproducible (n, lambda) pairs: n in [1, 256], lambda = p/q with
// q in [1, 4] and 1 <= lambda <= 8. Exact rationals with small
// denominators keep the DP exact and exercise the non-integer breakpoints
// of F_lambda.
std::vector<RandomPair> random_pairs(std::uint64_t seed, std::size_t count) {
  Xoshiro256 rng(seed);
  std::vector<RandomPair> pairs;
  pairs.reserve(count);
  while (pairs.size() < count) {
    const std::uint64_t n = rng.uniform(1, 256);
    const std::uint64_t q = rng.uniform(1, 4);
    const std::uint64_t p = rng.uniform(q, 8 * q);  // lambda = p/q in [1, 8]
    pairs.push_back({n, Rational(static_cast<std::int64_t>(p),
                                 static_cast<std::int64_t>(q))});
  }
  return pairs;
}

TEST(DifferentialTest, FourWayAgreementOnRandomPairs) {
  const std::vector<RandomPair> pairs = random_pairs(0xD1FFu, 200);
  for (const RandomPair& pair : pairs) {
    GenFib fib(pair.lambda);
    const Rational f = fib.f(pair.n);
    const Rational dp = optimal_broadcast_dp(pair.n, pair.lambda);
    const Rational greedy = optimal_broadcast_greedy(pair.n, pair.lambda);
    EXPECT_EQ(f, dp) << "n=" << pair.n << " lambda=" << pair.lambda;
    EXPECT_EQ(f, greedy) << "n=" << pair.n << " lambda=" << pair.lambda;

    const PostalParams params(pair.n, pair.lambda);
    const SimReport report = validate_schedule(bcast_schedule(params, fib), params);
    EXPECT_TRUE(report.ok) << "n=" << pair.n << " lambda=" << pair.lambda << "\n"
                           << report.summary();
    if (pair.n > 1) {
      EXPECT_EQ(report.makespan, f)
          << "n=" << pair.n << " lambda=" << pair.lambda;
    }
  }
}

TEST(DifferentialTest, GenFibCacheIsInvisible) {
  par::GenFibCache cache;
  const std::vector<RandomPair> pairs = random_pairs(0xCAC4Eu, 200);
  for (const RandomPair& pair : pairs) {
    GenFib fresh(pair.lambda);
    EXPECT_EQ(cache.f(pair.lambda, pair.n), fresh.f(pair.n))
        << "n=" << pair.n << " lambda=" << pair.lambda;
    // The frozen F table agrees with a fresh GenFib wherever both are
    // evaluated, and reaches n.
    const std::shared_ptr<const par::GenFibCache::FTable> table =
        cache.F_table(pair.lambda, pair.n);
    const std::vector<std::uint64_t>& values = fresh.grid_values();
    EXPECT_GE(table->back(), pair.n);
    EXPECT_TRUE(std::equal(values.begin(),
                           values.begin() + static_cast<std::ptrdiff_t>(
                                                std::min(values.size(), table->size())),
                           table->begin()))
        << "n=" << pair.n << " lambda=" << pair.lambda;
  }
  // Re-querying the same pairs must hit the memo and still agree.
  const par::GenFibCache::Stats before = cache.stats();
  for (const RandomPair& pair : pairs) {
    GenFib fresh(pair.lambda);
    EXPECT_EQ(cache.f(pair.lambda, pair.n), fresh.f(pair.n));
  }
  const par::GenFibCache::Stats after = cache.stats();
  EXPECT_EQ(after.f_misses, before.f_misses);  // second pass: all hits
  EXPECT_EQ(after.f_hits, before.f_hits + pairs.size());
}

TEST(DifferentialTest, ScheduleCacheIsInvisible) {
  par::ScheduleCache cache;
  const std::vector<RandomPair> pairs = random_pairs(0x5C4EDu, 60);
  for (const RandomPair& pair : pairs) {
    const PostalParams params(pair.n, pair.lambda);
    const std::shared_ptr<const Schedule> cached = cache.bcast(params);
    const Schedule fresh = bcast_schedule(params);
    ASSERT_NE(cached, nullptr);
    EXPECT_EQ(cached->events(), fresh.events())
        << "n=" << pair.n << " lambda=" << pair.lambda;
    // The second request must hand back the very same immutable object.
    EXPECT_EQ(cache.bcast(params).get(), cached.get());
  }
}

TEST(DifferentialTest, SweepEngineMatchesPointwiseComputation) {
  const std::vector<std::uint64_t> ns = {1, 2, 7, 33, 100};
  const std::vector<Rational> lambdas = {Rational(1), Rational(7, 3),
                                         Rational(11, 2)};
  par::GenFibCache genfib_cache;
  par::ScheduleCache schedule_cache;
  par::SweepOptions options;
  options.threads = 1;
  options.genfib_cache = &genfib_cache;
  options.schedule_cache = &schedule_cache;
  const std::vector<par::SweepPointResult> results =
      par::sweep_grid(ns, lambdas, options);
  ASSERT_EQ(results.size(), ns.size() * lambdas.size());
  for (std::size_t li = 0; li < lambdas.size(); ++li) {
    GenFib fib(lambdas[li]);
    for (std::size_t ni = 0; ni < ns.size(); ++ni) {
      const par::SweepPointResult& r = results[li * ns.size() + ni];
      EXPECT_EQ(r.n, ns[ni]);
      EXPECT_EQ(r.lambda, lambdas[li]);
      EXPECT_TRUE(r.ok) << "n=" << r.n << " lambda=" << r.lambda;
      EXPECT_EQ(r.f, fib.f(ns[ni]));
      EXPECT_EQ(r.dp, optimal_broadcast_dp(ns[ni], lambdas[li]));
      EXPECT_EQ(r.greedy, optimal_broadcast_greedy(ns[ni], lambdas[li]));
    }
  }
}

}  // namespace
}  // namespace postal
