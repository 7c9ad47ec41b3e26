// Tests for the fully heterogeneous latency extension: matrix builders,
// the per-pair simulator, and the earliest-arrival greedy planner.
#include "adaptive/hetero.hpp"

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/genfib.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace postal {
namespace {

TEST(HeteroLatency, ValidatesMatrix) {
  EXPECT_NO_THROW(HeteroLatency::uniform(4, Rational(2)));
  // off-diagonal < 1 rejected
  std::vector<Rational> bad(4, Rational(1));
  bad[1] = Rational(1, 2);
  EXPECT_THROW(HeteroLatency(2, bad), InvalidArgument);
  // wrong size rejected
  EXPECT_THROW(HeteroLatency(3, std::vector<Rational>(4, Rational(1))),
               InvalidArgument);
}

TEST(HeteroLatency, TwoLevelBuilder) {
  const HeteroLatency lat = HeteroLatency::two_level(8, 4, Rational(1), Rational(5));
  EXPECT_EQ(lat.lambda(0, 3), Rational(1));
  EXPECT_EQ(lat.lambda(0, 4), Rational(5));
  EXPECT_EQ(lat.lambda(7, 4), Rational(1));
  EXPECT_EQ(lat.max_lambda(), Rational(5));
}

TEST(HeteroLatency, RandomIsSymmetricBoundedDeterministic) {
  const HeteroLatency a = HeteroLatency::random(10, Rational(1), Rational(4), 7);
  const HeteroLatency b = HeteroLatency::random(10, Rational(1), Rational(4), 7);
  for (ProcId x = 0; x < 10; ++x) {
    for (ProcId y = 0; y < 10; ++y) {
      if (x == y) continue;
      EXPECT_EQ(a.lambda(x, y), a.lambda(y, x));
      EXPECT_EQ(a.lambda(x, y), b.lambda(x, y));
      EXPECT_GE(a.lambda(x, y), Rational(1));
      EXPECT_LE(a.lambda(x, y), Rational(4));
    }
  }
}

TEST(HeteroLatency, SelfLatencyRejected) {
  const HeteroLatency lat = HeteroLatency::uniform(4, Rational(2));
  POSTAL_EXPECT_THROW(lat.lambda(1, 1), InvalidArgument);
}

TEST(HeteroSim, RejectsUninformedSender) {
  const HeteroLatency lat = HeteroLatency::uniform(3, Rational(2));
  Schedule s;
  s.add(1, 2, 0, Rational(0));
  s.add(0, 1, 0, Rational(0));
  const HeteroSimReport report = simulate_hetero(s, lat);
  EXPECT_FALSE(report.ok);
}

TEST(HeteroGreedy, UniformMatrixRecoversOptimalTime) {
  // On a uniform matrix the greedy planner must hit f_lambda(n) exactly
  // (it reproduces the "everyone sends every unit" frontier).
  for (const Rational lambda : {Rational(1), Rational(5, 2), Rational(4)}) {
    GenFib fib(lambda);
    for (std::uint64_t n : {2ULL, 14ULL, 40ULL}) {
      const HeteroLatency lat = HeteroLatency::uniform(n, lambda);
      const Schedule s = hetero_greedy_broadcast(lat);
      const HeteroSimReport report = simulate_hetero(s, lat);
      ASSERT_TRUE(report.ok) << (report.violations.empty() ? "" : report.violations[0]);
      EXPECT_EQ(report.completion, fib.f(n))
          << "n=" << n << " lambda=" << lambda.str();
    }
  }
}

TEST(HeteroGreedy, BeatsConservativeOnTwoLevel) {
  const HeteroLatency lat = HeteroLatency::two_level(32, 8, Rational(1), Rational(8));
  const HeteroSimReport greedy = simulate_hetero(hetero_greedy_broadcast(lat), lat);
  const HeteroSimReport conservative =
      simulate_hetero(hetero_conservative_broadcast(lat), lat);
  ASSERT_TRUE(greedy.ok);
  ASSERT_TRUE(conservative.ok);
  EXPECT_LT(greedy.completion, conservative.completion);
}

TEST(HeteroGreedy, ValidOnRandomMatrices) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const HeteroLatency lat = HeteroLatency::random(24, Rational(1), Rational(6), seed);
    const Schedule s = hetero_greedy_broadcast(lat);
    const HeteroSimReport report = simulate_hetero(s, lat);
    ASSERT_TRUE(report.ok) << "seed=" << seed << ": "
                           << (report.violations.empty() ? "" : report.violations[0]);
    // Everyone informed exactly once.
    EXPECT_EQ(s.size(), 23u);
    // Never slower than the conservative uniform plan.
    const HeteroSimReport conservative =
        simulate_hetero(hetero_conservative_broadcast(lat), lat);
    ASSERT_TRUE(conservative.ok);
    EXPECT_LE(report.completion, conservative.completion) << "seed=" << seed;
  }
}

TEST(HeteroGreedy, SingleProcessorDegenerate) {
  const HeteroLatency lat = HeteroLatency::uniform(1, Rational(2));
  EXPECT_TRUE(hetero_greedy_broadcast(lat).empty());
}

TEST(HeteroGreedy, NeverBelowUniformLowerBoundOfMinLatency) {
  // Sanity: completion can't beat f_{lambda_min}(n) (relaxing every edge
  // to the cheapest latency only helps).
  const HeteroLatency lat = HeteroLatency::random(20, Rational(2), Rational(5), 3);
  const HeteroSimReport report = simulate_hetero(hetero_greedy_broadcast(lat), lat);
  ASSERT_TRUE(report.ok);
  GenFib fib(Rational(2));
  EXPECT_GE(report.completion, fib.f(20));
}

/// The planner's Rational loop before it moved onto ticks, kept as the
/// reference its tick scan must reproduce byte for byte.
Schedule rational_greedy_reference(const HeteroLatency& lat) {
  const std::uint64_t n = lat.n();
  Schedule schedule;
  if (n == 1) return schedule;
  std::vector<std::optional<Rational>> free_at(n);
  free_at[0] = Rational(0);
  std::vector<bool> informed(n, false);
  informed[0] = true;
  for (std::uint64_t remaining = n - 1; remaining > 0; --remaining) {
    std::optional<Rational> best_arrival;
    ProcId best_s = 0;
    ProcId best_q = 0;
    for (ProcId s = 0; s < n; ++s) {
      if (!free_at[s].has_value()) continue;
      for (ProcId q = 0; q < n; ++q) {
        if (informed[q]) continue;
        const Rational arrival = *free_at[s] + lat.lambda(s, q);
        if (!best_arrival.has_value() || arrival < *best_arrival) {
          best_arrival = arrival;
          best_s = s;
          best_q = q;
        }
      }
    }
    schedule.add(best_s, best_q, 0, *free_at[best_s]);
    free_at[best_s] = *free_at[best_s] + Rational(1);
    free_at[best_q] = *best_arrival;
    informed[best_q] = true;
  }
  schedule.sort();
  return schedule;
}

/// Seeded matrices over mixed grids: quarter-step random, two-level with
/// thirds and fifths, and explicit entries with denominators 1, 2, 3, 5, 7
/// (ties among equal arrivals included).
HeteroLatency seeded_matrix(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const auto draw = [&rng](std::uint64_t hi) {
    return static_cast<std::int64_t>(rng.uniform(0, hi));
  };
  const std::uint64_t n = rng.uniform(2, 28);
  switch (seed % 3) {
    case 0: {
      const Rational lo = Rational(1) + Rational(draw(6), 3);
      return HeteroLatency::random(n, lo, lo + Rational(draw(4)), seed);
    }
    case 1:
      return HeteroLatency::two_level(n, rng.uniform(1, n),
                                      Rational(1) + Rational(draw(5), 3),
                                      Rational(2) + Rational(draw(9), 5));
    default: {
      constexpr std::int64_t kDens[] = {1, 2, 3, 5, 7};
      std::vector<Rational> matrix(n * n, Rational(1));
      for (Rational& l : matrix) {
        const std::int64_t den = kDens[rng.uniform(0, 4)];
        l = Rational(den + draw(3 * static_cast<std::uint64_t>(den)), den);
      }
      return HeteroLatency(n, std::move(matrix));
    }
  }
}

TEST(HeteroGreedy, TickScanMatchesTheRationalLoop) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const HeteroLatency lat = seeded_matrix(seed);
    const Schedule ticks = hetero_greedy_broadcast(lat);
    const Schedule reference = rational_greedy_reference(lat);
    EXPECT_EQ(ticks.records(), reference.records()) << "seed " << seed;
    EXPECT_EQ(ticks.q(), reference.q()) << "seed " << seed;
  }
}

TEST(HeteroGreedy, UnrepresentableGridNamesThePlanner) {
  // Latencies on the grids 1/(2^31 - 1) and 1/2^33 share no int64 grid.
  std::vector<Rational> matrix(9, Rational(1) + Rational(1, std::int64_t{1} << 33));
  matrix[1] = Rational(1) + Rational(1, std::numeric_limits<std::int32_t>::max());
  const HeteroLatency lat(3, std::move(matrix));
  try {
    (void)hetero_greedy_broadcast(lat);
    ADD_FAILURE() << "no OverflowError";
  } catch (const OverflowError& e) {
    EXPECT_NE(std::string(e.what()).find("hetero_greedy_broadcast:"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace postal
