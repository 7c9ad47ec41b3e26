// Tests for reduction/combining: the time-reversed BCAST schedule, its
// optimality (f_lambda(n)), and the dedicated reduce validator including
// negative cases.
#include "collectives/reduce.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "model/genfib.hpp"
#include "pinned_render.hpp"
#include "sim/validator.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace postal {
namespace {

class ReduceSweep
    : public ::testing::TestWithParam<std::pair<std::uint64_t, Rational>> {};

TEST_P(ReduceSweep, ValidAndCompletesAtIndexFunction) {
  const auto& [n, lambda] = GetParam();
  const PostalParams params(n, lambda);
  const Schedule s = reduce_schedule(params);
  const ReduceReport report = validate_reduce(s, params);
  ASSERT_TRUE(report.ok) << (report.violations.empty() ? "" : report.violations[0]);
  GenFib fib(lambda);
  EXPECT_EQ(report.completion, fib.f(n));
  EXPECT_EQ(report.completion, predict_reduce(params));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ReduceSweep,
    ::testing::Values(std::pair<std::uint64_t, Rational>{2, Rational(2)},
                      std::pair<std::uint64_t, Rational>{14, Rational(5, 2)},
                      std::pair<std::uint64_t, Rational>{64, Rational(1)},
                      std::pair<std::uint64_t, Rational>{100, Rational(3)},
                      std::pair<std::uint64_t, Rational>{33, Rational(9, 4)},
                      std::pair<std::uint64_t, Rational>{7, Rational(10)}),
    [](const auto& pinfo) {
      return "n" + std::to_string(pinfo.param.first) + "_lam" +
             std::to_string(pinfo.param.second.num()) + "_" +
             std::to_string(pinfo.param.second.den());
    });

TEST(Reduce, SingleProcessorEmpty) {
  const PostalParams params(1, Rational(2));
  EXPECT_TRUE(reduce_schedule(params).empty());
  EXPECT_EQ(predict_reduce(params), Rational(0));
  const ReduceReport report = validate_reduce(Schedule(), params);
  EXPECT_TRUE(report.ok);
}

TEST(Reduce, EveryNonRootSendsExactlyOnce) {
  const PostalParams params(30, Rational(5, 2));
  const Schedule s = reduce_schedule(params);
  EXPECT_EQ(s.size(), params.n() - 1);
  const auto counts = s.sends_per_proc(params.n());
  EXPECT_EQ(counts[0], 0u);
  for (ProcId p = 1; p < params.n(); ++p) EXPECT_EQ(counts[p], 1u) << "p=" << p;
}

TEST(ReduceValidator, RejectsRootSending) {
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  s.add(1, 0, 1, Rational(2));
  const ReduceReport report = validate_reduce(s, PostalParams(2, Rational(2)));
  ASSERT_FALSE(report.ok);
}

TEST(ReduceValidator, RejectsDoubleSend) {
  Schedule s;
  s.add(1, 0, 1, Rational(0));
  s.add(1, 0, 1, Rational(1));
  const ReduceReport report = validate_reduce(s, PostalParams(2, Rational(2)));
  ASSERT_FALSE(report.ok);
}

TEST(ReduceValidator, RejectsMissingContribution) {
  Schedule s;
  s.add(1, 0, 1, Rational(0));
  const ReduceReport report = validate_reduce(s, PostalParams(3, Rational(2)));
  ASSERT_FALSE(report.ok);
}

TEST(ReduceValidator, RejectsLateContribution) {
  // p2's value arrives at p1 only after p1 already forwarded its partial.
  Schedule s;
  s.add(1, 0, 1, Rational(0));
  s.add(2, 1, 2, Rational(1));  // arrives at 3 > 0
  const ReduceReport report = validate_reduce(s, PostalParams(3, Rational(2)));
  ASSERT_FALSE(report.ok);
  bool found = false;
  for (const auto& v : report.violations) {
    found |= v.find("already sent") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(ReduceValidator, AcceptsChainWithExactTimings) {
  // p2 -> p1 at t=0 (arrives 2), p1 -> p0 at t=2 (arrives 4): valid chain.
  Schedule s;
  s.add(2, 1, 2, Rational(0));
  s.add(1, 0, 1, Rational(2));
  const ReduceReport report = validate_reduce(s, PostalParams(3, Rational(2)));
  ASSERT_TRUE(report.ok) << (report.violations.empty() ? "" : report.violations[0]);
  EXPECT_EQ(report.completion, Rational(4));
}

TEST(ReduceValidator, RejectsReceivePortOverload) {
  // Two partials arrive at the root with overlapping receive windows.
  Schedule s;
  s.add(1, 0, 1, Rational(0));
  s.add(2, 0, 2, Rational(1, 2));
  const ReduceReport report = validate_reduce(s, PostalParams(3, Rational(2)));
  ASSERT_FALSE(report.ok);
}

TEST(Reduce, ReductionMirrorsBroadcastTimes) {
  // Optimal combining takes exactly as long as optimal broadcasting, for
  // every n and lambda (the time-reversal symmetry the paper inherits
  // from [6]).
  for (const Rational lambda : {Rational(1), Rational(5, 2), Rational(4)}) {
    GenFib fib(lambda);
    for (std::uint64_t n = 2; n <= 128; n = n * 2 + 1) {
      const PostalParams params(n, lambda);
      const ReduceReport report = validate_reduce(reduce_schedule(params), params);
      ASSERT_TRUE(report.ok) << "n=" << n;
      EXPECT_EQ(report.completion, fib.f(n)) << "n=" << n;
    }
  }
}

// --- Violation strings on a seeded mutation corpus -------------------------
//
// Each case breaks a valid reduction schedule one way and renders every
// violation validate_reduce reports, in order. The corpus is pinned as one
// FNV-1a digest, and one case per mutation as its literal strings, so a
// rewrite of the validator must keep every message byte for byte.

enum class Mutation { kShift, kDuplicate, kRootSends, kMissing, kOutOfRange, kPortClash };

const char* mutation_name(Mutation m) {
  switch (m) {
    case Mutation::kShift: return "shifted send";
    case Mutation::kDuplicate: return "duplicate send";
    case Mutation::kRootSends: return "sending root";
    case Mutation::kMissing: return "missing contribution";
    case Mutation::kOutOfRange: return "out-of-range id";
    case Mutation::kPortClash: return "port clash";
  }
  return "?";
}

/// reduce_schedule(params) broken by `m` at an event drawn from `rng`.
Schedule mutated_reduce(const PostalParams& params, Mutation m, Xoshiro256& rng) {
  const std::vector<SendEvent> events = reduce_schedule(params).events();
  const std::size_t i = rng.uniform(0, events.size() - 1);
  const std::size_t j = rng.uniform(0, events.size() - 1);
  const auto n = static_cast<ProcId>(params.n());
  Schedule out;
  for (std::size_t k = 0; k < events.size(); ++k) {
    SendEvent e = events[k];
    if (m == Mutation::kPortClash && k == j && e.src != events[i].dst) {
      // Another sender aims at event i's receiver at event i's start.
      e.dst = events[i].dst;
      e.t = events[i].t;
    }
    if (k == i) {
      switch (m) {
        case Mutation::kShift: e.t = e.t + Rational(1, params.lambda().den()); break;
        case Mutation::kDuplicate: out.add(e); break;
        case Mutation::kRootSends: out.add(0, e.dst == 0 ? e.src : e.dst, 0, e.t); break;
        case Mutation::kMissing: continue;
        case Mutation::kOutOfRange: out.add(e.src, n, e.msg, e.t); break;
        case Mutation::kPortClash: break;
      }
    }
    out.add(e);
  }
  return out;
}

std::string render_violations(const ReduceReport& report) {
  std::string out;
  for (const std::string& v : report.violations) out += v + "\n";
  return out;
}

TEST(ReduceValidator, ViolationStringsArePinnedOnAMutationCorpus) {
  const Mutation mutations[] = {Mutation::kShift,   Mutation::kDuplicate,
                                Mutation::kRootSends, Mutation::kMissing,
                                Mutation::kOutOfRange, Mutation::kPortClash};
  std::ostringstream corpus;
  Xoshiro256 rng(0x4EDCEu);
  for (const auto& [n, lambda] :
       {std::pair<std::uint64_t, Rational>{14, Rational(5, 2)},
        std::pair<std::uint64_t, Rational>{40, Rational(1)},
        std::pair<std::uint64_t, Rational>{33, Rational(9, 4)},
        std::pair<std::uint64_t, Rational>{100, Rational(7, 3)}}) {
    const PostalParams params(n, lambda);
    for (const Mutation m : mutations) {
      for (int rep = 0; rep < 3; ++rep) {
        const ReduceReport report =
            validate_reduce(mutated_reduce(params, m, rng), params);
        EXPECT_FALSE(report.ok) << mutation_name(m) << " n=" << n;
        corpus << "# " << mutation_name(m) << " n=" << n << " lambda=" << lambda
               << " completion=" << report.completion << "\n"
               << render_violations(report);
      }
    }
  }
  pinned::expect_digest("reduce violations", corpus.str(), 0xb69ad04a8813cd00ULL);
}

TEST(ReduceValidator, ViolationStringsOfEachMutationAtFourteen) {
  const PostalParams params(14, Rational(5, 2));
  Xoshiro256 rng(7);
  std::ostringstream out;
  for (const Mutation m : {Mutation::kShift, Mutation::kDuplicate, Mutation::kRootSends,
                           Mutation::kMissing, Mutation::kOutOfRange,
                           Mutation::kPortClash}) {
    out << "# " << mutation_name(m) << "\n"
        << render_violations(validate_reduce(mutated_reduce(params, m, rng), params));
  }
  EXPECT_EQ(out.str(),
            "# shifted send\n"
            "p6 already sent its partial result at t=4 but a contribution arrives at "
            "t=9/2\n"
            "root combined 13 of 14 contributions\n"
            "# duplicate send\n"
            "[p6 -> p0 : M7 @ t=4] processor sends its partial result twice\n"
            "# sending root\n"
            "[p0 -> p6 : M1 @ t=3/2] the reduction root p0 must not send\n"
            "# missing contribution\n"
            "p5 never sent its contribution\n"
            "root combined 13 of 14 contributions\n"
            "# out-of-range id\n"
            "[p8 -> p14 : M9 @ t=3/2] processor id out of range\n"
            "# port clash\n"
            "[p2 -> p0 : M3 @ t=0] receive-port conflict\n");
}

// --- Reduce is a time-reversed broadcast ----------------------------------
//
// Reverse every reduce send v -> u at s into the broadcast send u -> v at
// T - s - lambda, where T is the latest arrival. A reduce send port is
// then a broadcast receive port and the reverse, "v combined every input
// before it sent" is broadcast causality, and "the root combined all n
// inputs" is coverage. So validate_reduce should accept exactly when
// validate_schedule accepts the reversal, the root never sends, and every
// non-root sends exactly once.

Schedule reversed_broadcast(const Schedule& reduce, const PostalParams& params) {
  const Rational& lambda = params.lambda();
  Rational latest(0);
  for (const SendEvent& e : reduce.events()) latest = rmax(latest, e.t + lambda);
  Schedule out;
  for (const SendEvent& e : reduce.events()) {
    out.add(e.dst, e.src, 0, latest - e.t - lambda);
  }
  return out;
}

bool reversal_predicts_ok(const Schedule& reduce, const PostalParams& params) {
  ValidatorOptions options;
  options.messages = 1;
  const bool bcast_ok =
      validate_schedule(reversed_broadcast(reduce, params), params, options).ok;
  std::vector<std::uint64_t> sends(params.n(), 0);
  for (const SendEvent& e : reduce.events()) {
    if (e.src < params.n()) ++sends[e.src];
  }
  bool counts_ok = sends[0] == 0;
  for (ProcId p = 1; p < params.n(); ++p) counts_ok = counts_ok && sends[p] == 1;
  return bcast_ok && counts_ok;
}

TEST(ReduceReversal, VerdictsMatchTheReversedBroadcastOnReduceSchedules) {
  for (const Rational lambda : {Rational(1), Rational(2), Rational(5, 2), Rational(9, 4),
                                Rational(7, 3), Rational(10)}) {
    for (const std::uint64_t n : {1ULL, 2ULL, 7ULL, 14ULL, 33ULL, 64ULL, 100ULL}) {
      const PostalParams params(n, lambda);
      const Schedule s = reduce_schedule(params);
      EXPECT_TRUE(validate_reduce(s, params).ok) << "n=" << n << " lambda=" << lambda;
      EXPECT_TRUE(reversal_predicts_ok(s, params)) << "n=" << n << " lambda=" << lambda;
    }
  }
}

TEST(ReduceReversal, VerdictsMatchTheReversedBroadcastOnTheMutationCorpus) {
  const Mutation mutations[] = {Mutation::kShift,   Mutation::kDuplicate,
                                Mutation::kRootSends, Mutation::kMissing,
                                Mutation::kOutOfRange, Mutation::kPortClash};
  // The pinned corpus's draws first, then more of each mutation.
  Xoshiro256 rng(0x4EDCEu);
  std::uint64_t cases = 0;
  for (int reps : {3, 20}) {
    for (const auto& [n, lambda] :
         {std::pair<std::uint64_t, Rational>{14, Rational(5, 2)},
          std::pair<std::uint64_t, Rational>{40, Rational(1)},
          std::pair<std::uint64_t, Rational>{33, Rational(9, 4)},
          std::pair<std::uint64_t, Rational>{100, Rational(7, 3)}}) {
      const PostalParams params(n, lambda);
      for (const Mutation m : mutations) {
        for (int rep = 0; rep < reps; ++rep) {
          const Schedule mutant = mutated_reduce(params, m, rng);
          EXPECT_EQ(validate_reduce(mutant, params).ok,
                    reversal_predicts_ok(mutant, params))
              << mutation_name(m) << " n=" << n << " rep=" << rep;
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 4u * 6u * 23u);
}

TEST(ReduceReversal, VerdictsMatchTheReversedBroadcastOnJitteredSchedules) {
  // Every mutant above is rejected; moving one send by a few half grid
  // steps either way keeps some schedules valid.
  Xoshiro256 rng(0x7E7u);
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  for (const auto& [n, lambda] :
       {std::pair<std::uint64_t, Rational>{14, Rational(5, 2)},
        std::pair<std::uint64_t, Rational>{40, Rational(1)},
        std::pair<std::uint64_t, Rational>{33, Rational(9, 4)}}) {
    const PostalParams params(n, lambda);
    const std::vector<SendEvent> events = reduce_schedule(params).events();
    for (int trial = 0; trial < 200; ++trial) {
      const std::size_t victim = rng.uniform(0, events.size() - 1);
      const auto steps = static_cast<std::int64_t>(rng.uniform(0, 7)) - 4;
      const Rational delta(steps == 0 ? 4 : steps, 2 * lambda.den());
      Schedule mutant;
      for (std::size_t k = 0; k < events.size(); ++k) {
        SendEvent e = events[k];
        if (k == victim) e.t = rmax(Rational(0), e.t + delta);
        mutant.add(e);
      }
      const bool ok = validate_reduce(mutant, params).ok;
      EXPECT_EQ(ok, reversal_predicts_ok(mutant, params))
          << "n=" << n << " trial=" << trial << " delta=" << delta;
      (ok ? accepted : rejected) += 1;
    }
  }
  EXPECT_GT(accepted, 30u);
  EXPECT_GT(rejected, 30u);
}

}  // namespace
}  // namespace postal
