// Coordination chaos suite (docs/COORDINATION.md, docs/FAULTS.md): sweep
// 150+ seeded random fault scenarios -- leader crashes, quorum-preserving
// link loss, latency-spike windows, and combinations -- across n, lambda,
// and both protocols, and hold the coordination safety clauses on every
// one:
//
//   * the crash-aware machine validation accepts the run;
//   * the coordination validator accepts it (election: one live leader and
//     legitimacy under crash-only plans; consensus: agreement, validity,
//     integrity, single proposer, guarded liveness);
//   * a sampled subset re-runs at 4 threads and
//     must reproduce byte-identical events and final states.
//
// A failing scenario dumps its seed and resolved FaultPlan JSON to stderr
// (and to $POSTAL_CHAOS_ARTIFACTS for CI's artifact upload) via
// postal::test::dump_chaos_artifact, so it can be replayed offline with
// `postal_cli elect/consensus --plan`.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coord/consensus.hpp"
#include "coord/election.hpp"
#include "faults/fault_plan.hpp"
#include "test_util.hpp"

namespace postal::coord {
namespace {

struct ChaosScenario {
  PostalParams params;
  FaultPlan plan;
  std::uint64_t seed = 0;
  std::string tag;
};

/// The sweep grid shared by both protocols: random plans (which never
/// crash rank 0) and, on odd seeds, an explicit crash of rank 0 -- the
/// initial election leader and view 0's proposer -- at a seed-derived time.
std::vector<ChaosScenario> make_scenarios(const std::string& protocol) {
  std::vector<ChaosScenario> out;
  const std::vector<std::uint64_t> sizes = {5, 9, 16};
  const std::vector<Rational> lambdas = {Rational(2), Rational(5, 2)};
  for (const std::uint64_t n : sizes) {
    for (const Rational& lambda : lambdas) {
      for (std::uint64_t seed = 1; seed <= 7; ++seed) {
        for (const bool leader_crash : {false, true}) {
          const PostalParams params(n, lambda);
          RandomFaultOptions ropts;
          ropts.crashes = 1 + (seed % 2);
          ropts.loss_p = (seed % 3 == 0) ? Rational(1, 2) : Rational(0);
          ropts.lossy_links = (seed % 3 == 0) ? 2 : 0;
          ropts.max_losses = 3;
          ropts.spikes = (seed % 4 == 0) ? 1 : 0;
          FaultPlan plan = random_fault_plan(params, seed * 7919 + n, ropts);
          if (leader_crash) {
            plan.crashes.push_back(
                CrashFault{0, Rational(static_cast<std::int64_t>(seed % 13))});
          }
          std::ostringstream tag;
          tag << protocol << "-n" << n << "-l" << lambda.num() << "d"
              << lambda.den() << "-s" << seed << (leader_crash ? "-lc" : "");
          out.push_back(ChaosScenario{params, std::move(plan), seed, tag.str()});
        }
      }
    }
  }
  return out;
}

TEST(CoordChaos, ElectionSafetyHoldsOnEveryScenario) {
  const auto scenarios = make_scenarios("elect");
  ASSERT_GE(scenarios.size(), 84U);
  int checked = 0;
  for (const ChaosScenario& s : scenarios) {
    const int before = test::failure_part_count();
    const ElectionReport report = run_election(s.params, &s.plan);
    EXPECT_TRUE(report.validation.ok)
        << s.tag << ": " << report.validation.summary();
    EXPECT_TRUE(report.check.ok) << s.tag << ": " << report.check.summary();
    EXPECT_LE(report.crashed.size(), s.plan.crashes.size()) << s.tag;
    // Every sixth scenario re-runs sharded on the Rational reference path:
    // the run must be byte-identical (the lambda-barrier determinism claim).
    if (s.seed % 6 == 0) {
      ElectionOptions opts;
      opts.threads = 4;
      const ElectionReport again = run_election(s.params, &s.plan, opts);
      EXPECT_EQ(again.events, report.events) << s.tag;
      EXPECT_EQ(again.beliefs, report.beliefs) << s.tag;
      EXPECT_EQ(again.counters, report.counters) << s.tag;
    }
    if (test::failure_part_count() != before) {
      test::dump_chaos_artifact(s.tag, s.seed, s.plan);
    }
    ++checked;
  }
  EXPECT_GE(checked, 84);
}

TEST(CoordChaos, ConsensusSafetyHoldsOnEveryScenario) {
  const auto scenarios = make_scenarios("consensus");
  ASSERT_GE(scenarios.size(), 84U);
  int checked = 0;
  for (const ChaosScenario& s : scenarios) {
    const int before = test::failure_part_count();
    const ConsensusReport report = run_consensus(s.params, &s.plan);
    EXPECT_TRUE(report.validation.ok)
        << s.tag << ": " << report.validation.summary();
    EXPECT_TRUE(report.check.ok) << s.tag << ": " << report.check.summary();
    // Counter consistency: decides count every kDecide, one per rank.
    EXPECT_LE(report.counters.decides, s.params.n()) << s.tag;
    EXPECT_LE(report.counters.commits, report.counters.proposals) << s.tag;
    if (s.seed % 6 == 0) {
      ConsensusOptions opts;
      opts.threads = 4;
      const ConsensusReport again = run_consensus(s.params, &s.plan, opts);
      EXPECT_EQ(again.events, report.events) << s.tag;
      EXPECT_EQ(again.decisions, report.decisions) << s.tag;
      EXPECT_EQ(again.counters, report.counters) << s.tag;
    }
    if (test::failure_part_count() != before) {
      test::dump_chaos_artifact(s.tag, s.seed, s.plan);
    }
    ++checked;
  }
  EXPECT_GE(checked, 84);
}

}  // namespace
}  // namespace postal::coord
