// Replicated-log chaos suite (docs/COORDINATION.md): sweep 60+ seeded
// random fault scenarios over the multi-decree log -- leader crashes mid
// batch, quorum-preserving link loss, latency-spike windows, lease-expiry
// races pinned to grid boundaries, and reconfiguration overlapping crashes
// -- and hold the full check_log clause set on every one:
//
//   * the crash-aware machine validation accepts the run;
//   * check_log accepts it (per-slot agreement, validity, single proposer
//     per (view, slot), proposals inside their lease, pairwise-disjoint
//     lease intervals with monotone fencing tokens, counter consistency,
//     prefix durability + config-epoch/membership consistency, guarded
//     liveness);
//   * a sampled subset re-runs at 4 threads and
//     must reproduce byte-identical events, rank states, and counters.
//
// A failing scenario dumps its seed and resolved FaultPlan JSON to stderr
// (and to $POSTAL_CHAOS_ARTIFACTS for CI's artifact upload) via
// postal::test::dump_chaos_artifact, so it can be replayed offline with
// `postal_cli log --plan`.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coord/log.hpp"
#include "faults/fault_plan.hpp"
#include "test_util.hpp"

namespace postal::coord {
namespace {

struct LogScenario {
  PostalParams params;
  FaultPlan plan;
  LogOptions options;
  std::uint64_t seed = 0;
  std::string tag;
};

/// The sweep grid: random plans (which never crash rank 0) plus, on odd
/// seeds, an explicit crash of rank 0 -- view 0's leader and lease holder
/// -- at a seed-derived time inside the first batch. Every third scenario
/// adds a reconfiguration (remove a mid rank, and on some seeds re-add it
/// later) so membership changes overlap the crash/loss plans.
std::vector<LogScenario> make_scenarios() {
  std::vector<LogScenario> out;
  const std::vector<std::uint64_t> sizes = {5, 9, 16};
  const std::vector<Rational> lambdas = {Rational(2), Rational(5, 2)};
  for (const std::uint64_t n : sizes) {
    for (const Rational& lambda : lambdas) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        for (const bool leader_crash : {false, true}) {
          const PostalParams params(n, lambda);
          RandomFaultOptions ropts;
          ropts.crashes = 1 + (seed % 2);
          ropts.loss_p = (seed % 3 == 0) ? Rational(1, 2) : Rational(0);
          ropts.lossy_links = (seed % 3 == 0) ? 2 : 0;
          ropts.max_losses = 3;
          ropts.spikes = (seed % 4 == 0) ? 1 : 0;
          FaultPlan plan = random_fault_plan(params, seed * 6007 + n, ropts);
          if (leader_crash) {
            plan.crashes.push_back(
                CrashFault{0, Rational(static_cast<std::int64_t>(seed % 13))});
          }
          LogOptions options;
          options.commands = 3 + (seed % 3);
          const bool reconfig = (seed % 3 == 0) && n >= 5;
          if (reconfig) {
            // Remove a rank the random plan never crashes explicitly and
            // re-add it on even seeds, at times inside the run.
            const ProcId victim = static_cast<ProcId>(2 + (seed % (n - 2)));
            options.reconfig.push_back(
                ReconfigRequest{victim, Rational(static_cast<std::int64_t>(
                                            3 + (seed % 7)))});
            if (seed % 2 == 0) {
              options.reconfig.push_back(ReconfigRequest{
                  victim, Rational(static_cast<std::int64_t>(150 + 10 * seed))});
            }
          }
          std::ostringstream tag;
          tag << "log-n" << n << "-l" << lambda.num() << "d" << lambda.den()
              << "-s" << seed << (leader_crash ? "-lc" : "")
              << (reconfig ? "-rc" : "");
          out.push_back(LogScenario{params, std::move(plan), std::move(options),
                                    seed, tag.str()});
        }
      }
    }
  }
  return out;
}

TEST(LogChaos, SafetyHoldsOnEveryScenario) {
  const auto scenarios = make_scenarios();
  ASSERT_GE(scenarios.size(), 60U);
  int checked = 0;
  for (const LogScenario& s : scenarios) {
    const int before = test::failure_part_count();
    const LogReport report = run_log(s.params, &s.plan, s.options);
    EXPECT_TRUE(report.validation.ok)
        << s.tag << ": " << report.validation.summary();
    EXPECT_TRUE(report.check.ok) << s.tag << ": " << report.check.summary();
    EXPECT_LE(report.crashed.size(), s.plan.crashes.size()) << s.tag;
    // Counter sanity that holds on every plan: decides are per (rank,
    // slot), commits never exceed proposals plus catch-up heals.
    EXPECT_LE(report.counters.decides, s.params.n() * report.slots) << s.tag;
    EXPECT_LE(report.counters.lease_renewals, report.counters.renews_sent)
        << s.tag;
    // Every sixth scenario re-runs sharded on the Rational reference path:
    // the run must be byte-identical (the lambda-barrier determinism claim).
    if (s.seed % 6 == 0) {
      LogOptions opts = s.options;
      opts.threads = 4;
      const LogReport again = run_log(s.params, &s.plan, opts);
      EXPECT_EQ(again.events, report.events) << s.tag;
      EXPECT_EQ(again.ranks, report.ranks) << s.tag;
      EXPECT_EQ(again.counters, report.counters) << s.tag;
    }
    if (test::failure_part_count() != before) {
      test::dump_chaos_artifact(s.tag, s.seed, s.plan);
    }
    ++checked;
  }
  EXPECT_GE(checked, 60);
}

TEST(LogChaos, LeaseBoundaryRacesStayDisjointUnderCrashes) {
  // Lease-expiry races on the grid boundary: force lease == heartbeat so
  // every renewal tick collides with an expiry tick (timer wins each tie),
  // while seeded crashes remove leaders around those instants. Mutual
  // exclusion (pairwise-disjoint lease intervals, monotone fencing tokens)
  // must hold on every run -- check_log enforces it.
  const PostalParams params(6, Rational(2));
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const int before = test::failure_part_count();
    LogOptions options;
    options.commands = 4;
    options.heartbeat_period = Rational(2);
    options.lease_length = Rational(2);
    FaultPlan plan;
    // Crash up to two ranks at grid-aligned times near lease boundaries.
    plan.crashes.push_back(CrashFault{
        static_cast<ProcId>(seed % 3),
        Rational(static_cast<std::int64_t>(2 * (1 + seed % 5)))});
    if (seed % 2 == 0) {
      plan.crashes.push_back(CrashFault{
          static_cast<ProcId>(3 + seed % 2),
          Rational(static_cast<std::int64_t>(2 * (4 + seed % 6)))});
    }
    std::ostringstream tag;
    tag << "log-lease-boundary-s" << seed;
    const LogReport report = run_log(params, &plan, options);
    EXPECT_TRUE(report.validation.ok)
        << tag.str() << ": " << report.validation.summary();
    EXPECT_TRUE(report.check.ok) << tag.str() << ": " << report.check.summary();
    // With lease == heartbeat every renewal arrives at/after expiry: no
    // extension is ever granted.
    EXPECT_EQ(report.counters.lease_renewals, 0U) << tag.str();
    if (test::failure_part_count() != before) {
      test::dump_chaos_artifact(tag.str(), seed, plan);
    }
    ++checked;
  }
  EXPECT_EQ(checked, 8);
}

}  // namespace
}  // namespace postal::coord
