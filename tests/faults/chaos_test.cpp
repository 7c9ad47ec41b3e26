// The chaos suite (docs/FAULTS.md): sweep >= 100 seeded random fault
// scenarios -- crash counts crossed with seeds and lambdas, plus combined
// crash+loss storms -- and hold the reliability invariants on every one:
//
//   * every processor that never crashes receives the message;
//   * the crash-aware validator (fifo_receive) accepts the run;
//   * the same seed reproduces the identical schedule, trace, and fault
//     timeline (determinism is what makes a chaos failure debuggable);
//   * counters are internally consistent.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "faults/fault_plan.hpp"
#include "sim/protocols/reliable_bcast.hpp"
#include "test_util.hpp"

namespace postal {
namespace {

struct Scenario {
  PostalParams params;
  FaultPlan plan;
  std::string tag;
};

/// Check the reliability invariants on one scenario; returns the report so
/// callers can aggregate. A failing scenario dumps its seed and resolved
/// FaultPlan JSON to stderr (and $POSTAL_CHAOS_ARTIFACTS when set) so the
/// exact run can be replayed with `postal_cli faults --plan`.
ReliableBcastReport check_scenario(const Scenario& s) {
  const int failures_before = test::failure_part_count();
  const ReliableBcastReport report = run_reliable_bcast(s.params, &s.plan);

  EXPECT_TRUE(report.covered)
      << s.tag << ": " << report.uncovered_alive.size()
      << " live processors never reached (first: "
      << (report.uncovered_alive.empty() ? 0 : report.uncovered_alive.front())
      << ")";
  EXPECT_TRUE(report.validation.ok)
      << s.tag << ": " << report.validation.summary();
  // Counter consistency.
  EXPECT_LE(report.crashed.size(), s.plan.crashes.size()) << s.tag;
  EXPECT_GE(report.counters.retransmissions, report.counters.dead_declared)
      << s.tag << ": declaring a child dead takes max_attempts transmissions";
  EXPECT_LE(report.counters.acks_received, report.counters.acks_sent) << s.tag;
  EXPECT_GE(report.counters.data_sends + report.counters.retransmissions,
            s.params.n() - 1 - report.crashed.size())
      << s.tag;
  if (test::failure_part_count() != failures_before) {
    test::dump_chaos_artifact(s.tag, s.plan.seed, s.plan);
  }
  return report;
}

TEST(Chaos, HundredPlusSeededScenariosHoldTheInvariants) {
  std::uint64_t scenarios = 0;
  std::uint64_t total_faults = 0;
  std::uint64_t runs_with_repairs = 0;

  // Crash sweep: 2 lambdas x 5 crash counts x 11 seeds = 110 scenarios.
  const Rational lambdas[] = {Rational(1), Rational(5, 2)};
  const std::uint64_t crash_counts[] = {0, 1, 2, 4, 8};
  for (const Rational& lambda : lambdas) {
    const PostalParams params(48, lambda);
    for (const std::uint64_t crashes : crash_counts) {
      for (std::uint64_t seed_ix = 0; seed_ix < 11; ++seed_ix) {
        const std::uint64_t seed = 0xc4a05 + seed_ix * 131 + crashes * 17 +
                                   static_cast<std::uint64_t>(lambda.num());
        RandomFaultOptions opts;
        opts.crashes = crashes;
        Scenario s{params, random_fault_plan(params, seed, opts),
                   "crash sweep lambda=" + lambda.str() +
                       " crashes=" + std::to_string(crashes) +
                       " seed=" + std::to_string(seed)};
        const ReliableBcastReport report = check_scenario(s);
        if (crashes == 0) {
          EXPECT_EQ(report.completion, report.baseline) << s.tag;
          EXPECT_EQ(report.result.faults.total(), 0u) << s.tag;
        }
        total_faults += report.result.faults.total();
        runs_with_repairs += report.counters.repairs > 0 ? 1 : 0;
        ++scenarios;
      }
    }
  }

  // Combined storms: crashes + bounded link loss (max_losses 3 < the
  // default max_attempts 4, the fair-lossy-link boundary), 12 scenarios.
  const PostalParams storm_params(40, Rational(2));
  for (std::uint64_t seed_ix = 0; seed_ix < 12; ++seed_ix) {
    RandomFaultOptions opts;
    opts.crashes = 3;
    opts.loss_p = Rational(1, 4);
    opts.lossy_links = 20;
    opts.spikes = 1;
    Scenario s{storm_params,
               random_fault_plan(storm_params, 0x570a0 + seed_ix, opts),
               "storm seed=" + std::to_string(0x570a0 + seed_ix)};
    total_faults += check_scenario(s).result.faults.total();
    ++scenarios;
  }

  EXPECT_GE(scenarios, 100u);
  // The sweep must actually exercise the machinery, not vacuously pass.
  EXPECT_GT(total_faults, 0u);
  EXPECT_GT(runs_with_repairs, 0u);
}

/// MachineStats::port_busy counts each rank's schedule records on the
/// chaos corpus's two shapes (the crash sweep and the storms), on both
/// engines.
TEST(Chaos, PortBusyCountsEachSourcesScheduleRecords) {
  std::vector<Scenario> corpus;
  for (const Rational& lambda : {Rational(1), Rational(5, 2)}) {
    const PostalParams params(48, lambda);
    for (const std::uint64_t crashes : {std::uint64_t{0}, std::uint64_t{2}, std::uint64_t{8}}) {
      for (std::uint64_t seed_ix = 0; seed_ix < 4; ++seed_ix) {
        const std::uint64_t seed = 0xc4a05 + seed_ix * 131 + crashes * 17 +
                                   static_cast<std::uint64_t>(lambda.num());
        RandomFaultOptions opts;
        opts.crashes = crashes;
        corpus.push_back(Scenario{params, random_fault_plan(params, seed, opts),
                                  "crash sweep seed=" + std::to_string(seed)});
      }
    }
  }
  const PostalParams storm_params(40, Rational(2));
  for (std::uint64_t seed_ix = 0; seed_ix < 12; ++seed_ix) {
    RandomFaultOptions opts;
    opts.crashes = 3;
    opts.loss_p = Rational(1, 4);
    opts.lossy_links = 20;
    opts.spikes = 1;
    corpus.push_back(Scenario{storm_params,
                              random_fault_plan(storm_params, 0x570a0 + seed_ix, opts),
                              "storm seed=" + std::to_string(0x570a0 + seed_ix)});
  }
  std::uint64_t lost = 0;
  for (const Scenario& s : corpus) {
    for (const unsigned threads : {1u, 3u}) {
      ReliableBcastOptions ropts;
      ropts.threads = threads;
      const ReliableBcastReport report = run_reliable_bcast(s.params, &s.plan, ropts);
      EXPECT_EQ(report.result.stats.port_busy.sends(),
                report.result.schedule.sends_per_proc(s.params.n()))
          << s.tag << " threads=" << threads;
      lost += report.result.faults.drops_loss;
    }
  }
  EXPECT_GT(lost, 0u);
}

TEST(Chaos, IdenticalSeedsReproduceIdenticalRuns) {
  const PostalParams params(48, Rational(5, 2));
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    RandomFaultOptions opts;
    opts.crashes = 4;
    opts.loss_p = Rational(1, 8);
    opts.lossy_links = 12;
    const FaultPlan plan_a = random_fault_plan(params, seed, opts);
    const FaultPlan plan_b = random_fault_plan(params, seed, opts);
    ASSERT_EQ(plan_a, plan_b) << "plan generation diverged at seed " << seed;

    const ReliableBcastReport a = run_reliable_bcast(params, &plan_a);
    const ReliableBcastReport b = run_reliable_bcast(params, &plan_b);
    EXPECT_EQ(a.result.schedule.events(), b.result.schedule.events())
        << "seed " << seed;
    EXPECT_EQ(a.result.trace.deliveries(), b.result.trace.deliveries())
        << "seed " << seed;
    EXPECT_EQ(a.result.faults.events, b.result.faults.events) << "seed " << seed;
  }
}

TEST(Chaos, HeavyCrashStormStillCoversSurvivors) {
  // Kill a third of the machine. Whatever is left must be reached.
  const PostalParams params(36, Rational(2));
  for (std::uint64_t seed = 100; seed < 106; ++seed) {
    RandomFaultOptions opts;
    opts.crashes = 12;
    Scenario s{params, random_fault_plan(params, seed, opts),
               "heavy storm seed=" + std::to_string(seed)};
    const ReliableBcastReport report = check_scenario(s);
    EXPECT_EQ(report.crashed.size(), 12u) << s.tag;
  }
}

}  // namespace
}  // namespace postal
