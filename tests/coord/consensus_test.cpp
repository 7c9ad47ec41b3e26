// View-change consensus unit tests (docs/COORDINATION.md): fault-free
// decisions in view 0, leader-crash view rotation, Paxos value stability,
// quorum-loss safety, and byte-identical determinism across thread counts
// counts.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "coord/consensus.hpp"
#include "coord/validator.hpp"
#include "faults/fault_plan.hpp"
#include "test_util.hpp"

namespace postal::coord {
namespace {

TEST(Consensus, FaultFreeDecidesLeaderValueInViewZero) {
  const PostalParams params(8, Rational(2));
  const ConsensusReport report = run_consensus(params);
  EXPECT_TRUE(report.validation.ok) << report.validation.summary();
  EXPECT_TRUE(report.check.ok) << report.check.summary();
  EXPECT_TRUE(report.check.liveness_checked);
  EXPECT_TRUE(report.settled);
  EXPECT_EQ(report.views_used, 0U);
  EXPECT_EQ(report.counters.decides, 8U);
  EXPECT_EQ(report.counters.proposals, 1U);
  EXPECT_EQ(report.counters.proposal_repairs, 0U);
  EXPECT_EQ(report.quorum, 5U);
  for (ProcId p = 0; p < 8; ++p) {
    ASSERT_TRUE(report.decisions[p].started);
    ASSERT_TRUE(report.decisions[p].decided) << "rank " << p;
    EXPECT_EQ(report.decisions[p].value, 1000U);
    EXPECT_EQ(report.decisions[p].view, 0U);
  }
  EXPECT_EQ(report.recovery_time, Rational(0));
  EXPECT_EQ(report.baseline, report.decision_latency);
}

TEST(Consensus, SingleProcessorDecidesImmediately) {
  const PostalParams params(1, Rational(2));
  const ConsensusReport report = run_consensus(params);
  EXPECT_TRUE(report.check.ok) << report.check.summary();
  ASSERT_TRUE(report.decisions[0].decided);
  EXPECT_EQ(report.decisions[0].value, 1000U);
  EXPECT_EQ(report.decision_latency, Rational(0));
}

TEST(Consensus, LeaderCrashRotatesToNextView) {
  const PostalParams params(8, Rational(2));
  FaultPlan plan;
  plan.crashes.push_back(CrashFault{0, Rational(0)});
  const ConsensusReport report = run_consensus(params, &plan);
  EXPECT_TRUE(report.validation.ok) << report.validation.summary();
  EXPECT_TRUE(report.check.ok) << report.check.summary();
  EXPECT_TRUE(report.check.liveness_checked);
  EXPECT_GE(report.views_used, 1U);
  for (ProcId p = 1; p < 8; ++p) {
    ASSERT_TRUE(report.decisions[p].decided) << "rank " << p;
    EXPECT_EQ(report.decisions[p].value, 1001U);  // view 1's client value
  }
  EXPECT_GT(report.recovery_time, Rational(0));
  EXPECT_GT(report.decision_latency, report.baseline);
}

TEST(Consensus, MidViewLeaderCrashKeepsAgreement) {
  // Crash the first leader somewhere inside view 0: depending on timing the
  // proposal may or may not have reached a quorum, but agreement, validity
  // and single-proposer must hold either way -- and the survivors must all
  // decide the same value.
  const PostalParams params(7, Rational(2));
  for (const std::int64_t crash_at : {1, 3, 5, 8, 13, 21, 34}) {
    FaultPlan plan;
    plan.crashes.push_back(CrashFault{0, Rational(crash_at)});
    const ConsensusReport report = run_consensus(params, &plan);
    EXPECT_TRUE(report.check.ok)
        << "crash at t=" << crash_at << ": " << report.check.summary();
    EXPECT_TRUE(report.check.liveness_checked) << "crash at t=" << crash_at;
  }
}

TEST(Consensus, QuorumLossIsSafeButNotLive) {
  // 4 of 6 crash at t=0: 2 survivors < quorum 4. Nobody may decide
  // anything wrong; the liveness clause must not fire.
  const PostalParams params(6, Rational(2));
  FaultPlan plan;
  for (const ProcId p : {0U, 1U, 2U, 3U}) {
    plan.crashes.push_back(CrashFault{p, Rational(0)});
  }
  const ConsensusReport report = run_consensus(params, &plan);
  EXPECT_TRUE(report.check.ok) << report.check.summary();
  EXPECT_FALSE(report.check.liveness_checked);
  EXPECT_EQ(report.counters.decides, 0U);
}

TEST(Consensus, ValueBaseIsConfigurable) {
  const PostalParams params(4, Rational(3));
  ConsensusOptions options;
  options.value_base = 5000;
  const ConsensusReport report = run_consensus(params, nullptr, options);
  EXPECT_TRUE(report.check.ok) << report.check.summary();
  for (ProcId p = 0; p < 4; ++p) {
    EXPECT_EQ(report.decisions[p].value, 5000U);
  }
}

TEST(Consensus, DerivedViewLengthIsOnTheGrid) {
  const PostalParams params(8, Rational(5, 2));
  const ConsensusOptions resolved =
      resolve_consensus_options(params, nullptr, ConsensusOptions{});
  EXPECT_GT(resolved.view_length, Rational(0));
  // lambda = 5/2: every derived time must be a multiple of 1/2 so the tick
  // fast path admits the run.
  EXPECT_EQ(resolved.view_length.den() == 1 || resolved.view_length.den() == 2,
            true)
      << resolved.view_length.str();
  EXPECT_GE(resolved.max_views, 1U);
}

TEST(Consensus, ByteIdenticalAcrossThreads) {
  const PostalParams params(10, Rational(5, 2));
  FaultPlan plan;
  plan.crashes.push_back(CrashFault{0, Rational(9, 2)});
  plan.crashes.push_back(CrashFault{4, Rational(40)});

  std::vector<ConsensusReport> reports;
  for (const unsigned threads : {1U, 2U, 4U}) {
    ConsensusOptions options;
    options.threads = threads;
    reports.push_back(run_consensus(params, &plan, options));
  }
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].events, reports[0].events) << "variant " << i;
    EXPECT_EQ(reports[i].decisions, reports[0].decisions) << "variant " << i;
    EXPECT_EQ(reports[i].counters, reports[0].counters) << "variant " << i;
    EXPECT_EQ(reports[i].result.schedule.events(), reports[0].result.schedule.events())
        << "variant " << i;
  }
  EXPECT_TRUE(reports[0].check.ok) << reports[0].check.summary();
}

TEST(Consensus, ValidatorFlagsFabricatedDisagreement) {
  const PostalParams params(5, Rational(2));
  ConsensusReport report = run_consensus(params);
  ASSERT_TRUE(report.check.ok);
  for (auto& e : report.events) {
    if (e.kind == ConsensusEvent::Kind::kDecide && e.rank == 2) {
      e.value = 9999;
    }
  }
  const CoordCheck tampered = check_consensus(report, params, nullptr);
  EXPECT_FALSE(tampered.ok);
  EXPECT_NE(tampered.summary().find("agreement"), std::string::npos)
      << tampered.summary();
}

TEST(Consensus, ValidatorFlagsWrongProposer) {
  const PostalParams params(5, Rational(2));
  ConsensusReport report = run_consensus(params);
  ASSERT_TRUE(report.check.ok);
  for (auto& e : report.events) {
    if (e.kind == ConsensusEvent::Kind::kPropose) e.rank = 3;
  }
  const CoordCheck tampered = check_consensus(report, params, nullptr);
  EXPECT_FALSE(tampered.ok);
}

}  // namespace
}  // namespace postal::coord
