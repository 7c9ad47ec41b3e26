// Replicated-log unit tests (docs/COORDINATION.md): fault-free batches in
// view 0 under a single lease, leader-crash rotation with catch-up,
// quorum-loss safety, reconfiguration (remove / re-add mid-run),
// lease-boundary ties on the grid (timer wins), stale-token fencing, and
// byte-identical determinism across thread counts.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "coord/log.hpp"
#include "coord/validator.hpp"
#include "faults/fault_plan.hpp"
#include "test_util.hpp"

namespace postal::coord {
namespace {

TEST(Log, FaultFreeDecidesAllSlotsInViewZero) {
  const PostalParams params(8, Rational(2));
  const LogReport report = run_log(params);
  EXPECT_TRUE(report.validation.ok) << report.validation.summary();
  EXPECT_TRUE(report.check.ok) << report.check.summary();
  EXPECT_TRUE(report.check.liveness_checked);
  EXPECT_TRUE(report.settled);
  EXPECT_EQ(report.views_used, 0U);
  EXPECT_EQ(report.slots, 6U);
  EXPECT_EQ(report.counters.decides, 6U * 8U);
  EXPECT_EQ(report.counters.proposals, 6U);
  EXPECT_EQ(report.counters.lease_acquisitions, 1U);
  EXPECT_EQ(report.counters.lease_expiries, 0U);
  EXPECT_EQ(report.counters.stale_rejects, 0U);
  EXPECT_EQ(report.counters.proposal_repairs, 0U);
  EXPECT_EQ(report.quorum, 5U);
  for (ProcId p = 0; p < 8; ++p) {
    const RankLog& rl = report.ranks[p];
    ASSERT_TRUE(rl.started);
    EXPECT_EQ(rl.commit_prefix, 6U) << "rank " << p;
    for (std::uint32_t s = 0; s < 6; ++s) {
      ASSERT_TRUE(rl.slots[s].decided) << "rank " << p << " slot " << s;
      EXPECT_EQ(rl.slots[s].value, 3000U + s);
      EXPECT_EQ(rl.slots[s].view, 0U);
    }
  }
  EXPECT_EQ(report.recovery_time, Rational(0));
  EXPECT_EQ(report.baseline, report.commit_latency);
}

TEST(Log, SingleProcessorDecidesImmediately) {
  const PostalParams params(1, Rational(2));
  const LogReport report = run_log(params);
  EXPECT_TRUE(report.check.ok) << report.check.summary();
  ASSERT_TRUE(report.ranks[0].started);
  EXPECT_EQ(report.ranks[0].commit_prefix, 6U);
  EXPECT_EQ(report.commit_latency, Rational(0));
  EXPECT_EQ(report.counters.lease_acquisitions, 0U);
}

TEST(Log, LeaderCrashMidBatchKeepsAgreementAndRecovers) {
  // Crash the first leader at various points inside view 0: before the
  // quorum, mid-dissemination, after some commits. Whatever landed must
  // stay chosen; the survivors must finish the whole log.
  const PostalParams params(7, Rational(2));
  for (const std::int64_t crash_at : {1, 3, 5, 8, 13, 21, 34}) {
    FaultPlan plan;
    plan.crashes.push_back(CrashFault{0, Rational(crash_at)});
    const LogReport report = run_log(params, &plan);
    EXPECT_TRUE(report.check.ok)
        << "crash at t=" << crash_at << ": " << report.check.summary();
    EXPECT_TRUE(report.check.liveness_checked) << "crash at t=" << crash_at;
    for (ProcId p = 1; p < 7; ++p) {
      EXPECT_EQ(report.ranks[p].commit_prefix, report.slots)
          << "crash at t=" << crash_at << " rank " << p;
    }
  }
}

TEST(Log, QuorumLossIsSafeButNotLive) {
  // 4 of 6 crash at t=0: 2 survivors < quorum 4. The liveness clause must
  // not fire and nothing inconsistent may be decided.
  const PostalParams params(6, Rational(2));
  FaultPlan plan;
  for (const ProcId p : {0U, 1U, 2U, 3U}) {
    plan.crashes.push_back(CrashFault{p, Rational(0)});
  }
  const LogReport report = run_log(params, &plan);
  EXPECT_TRUE(report.check.ok) << report.check.summary();
  EXPECT_FALSE(report.check.liveness_checked);
  EXPECT_EQ(report.counters.decides, 0U);
}

TEST(Log, RepairWaveHealsAStragglerBehindALossyLink) {
  // Deterministically eat the first messages on every link out of the
  // leader so part of the view-0 batch never reaches its tree children:
  // the leader's repair wave (point-to-point re-sends after repair_after_)
  // or a later view's catch-up must heal the stragglers, and the run must
  // still decide the full log everywhere.
  const PostalParams params(6, Rational(2));
  FaultPlan plan;
  for (ProcId dst = 1; dst < 6; ++dst) {
    plan.losses.push_back(LinkLoss{0, dst, Rational(1), 2});
  }
  const LogReport report = run_log(params, &plan);
  EXPECT_TRUE(report.check.ok) << report.check.summary();
  EXPECT_TRUE(report.check.liveness_checked);
  EXPECT_GT(report.counters.proposal_repairs + report.counters.catchup_commits +
                report.counters.view_changes_sent,
            0U);
  for (ProcId p = 0; p < 6; ++p) {
    EXPECT_EQ(report.ranks[p].commit_prefix, report.slots) << "rank " << p;
  }
}

TEST(Log, DerivedTimingIsOnTheGrid) {
  const PostalParams params(8, Rational(5, 2));
  const LogOptions resolved = resolve_log_options(params, nullptr, LogOptions{});
  // lambda = 5/2: every derived duration must be a multiple of 1/2 so the
  // run stays on lambda's tick grid (no mid-run rescale).
  for (const Rational& r : {resolved.view_length, resolved.heartbeat_period,
                            resolved.lease_length}) {
    EXPECT_GT(r, Rational(0));
    EXPECT_TRUE(r.den() == 1 || r.den() == 2) << r.str();
  }
  EXPECT_GE(resolved.max_views, 1U);
  // The lease derivation: heartbeat + the renewal round trip.
  EXPECT_GT(resolved.lease_length, resolved.heartbeat_period);
  EXPECT_LT(resolved.lease_length, resolved.view_length);
}

TEST(Log, ReconfigRemovesARankFromTheMembership) {
  const PostalParams params(6, Rational(2));
  LogOptions options;
  options.commands = 4;
  options.reconfig.push_back(ReconfigRequest{3, Rational(5)});
  const LogReport report = run_log(params, nullptr, options);
  EXPECT_TRUE(report.check.ok) << report.check.summary();
  EXPECT_TRUE(report.check.liveness_checked);
  EXPECT_EQ(report.slots, 5U);
  EXPECT_EQ(report.final_members, (std::vector<ProcId>{0, 1, 2, 4, 5}));
  EXPECT_GE(report.counters.config_applies, 1U);
  for (const ProcId p : report.final_members) {
    EXPECT_EQ(report.ranks[p].members, report.final_members) << "rank " << p;
    EXPECT_EQ(report.ranks[p].commit_prefix, 5U) << "rank " << p;
  }
  // The removed rank keeps observing and is healed to the full log too.
  EXPECT_EQ(report.ranks[3].commit_prefix, 5U);
  EXPECT_EQ(report.ranks[3].members, report.final_members);
}

TEST(Log, ReconfigRemoveThenReAddUnderACrash) {
  // Remove rank 2, crash rank 4 while the change settles, then re-add
  // rank 2: the tree/quorum/leader mapping is recomputed twice and the
  // re-added rank must rejoin via catch-up.
  const PostalParams params(7, Rational(2));
  LogOptions options;
  options.commands = 3;
  options.reconfig.push_back(ReconfigRequest{2, Rational(4)});
  options.reconfig.push_back(ReconfigRequest{2, Rational(200)});
  FaultPlan plan;
  plan.crashes.push_back(CrashFault{4, Rational(8)});
  const LogReport report = run_log(params, &plan, options);
  EXPECT_TRUE(report.check.ok) << report.check.summary();
  EXPECT_EQ(report.final_members, (std::vector<ProcId>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_GE(report.counters.reconfig_commands, 2U);
  if (report.check.liveness_checked) {
    for (const ProcId p : {0U, 1U, 2U, 3U, 5U, 6U}) {
      EXPECT_EQ(report.ranks[p].commit_prefix, report.slots) << "rank " << p;
    }
  }
}

TEST(Log, ReconfigBelowTwoMembersIsRejected) {
  const PostalParams params(2, Rational(2));
  LogOptions options;
  options.reconfig.push_back(ReconfigRequest{1, Rational(3)});
  POSTAL_EXPECT_THROW(resolve_log_options(params, nullptr, options),
                      InvalidArgument);
}

TEST(Log, LeaseExpiryTieWithRenewalTickTimerWins) {
  // lease_length == heartbeat_period puts the first renewal exactly on
  // the expiry tick. The write guard is now < expiry, so the renewal is
  // refused and the lease lapses: the timer wins the on-grid tie, exactly
  // like the reliable-bcast zero-slack backoff boundary. Progress is
  // preserved -- the leader still learns its quorum locally and heals the
  // followers through later views' catch-up.
  const PostalParams params(5, Rational(2));
  LogOptions options;
  options.commands = 3;
  options.heartbeat_period = Rational(2);
  options.lease_length = Rational(2);
  const LogReport report = run_log(params, nullptr, options);
  EXPECT_TRUE(report.check.ok) << report.check.summary();
  EXPECT_EQ(report.counters.lease_renewals, 0U);
  EXPECT_GE(report.counters.lease_expiries, 1U);
  EXPECT_TRUE(report.check.liveness_checked);
  for (ProcId p = 0; p < 5; ++p) {
    EXPECT_EQ(report.ranks[p].commit_prefix, report.slots) << "rank " << p;
  }
}

TEST(Log, LeaderCrashExactlyAtLeaseExpiryTick) {
  // Pin the view-0 leader's crash to the exact expiry tick of its first
  // lease (read off a fault-free run): the lease interval closes at the
  // crash instant, no event may be logged at/after it, and the next
  // leader's acquisition must not overlap.
  const PostalParams params(6, Rational(2));
  LogOptions options;
  options.commands = 4;
  options.heartbeat_period = Rational(4);
  options.lease_length = Rational(4);
  const LogReport probe = run_log(params, nullptr, options);
  Rational expiry{0};
  for (const LogEvent& e : probe.events) {
    if (e.kind == LogEvent::Kind::kLeaseAcquire && e.view == 0) {
      expiry = e.until;
      break;
    }
  }
  ASSERT_GT(expiry, Rational(0));
  FaultPlan plan;
  plan.crashes.push_back(CrashFault{0, expiry});
  const LogReport report = run_log(params, &plan, options);
  EXPECT_TRUE(report.check.ok) << report.check.summary();
  EXPECT_TRUE(report.check.liveness_checked);
  for (ProcId p = 1; p < 6; ++p) {
    EXPECT_EQ(report.ranks[p].commit_prefix, report.slots) << "rank " << p;
  }
}

TEST(Log, StaleTokenWritesAreRejectedAndCounted) {
  // A latency spike holds view 0's batch in flight past the view
  // boundary: the deposed leader's commands arrive at ranks already
  // promised to view 1 and must be fenced -- rejected and counted, with
  // matching kStaleReject events.
  const PostalParams params(5, Rational(2));
  LogOptions options;
  options.commands = 3;
  // Probe the fault-free run for the instant view 0's leader starts its
  // batch, then delay exactly the sends in that window past the view
  // boundary -- the VC round before it is untouched, so the leader
  // acquires and writes, but its writes land on ranks already promised to
  // view 1.
  const LogReport probe = run_log(params, nullptr, options);
  Rational propose_at{-1};
  for (const LogEvent& e : probe.events) {
    if (e.kind == LogEvent::Kind::kPropose && e.view == 0) {
      propose_at = e.time;
      break;
    }
  }
  ASSERT_GE(propose_at, Rational(0));
  // The window must also cover the leader's repair wave (its point-to-point
  // re-proposals would otherwise rescue view 0 before the boundary).
  const LogOptions resolved = resolve_log_options(params, nullptr, options);
  FaultPlan plan;
  plan.spikes.push_back(LatencySpike{propose_at,
                                     propose_at + resolved.view_length,
                                     resolved.view_length * Rational(2)});
  const LogReport report = run_log(params, &plan, options);
  EXPECT_TRUE(report.check.ok) << report.check.summary();
  EXPECT_GT(report.counters.stale_rejects, 0U);
  std::uint64_t stale_events = 0;
  for (const LogEvent& e : report.events) {
    if (e.kind == LogEvent::Kind::kStaleReject) ++stale_events;
  }
  EXPECT_EQ(stale_events, report.counters.stale_rejects);
}

TEST(Log, LeaderCrashAfterAcceptKeepsTheAcceptedValue) {
  // The per-slot Paxos value rule: view 0's leader proposes the config
  // command "remove rank 4, active from view 2" and crashes at t = 29/2,
  // after a quorum accepted it but before every rank learned it. The
  // config value carries its activation view, so a view-1 leader that
  // dropped the reported accepted value would propose a fresh "active
  // from view 3" command for the same slot and break agreement.
  const PostalParams params(5, Rational(2));
  LogOptions options;
  options.commands = 1;
  options.reconfig.push_back(ReconfigRequest{4, Rational(1)});
  FaultPlan plan;
  plan.crashes.push_back(CrashFault{0, Rational(29, 2)});
  const LogReport report = run_log(params, &plan, options);
  EXPECT_TRUE(report.validation.ok) << report.validation.summary();
  EXPECT_TRUE(report.check.ok) << report.check.summary();
  EXPECT_TRUE(report.check.liveness_checked);
  EXPECT_GE(report.views_used, 1U);
  const std::uint32_t accepted = make_config_value(false, 2, 4);
  for (ProcId p = 1; p < 5; ++p) {
    ASSERT_EQ(report.ranks[p].commit_prefix, 2U) << "rank " << p;
    EXPECT_EQ(report.ranks[p].slots[0].value, 3000U) << "rank " << p;
    EXPECT_EQ(report.ranks[p].slots[1].value, accepted) << "rank " << p;
  }
}

TEST(Log, ByteIdenticalAcrossThreads) {
  const PostalParams params(9, Rational(5, 2));
  FaultPlan plan;
  plan.crashes.push_back(CrashFault{0, Rational(9, 2)});
  plan.crashes.push_back(CrashFault{4, Rational(40)});
  LogOptions base;
  base.commands = 4;
  base.reconfig.push_back(ReconfigRequest{6, Rational(15)});

  std::vector<LogReport> reports;
  for (const unsigned threads : {1U, 2U, 4U}) {
    LogOptions options = base;
    options.threads = threads;
    reports.push_back(run_log(params, &plan, options));
  }
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].events, reports[0].events) << "variant " << i;
    EXPECT_EQ(reports[i].ranks, reports[0].ranks) << "variant " << i;
    EXPECT_EQ(reports[i].counters, reports[0].counters) << "variant " << i;
    EXPECT_EQ(reports[i].result.schedule.events(),
              reports[0].result.schedule.events())
        << "variant " << i;
  }
  EXPECT_TRUE(reports[0].check.ok) << reports[0].check.summary();
}

TEST(Log, ValidatorFlagsFabricatedSlotDisagreement) {
  const PostalParams params(5, Rational(2));
  LogReport report = run_log(params);
  ASSERT_TRUE(report.check.ok);
  for (auto& e : report.events) {
    if (e.kind == LogEvent::Kind::kDecide && e.rank == 2 && e.slot == 1) {
      e.value = 9999;
    }
  }
  const CoordCheck tampered = check_log(report, params, nullptr);
  EXPECT_FALSE(tampered.ok);
  EXPECT_NE(tampered.summary().find("agreement"), std::string::npos)
      << tampered.summary();
}

TEST(Log, ValidatorFlagsLeaseOverlap) {
  const PostalParams params(5, Rational(2));
  LogReport report = run_log(params);
  ASSERT_TRUE(report.check.ok);
  // Fabricate a second lease inside the first one's interval.
  LogEvent fake;
  fake.kind = LogEvent::Kind::kLeaseAcquire;
  fake.rank = 3;
  fake.view = 1;
  for (const LogEvent& e : report.events) {
    if (e.kind == LogEvent::Kind::kLeaseAcquire) {
      fake.time = e.time;
      fake.until = e.until;
      break;
    }
  }
  report.events.push_back(fake);
  report.counters.lease_acquisitions += 1;
  const CoordCheck tampered = check_log(report, params, nullptr);
  EXPECT_FALSE(tampered.ok);
  EXPECT_NE(tampered.summary().find("lease overlap"), std::string::npos)
      << tampered.summary();
}

TEST(Log, ValidatorFlagsProposalOutsideLease) {
  const PostalParams params(5, Rational(2));
  LogReport report = run_log(params);
  ASSERT_TRUE(report.check.ok);
  for (auto& e : report.events) {
    if (e.kind == LogEvent::Kind::kPropose && e.slot == 2) {
      e.time = e.time + Rational(100000);  // way past the lease
    }
  }
  std::stable_sort(report.events.begin(), report.events.end(),
                   [](const LogEvent& a, const LogEvent& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.rank < b.rank;
                   });
  const CoordCheck tampered = check_log(report, params, nullptr);
  EXPECT_FALSE(tampered.ok);
  EXPECT_NE(tampered.summary().find("outside its lease"), std::string::npos)
      << tampered.summary();
}

}  // namespace
}  // namespace postal::coord
