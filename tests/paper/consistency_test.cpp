// Cross-component consistency properties: independent implementations in
// different modules must agree wherever their domains overlap.
#include <gtest/gtest.h>

#include "adaptive/hetero.hpp"
#include "adaptive/hierarchical.hpp"
#include "adaptive/time_varying.hpp"
#include "model/genfib.hpp"
#include "net/calibrate.hpp"
#include "sched/bcast.hpp"
#include "sched/kported.hpp"
#include "sched/logp_machine.hpp"
#include "sched/pipeline.hpp"
#include "sched/registry.hpp"
#include "sim/validator.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace postal {
namespace {

TEST(Consistency, HeteroSimulatorAgreesWithHomogeneousValidator) {
  // On a uniform matrix, simulate_hetero and validate_schedule must agree
  // on validity and completion for any single-message schedule.
  Xoshiro256 rng(55);
  for (const Rational lambda : {Rational(2), Rational(5, 2)}) {
    const PostalParams params(16, lambda);
    const HeteroLatency lat = HeteroLatency::uniform(16, lambda);
    const Schedule good = bcast_schedule(params);
    const SimReport homo = validate_schedule(good, params);
    const HeteroSimReport hetero = simulate_hetero(good, lat);
    ASSERT_TRUE(homo.ok);
    ASSERT_TRUE(hetero.ok);
    EXPECT_EQ(homo.makespan, hetero.completion);
    // And on random mutants, the accept/reject verdicts coincide.
    for (int trial = 0; trial < 40; ++trial) {
      Schedule mutant;
      const std::size_t victim = rng.uniform(0, good.size() - 1);
      for (std::size_t i = 0; i < good.size(); ++i) {
        SendEvent e = good.events()[i];
        if (i == victim) {
          const auto k = static_cast<std::int64_t>(rng.uniform(0, 6));
          const Rational delta(k - 3, 2);
          if (e.t + delta >= Rational(0)) e.t += delta;
        }
        mutant.add(e);
      }
      EXPECT_EQ(validate_schedule(mutant, params).ok, simulate_hetero(mutant, lat).ok)
          << "trial=" << trial;
    }
  }
}

/// `good` with one seeded fault: a send shifted by a multiple of unit/2,
/// dropped, duplicated, or moved to another receiver or sender (ids may
/// fall out of range by one).
Schedule seeded_mutant(const Schedule& good, std::uint64_t n, const Rational& unit,
                       Xoshiro256& rng) {
  const std::vector<SendEvent> events = good.events();
  const std::size_t victim = rng.uniform(0, events.size() - 1);
  const std::uint64_t kind = rng.uniform(0, 4);
  const auto other = [&](ProcId avoid) {
    const auto p = static_cast<ProcId>(rng.uniform(0, n));
    return p == avoid ? static_cast<ProcId>((p + 1) % (n + 1)) : p;
  };
  Schedule mutant;
  for (std::size_t i = 0; i < events.size(); ++i) {
    SendEvent e = events[i];
    if (i == victim) {
      if (kind == 0) {
        const Rational delta =
            Rational(static_cast<std::int64_t>(rng.uniform(0, 6)) - 3, 2) * unit;
        if (e.t + delta >= Rational(0)) e.t += delta;
      }
      if (kind == 1) continue;
      if (kind == 2) mutant.add(e);
      if (kind == 3) e.dst = other(e.src);
      if (kind == 4) e.src = other(e.dst);
    }
    mutant.add(e);
  }
  return mutant;
}

TEST(Consistency, TwoLevelSimulatorAgreesOnUniformLatency) {
  const TwoLevelParams two{20, 5, Rational(3), Rational(3)};
  const PostalParams params(20, Rational(3));
  const Schedule s = bcast_schedule(params);
  const HeteroReport a = simulate_two_level(s, two);
  const SimReport b = validate_schedule(s, params);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.completion, b.makespan);
  // And on seeded mutants, the verdicts and valid completions coincide.
  Xoshiro256 rng(53);
  int accepted = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const Schedule mutant = seeded_mutant(s, two.n, Rational(1), rng);
    const HeteroReport ma = simulate_two_level(mutant, two);
    const SimReport mb = validate_schedule(mutant, params);
    ASSERT_EQ(ma.ok, mb.ok) << "trial=" << trial << "\n" << mutant;
    // Both report one violation per broken clause per send, and one per
    // uninformed rank.
    EXPECT_EQ(ma.violations.size(), mb.violations.size()) << "trial=" << trial;
    if (ma.ok) {
      EXPECT_EQ(ma.completion, mb.makespan) << "trial=" << trial;
      ++accepted;
    }
  }
  // The corpus holds both verdicts.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 60);
}

TEST(Consistency, TwoLevelRuleAndItsMatrixAgree) {
  // The two lambda forms of one two-level system: the cluster rule of
  // simulate_two_level and the n x n matrix of simulate_hetero.
  Xoshiro256 rng(54);
  int accepted = 0;
  for (const TwoLevelParams& p :
       {TwoLevelParams{14, 4, Rational(3, 2), Rational(5)},
        TwoLevelParams{24, 6, Rational(1), Rational(4)},
        TwoLevelParams{17, 1, Rational(2), Rational(7, 3)},
        TwoLevelParams{20, 20, Rational(3), Rational(3)}}) {
    const HeteroLatency lat =
        HeteroLatency::two_level(p.n, p.cluster_size, p.lambda_intra, p.lambda_inter);
    const Schedule good = hierarchical_two_level_schedule(p);
    for (int trial = 0; trial < 40; ++trial) {
      const Schedule s = trial == 0 ? good : seeded_mutant(good, p.n, Rational(1), rng);
      const HeteroReport rule = simulate_two_level(s, p);
      const HeteroSimReport matrix = simulate_hetero(s, lat);
      EXPECT_EQ(rule.ok, matrix.ok) << "n=" << p.n << " trial=" << trial;
      EXPECT_EQ(rule.completion, matrix.completion) << "n=" << p.n << " trial=" << trial;
      EXPECT_EQ(rule.violations, matrix.violations) << "n=" << p.n << " trial=" << trial;
      accepted += rule.ok ? 1 : 0;
    }
  }
  // Beyond the four unmutated schedules, some mutants pass, and most fail.
  EXPECT_GT(accepted, 4);
  EXPECT_LT(accepted, 80);
}

TEST(Consistency, LogPValidatorIsThePostalValidatorInUnitsOfG) {
  // logp_machine.hpp's constructive claim: a LogP machine is a postal
  // system with time unit G = max(o, g) and lambda = (L + 2o)/G. A LogP
  // schedule scaled by 1/G gets the same verdict and the same number of
  // violations from validate_schedule (one per broken clause per send, one
  // per uninformed rank), and a valid one completes at G times the postal
  // makespan.
  Xoshiro256 rng(55);
  int accepted = 0;
  int rejected = 0;
  for (const LogPParams& logp :
       {LogPParams{Rational(4), Rational(1), Rational(2), 14},
        LogPParams{Rational(6), Rational(3), Rational(1), 20},
        LogPParams{Rational(5, 2), Rational(1, 2), Rational(1), 17},
        LogPParams{Rational(7), Rational(1), Rational(3, 2), 30}}) {
    const Rational gap = logp.effective_gap();
    const PostalParams postal(logp.P, logp.postal_lambda());
    const Schedule good = logp_bcast_schedule(logp);
    for (int trial = 0; trial < 40; ++trial) {
      const Schedule s = trial == 0 ? good : seeded_mutant(good, logp.P, gap, rng);
      Schedule scaled;
      for (const SendEvent& e : s.events()) scaled.add(e.src, e.dst, e.msg, e.t / gap);
      const LogPReport a = validate_logp_schedule(s, logp);
      const SimReport b = validate_schedule(scaled, postal);
      ASSERT_EQ(a.ok, b.ok) << "P=" << logp.P << " trial=" << trial << "\n" << s;
      EXPECT_EQ(a.violations.size(), b.violations.size())
          << "P=" << logp.P << " trial=" << trial;
      if (trial == 0) {
        EXPECT_TRUE(a.ok) << "P=" << logp.P;
      }
      if (a.ok) {
        EXPECT_EQ(a.completion, gap * b.makespan) << "P=" << logp.P;
      }
      ++(a.ok ? accepted : rejected);
    }
  }
  // Beyond the four unmutated schedules, some mutants pass and some fail.
  EXPECT_GT(accepted, 4);
  EXPECT_GT(rejected, 0);
}

TEST(Consistency, AdaptiveConstantProfileMatchesScheduleGenerator) {
  // adaptive_broadcast on a constant profile must produce the exact BCAST
  // schedule (not just the same completion).
  for (const Rational lambda : {Rational(2), Rational(5, 2), Rational(4)}) {
    const AdaptiveRunResult run = adaptive_broadcast(
        30, LatencyProfile::constant(lambda), AdaptPolicy::kStatic);
    const Schedule expected = bcast_schedule(PostalParams(30, lambda));
    EXPECT_EQ(run.schedule.events(), expected.events()) << "lambda=" << lambda.str();
  }
}

TEST(Consistency, KPortedValidatorAgreesWithSinglePortValidatorAtKOne) {
  Xoshiro256 rng(66);
  const PostalParams params(14, Rational(5, 2));
  const Schedule good = bcast_schedule(params);
  for (int trial = 0; trial < 40; ++trial) {
    Schedule mutant;
    const std::size_t victim = rng.uniform(0, good.size() - 1);
    for (std::size_t i = 0; i < good.size(); ++i) {
      SendEvent e = good.events()[i];
      if (i == victim) {
        const auto k = static_cast<std::int64_t>(rng.uniform(0, 4));
        const Rational delta(k - 2, 2);
        if (e.t + delta >= Rational(0)) e.t += delta;
      }
      mutant.add(e);
    }
    EXPECT_EQ(validate_schedule(mutant, params).ok,
              validate_kported(mutant, params, 1).ok)
        << "trial=" << trial;
  }
}

TEST(Consistency, PipelineReplaysExactlyOnPostalEquivalentNetwork) {
  // A multi-message PIPELINE schedule must transfer exactly to a complete
  // graph configured to realize the postal model (as E13 shows for BCAST).
  const Rational lambda(4);
  const PostalParams params(12, lambda);
  const std::uint64_t m = 6;
  const Schedule schedule = pipeline_schedule(params, m);
  NetConfig config;  // send = recv = wire = 1; prop = lambda - 3
  PacketNetwork net(Topology::complete(12, lambda - Rational(3)), config);
  const ReplayReport report =
      replay_schedule(net, schedule, predict_pipeline(lambda, 12, m));
  EXPECT_EQ(report.observed, report.predicted);
  EXPECT_EQ(report.deliveries, schedule.size());
}

TEST(Consistency, EveryMultiAlgoReplaysWithinItsPredictionOnTheWire) {
  // On the postal-equivalent network, no algorithm may finish *later* than
  // its postal prediction (earlier is impossible too, but exactness for
  // expanded multi-message receive patterns is the claim).
  const Rational lambda(4);
  const PostalParams params(10, lambda);
  NetConfig config;  // send + wire + prop + recv = 1+1+1+1 = lambda
  for (const MultiAlgo algo : all_multi_algos()) {
    PacketNetwork net(Topology::complete(10, lambda - Rational(3)), config);
    const Schedule schedule = make_multi_schedule(algo, params, 4);
    const ReplayReport report =
        replay_schedule(net, schedule, predict_multi(algo, params, 4));
    EXPECT_EQ(report.observed, report.predicted) << algo_name(algo);
  }
}

}  // namespace
}  // namespace postal
