// Tests for the postal-model schedule validator -- including *negative*
// tests: hand-built illegal schedules must be rejected with the right
// violation class, and legal ones accepted.
#include "sim/validator.hpp"

#include <gtest/gtest.h>

#include "sched/bcast.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace postal {
namespace {

PostalParams mps(std::uint64_t n, Rational lambda) { return {n, std::move(lambda)}; }

TEST(Validator, AcceptsMinimalBroadcast) {
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  const SimReport report = validate_schedule(s, mps(2, Rational(5, 2)));
  ASSERT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.makespan, Rational(5, 2));
  EXPECT_TRUE(report.order_preserving);
}

TEST(Validator, EmptyScheduleWithOneProcessorIsOk) {
  const SimReport report = validate_schedule(Schedule(), mps(1, Rational(2)));
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.makespan, Rational(0));
}

TEST(Validator, EmptyScheduleWithManyProcessorsFailsCoverage) {
  const SimReport report = validate_schedule(Schedule(), mps(3, Rational(2)));
  EXPECT_FALSE(report.ok);
}

TEST(Validator, DetectsSendPortConflict) {
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  s.add(0, 2, 0, Rational(1, 2));  // overlaps [0, 1)
  const SimReport report = validate_schedule(s, mps(3, Rational(2)));
  ASSERT_FALSE(report.ok);
  EXPECT_NE(report.summary().find("send port"), std::string::npos);
}

TEST(Validator, BackToBackSendsAreLegal) {
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  s.add(0, 2, 0, Rational(1));
  const SimReport report = validate_schedule(s, mps(3, Rational(2)));
  EXPECT_TRUE(report.ok) << report.summary();
}

TEST(Validator, DetectsReceivePortConflict) {
  Schedule s;
  s.add(0, 2, 0, Rational(0));
  s.add(1, 2, 1, Rational(1, 2));  // arrival windows overlap at p2
  ValidatorOptions options;
  options.messages = 2;
  options.require_coverage = false;
  // Give p1 message 1 by origin trickery: use per-message origins.
  options.origins = {0, 1};
  const SimReport report = validate_schedule(s, mps(3, Rational(2)), options);
  ASSERT_FALSE(report.ok);
  EXPECT_NE(report.summary().find("receive port"), std::string::npos);
}

TEST(Validator, SimultaneousSendAndReceiveAreLegal) {
  // p1 receives message 0 on [1, 2) while sending message 1 on [3/2, 5/2):
  // distinct ports, explicitly allowed by Definition 1.
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  s.add(1, 2, 1, Rational(3, 2));
  ValidatorOptions options;
  options.messages = 2;
  options.require_coverage = false;
  options.origins = {0, 1};
  const SimReport report = validate_schedule(s, mps(3, Rational(2)), options);
  EXPECT_TRUE(report.ok) << report.summary();
}

TEST(Validator, DetectsCausalityViolation) {
  // p1 forwards the message before it has fully received it.
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  s.add(1, 2, 0, Rational(3, 2));  // p1 holds it only from t = 2
  const SimReport report = validate_schedule(s, mps(3, Rational(2)));
  ASSERT_FALSE(report.ok);
  EXPECT_NE(report.summary().find("does not hold"), std::string::npos);
}

TEST(Validator, ForwardingAtExactArrivalIsLegal) {
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  s.add(1, 2, 0, Rational(2));  // exactly at arrival
  const SimReport report = validate_schedule(s, mps(3, Rational(2)));
  EXPECT_TRUE(report.ok) << report.summary();
}

TEST(Validator, DetectsMissingCoverage) {
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  const SimReport report = validate_schedule(s, mps(3, Rational(2)));
  ASSERT_FALSE(report.ok);
  EXPECT_NE(report.summary().find("never received"), std::string::npos);
}

TEST(Validator, CoverageCanBeDisabled) {
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  ValidatorOptions options;
  options.require_coverage = false;
  const SimReport report = validate_schedule(s, mps(3, Rational(2)), options);
  EXPECT_TRUE(report.ok) << report.summary();
}

TEST(Validator, DetectsOutOfRangeProcessor) {
  Schedule s;
  s.add(0, 7, 0, Rational(0));
  const SimReport report = validate_schedule(s, mps(3, Rational(2)));
  ASSERT_FALSE(report.ok);
  EXPECT_NE(report.summary().find("out of range"), std::string::npos);
}

TEST(Validator, DetectsOutOfRangeMessage) {
  Schedule s;
  s.add(0, 1, 5, Rational(0));
  ValidatorOptions options;
  options.messages = 2;
  options.require_coverage = false;
  const SimReport report = validate_schedule(s, mps(2, Rational(2)), options);
  ASSERT_FALSE(report.ok);
  EXPECT_NE(report.summary().find("message id out of range"), std::string::npos);
}

TEST(Validator, ReportsOrderViolationWithoutFailing) {
  // Delivering M2 before M1 is legal in the model; the report just flags
  // that the schedule is not order-preserving.
  Schedule s;
  s.add(0, 1, 1, Rational(0));
  s.add(0, 1, 0, Rational(1));
  ValidatorOptions options;
  options.messages = 2;
  const SimReport report = validate_schedule(s, mps(2, Rational(2)), options);
  ASSERT_TRUE(report.ok) << report.summary();
  EXPECT_FALSE(report.order_preserving);
}

TEST(Validator, PerMessageOriginsEnableAllToAll) {
  // p0 and p1 exchange their own messages simultaneously.
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  s.add(1, 0, 1, Rational(0));
  ValidatorOptions options;
  options.messages = 2;
  options.origins = {0, 1};
  const SimReport report = validate_schedule(s, mps(2, Rational(3)), options);
  EXPECT_TRUE(report.ok) << report.summary();
}

TEST(Validator, OriginsSizeMismatchThrows) {
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  ValidatorOptions options;
  options.messages = 2;
  options.origins = {0};  // must be one per message
  POSTAL_EXPECT_THROW(validate_schedule(s, mps(2, Rational(2)), options),
                      InvalidArgument);
}

TEST(Validator, RequiredDeliveriesChecked) {
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  ValidatorOptions options;
  options.messages = 2;
  options.required = {{1, 0}, {1, 1}};
  const SimReport report = validate_schedule(s, mps(3, Rational(2)), options);
  ASSERT_FALSE(report.ok);
  EXPECT_NE(report.summary().find("required M2"), std::string::npos);
}

TEST(Validator, MutatedOptimalSchedulesAreRejected) {
  // Property test: take a known-good BCAST schedule and mutate one event's
  // time to an earlier instant; the validator must catch the (send-port or
  // causality) breach in the overwhelming majority of mutations -- and must
  // never report a *smaller* makespan than the original.
  const PostalParams params = mps(34, Rational(5, 2));
  const Schedule good = bcast_schedule(params);
  const SimReport good_report = validate_schedule(good, params);
  ASSERT_TRUE(good_report.ok);

  Xoshiro256 rng(2024);
  std::uint64_t rejected = 0;
  const std::uint64_t trials = 60;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    Schedule mutated;
    const std::size_t victim = rng.uniform(0, good.size() - 1);
    for (std::size_t i = 0; i < good.size(); ++i) {
      SendEvent e = good.events()[i];
      if (i == victim) {
        // Pull the send earlier by half a unit (or to 0).
        e.t = e.t < Rational(1, 2) ? Rational(0) : e.t - Rational(1, 2);
        if (e.t == good.events()[i].t) continue;
      }
      mutated.add(e);
    }
    const SimReport report = validate_schedule(mutated, params);
    if (!report.ok) ++rejected;
  }
  // Moving a send earlier must essentially always break either causality
  // (it precedes the arrival that enabled it) or a port window.
  EXPECT_GE(rejected, trials * 9 / 10);
}

TEST(Validator, CrashedProcessorIsExemptFromCoverage) {
  // A truncated schedule (nobody ever sends to p2) is legal ONLY when the
  // validator is told p2 crashed; without the crash set the same schedule
  // must fail coverage -- callers cannot silently excuse missing processors.
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  const PostalParams params = mps(3, Rational(2));

  ValidatorOptions with_crash;
  with_crash.crashes = {CrashFault{2, Rational(0)}};
  const SimReport accepted = validate_schedule(s, params, with_crash);
  EXPECT_TRUE(accepted.ok) << accepted.summary();

  const SimReport rejected = validate_schedule(s, params);
  EXPECT_FALSE(rejected.ok);
  EXPECT_NE(rejected.summary().find("p2"), std::string::npos);
}

TEST(Validator, TruncatedBcastScheduleNeedsTheCrashSet) {
  // Crash the root's first relay and truncate exactly what the crash
  // forbids: every send of the relay starting at or after the crash, and
  // (coverage-wise) everything its subtree would have received.
  const Rational lambda(2);
  const PostalParams params = mps(16, lambda);
  const Schedule full = bcast_schedule(params);
  GenFib fib(lambda);
  const auto relay = static_cast<ProcId>(fib.bcast_split(params.n()));
  const Rational crash_at = lambda;  // its copy arrives exactly then: void

  Schedule truncated;
  for (const SendEvent& e : full.events()) {
    if (e.src >= relay && e.t >= crash_at) continue;  // the orphaned subtree
    truncated.add(e);
  }
  // With the whole subtree declared crashed, the truncation is legal.
  ValidatorOptions subtree_dead;
  for (ProcId p = relay; p < params.n(); ++p)
    subtree_dead.crashes.push_back(CrashFault{p, crash_at});
  const SimReport accepted = validate_schedule(truncated, params, subtree_dead);
  EXPECT_TRUE(accepted.ok) << accepted.summary();

  // Without any crash set, the truncated schedule fails coverage.
  EXPECT_FALSE(validate_schedule(truncated, params).ok);

  // Knowing only about the relay still leaves its orphans uncovered.
  ValidatorOptions relay_only;
  relay_only.crashes = {CrashFault{relay, crash_at}};
  EXPECT_FALSE(validate_schedule(truncated, params, relay_only).ok);
}

TEST(Validator, DeliveryAtOrAfterReceiverCrashIsVoid) {
  Schedule s;
  s.add(0, 1, 0, Rational(0));  // arrives at lambda = 2
  const PostalParams params = mps(2, Rational(2));

  ValidatorOptions crashed_on_arrival;
  crashed_on_arrival.crashes = {CrashFault{1, Rational(2)}};
  const SimReport voided = validate_schedule(s, params, crashed_on_arrival);
  EXPECT_TRUE(voided.ok) << voided.summary();  // p1 dead => exempt
  EXPECT_TRUE(voided.trace.deliveries().empty());
  EXPECT_EQ(voided.makespan, Rational(0));

  ValidatorOptions crashed_after;
  crashed_after.crashes = {CrashFault{1, Rational(5, 2)}};
  const SimReport landed = validate_schedule(s, params, crashed_after);
  EXPECT_TRUE(landed.ok) << landed.summary();
  ASSERT_EQ(landed.trace.deliveries().size(), 1u);
  EXPECT_EQ(landed.makespan, Rational(2));
}

TEST(Validator, SendAtOrAfterSenderCrashIsAViolation) {
  const PostalParams params = mps(2, Rational(2));
  Schedule s;
  s.add(0, 1, 0, Rational(1));
  ValidatorOptions options;
  options.crashes = {CrashFault{0, Rational(1)}};
  const SimReport report = validate_schedule(s, params, options);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.summary().find("crashed"), std::string::npos);

  // Starting strictly before the crash is fine (the message still leaves).
  Schedule before;
  before.add(0, 1, 0, Rational(1, 2));
  options.crashes = {CrashFault{0, Rational(1)}};
  const SimReport ok_report = validate_schedule(before, params, options);
  EXPECT_TRUE(ok_report.ok) << ok_report.summary();
}

TEST(Validator, FifoReceiveSerializesWhatStrictModeRejects) {
  // Two senders hit p2 with overlapping receive windows: [4, 5) from the
  // t=3 send and [9/2, 11/2) from the t=7/2 send.
  const PostalParams params = mps(3, Rational(2));
  Schedule s;
  s.add(0, 1, 0, Rational(0));      // p1 holds the message at t=2
  s.add(1, 2, 0, Rational(3));      // arrives 5
  s.add(0, 2, 0, Rational(7, 2));   // nominal arrival 11/2 -- collides

  const SimReport strict = validate_schedule(s, params);
  EXPECT_FALSE(strict.ok);
  EXPECT_NE(strict.summary().find("receive port"), std::string::npos);

  ValidatorOptions fifo;
  fifo.fifo_receive = true;
  const SimReport relaxed = validate_schedule(s, params, fifo);
  EXPECT_TRUE(relaxed.ok) << relaxed.summary();
  // The collided delivery is pushed behind the busy port: [5, 6).
  EXPECT_EQ(relaxed.makespan, Rational(6));
}

TEST(Validator, SummaryListsEachViolation) {
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  s.add(0, 2, 0, Rational(0));  // port conflict AND p2's double use
  const SimReport report = validate_schedule(s, mps(4, Rational(2)));
  ASSERT_FALSE(report.ok);
  EXPECT_NE(report.summary().find("violation"), std::string::npos);
  EXPECT_GE(report.violations.size(), 2u);  // port + missing coverage for p3
}

// The exact violation strings, on both time paths. Each port keeps only
// its last accepted window, so these pin both the text and which window a
// clash quotes.
std::vector<std::string> violations_on_both_paths(const Schedule& s,
                                                  const PostalParams& params,
                                                  ValidatorOptions options = {}) {
  const SimReport fast = validate_schedule(s, params, options);
  EXPECT_TRUE(fast.tick_domain);
  options.time_path = TimePath::kRational;
  const SimReport reference = validate_schedule(s, params, options);
  EXPECT_EQ(fast.violations, reference.violations);
  EXPECT_EQ(fast.trace.deliveries(), reference.trace.deliveries());
  return fast.violations;
}

TEST(Validator, SendPortClashStringsQuoteTheAcceptedWindow) {
  // The t=1/2 send clashes with [0, 1) and is not stored, so the t=1 send
  // fits right after the first one.
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  s.add(0, 2, 0, Rational(1, 2));
  s.add(0, 3, 0, Rational(1));
  EXPECT_EQ(violations_on_both_paths(s, mps(4, Rational(2))),
            std::vector<std::string>{
                "[p0 -> p2 : M1 @ t=1/2] send port of p0 already busy on [0, 1)"});

  // A fourth send at t=3/2 then clashes with the t=1 window.
  s.add(0, 1, 0, Rational(3, 2));
  EXPECT_EQ(violations_on_both_paths(s, mps(4, Rational(2))),
            (std::vector<std::string>{
                "[p0 -> p2 : M1 @ t=1/2] send port of p0 already busy on [0, 1)",
                "[p0 -> p1 : M1 @ t=3/2] send port of p0 already busy on [1, 2)"}));
}

TEST(Validator, ReceivePortClashStringQuotesTheAcceptedWindow) {
  Schedule s;
  s.add(0, 2, 0, Rational(0));
  s.add(1, 2, 1, Rational(1, 2));
  ValidatorOptions options;
  options.messages = 2;
  options.require_coverage = false;
  options.origins = {0, 1};
  EXPECT_EQ(violations_on_both_paths(s, mps(3, Rational(2)), options),
            std::vector<std::string>{
                "[p1 -> p2 : M2 @ t=1/2] receive port of p2 already busy on [1, 2)"});
}

TEST(Validator, WideTickSpanMatchesTheRationalPath) {
  // Out of time order and 2^40 apart: the tick path must still visit them
  // in time order and agree with the Rational path.
  const Rational far(std::int64_t{1} << 40);
  Schedule s;
  s.add(1, 2, 0, far);
  s.add(0, 1, 0, Rational(0));
  const PostalParams params = mps(3, Rational(5, 2));
  EXPECT_TRUE(violations_on_both_paths(s, params).empty());
  const SimReport report = validate_schedule(s, params);
  ASSERT_TRUE(report.ok) << report.summary();
  ASSERT_EQ(report.trace.deliveries().size(), 2u);
  EXPECT_EQ(report.trace.deliveries()[0].dst, 1u);
  EXPECT_EQ(report.makespan, far + Rational(5, 2));

  // Swapped times break causality; the string quotes the late hold.
  Schedule late;
  late.add(0, 1, 0, far);
  late.add(1, 2, 0, Rational(0));
  ValidatorOptions no_coverage;
  no_coverage.require_coverage = false;
  EXPECT_EQ(violations_on_both_paths(late, params, no_coverage),
            std::vector<std::string>{
                "[p1 -> p2 : M1 @ t=0] sender does not hold the message yet"});
}

}  // namespace
}  // namespace postal
