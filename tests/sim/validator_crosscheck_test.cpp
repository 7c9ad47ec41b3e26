// Cross-validation of the validator itself: an independent, deliberately
// naive O(E^2) reference implementation of the postal-model rules is run
// against validate_schedule on (a) every algorithm's schedules and (b) a
// fuzz corpus of randomly mutated schedules. The two implementations must
// agree on accept/reject everywhere.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "sched/registry.hpp"
#include "sim/validator.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace postal {
namespace {

/// Reference rules, written as directly from Definitions 1-2 as possible:
/// pairwise interval checks and a fixpoint for causality. No port state,
/// no event sorting tricks.
bool reference_valid(const Schedule& schedule, const PostalParams& params,
                     std::uint32_t messages, bool require_coverage) {
  const std::uint64_t n = params.n();
  const Rational& lambda = params.lambda();
  const auto& events = schedule.events();

  for (const SendEvent& e : events) {
    if (e.src >= n || e.dst >= n || e.msg >= messages) return false;
  }
  // Send-port: same source, |t1 - t2| >= 1. Receive-port: same dest,
  // |a1 - a2| >= 1 (arrivals are t + lambda).
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      const auto& a = events[i];
      const auto& b = events[j];
      const Rational dt = a.t < b.t ? b.t - a.t : a.t - b.t;
      if (a.src == b.src && dt < Rational(1)) return false;
      if (a.dst == b.dst && dt < Rational(1)) return false;
    }
  }
  // Causality by fixpoint: start with the origin holding everything and
  // repeatedly mark deliveries whose sender already held the message early
  // enough, until nothing changes. Then every event must be marked.
  std::vector<std::optional<Rational>> holds(n * messages);
  for (MsgId msg = 0; msg < messages; ++msg) holds[0 * messages + msg] = Rational(0);
  std::vector<bool> justified(events.size(), false);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (justified[i]) continue;
      const auto& e = events[i];
      const auto& held = holds[e.src * messages + e.msg];
      if (held.has_value() && *held <= e.t) {
        justified[i] = true;
        auto& dst = holds[e.dst * messages + e.msg];
        const Rational arrive = e.t + lambda;
        if (!dst.has_value() || arrive < *dst) dst = arrive;
        changed = true;
      }
    }
  }
  if (!std::all_of(justified.begin(), justified.end(), [](bool b) { return b; })) {
    return false;
  }
  if (require_coverage) {
    for (std::uint64_t p = 1; p < n; ++p) {
      for (MsgId msg = 0; msg < messages; ++msg) {
        if (!holds[p * messages + msg].has_value()) return false;
      }
    }
  }
  return true;
}

bool library_valid(const Schedule& schedule, const PostalParams& params,
                   std::uint32_t messages, bool require_coverage) {
  ValidatorOptions options;
  options.messages = messages;
  options.require_coverage = require_coverage;
  return validate_schedule(schedule, params, options).ok;
}

TEST(ValidatorCrosscheck, AgreesOnEveryAlgorithmSchedule) {
  for (const Rational lambda : {Rational(1), Rational(5, 2), Rational(4)}) {
    for (const std::uint64_t n : {2ULL, 9ULL, 20ULL}) {
      const PostalParams params(n, lambda);
      for (const std::uint64_t m : {1ULL, 3ULL, 6ULL}) {
        for (const MultiAlgo algo : all_multi_algos()) {
          const Schedule s = make_multi_schedule(algo, params, m);
          const auto msgs = static_cast<std::uint32_t>(m);
          EXPECT_TRUE(reference_valid(s, params, msgs, true))
              << algo_name(algo) << " n=" << n << " m=" << m;
          EXPECT_TRUE(library_valid(s, params, msgs, true))
              << algo_name(algo) << " n=" << n << " m=" << m;
        }
      }
    }
  }
}

TEST(ValidatorCrosscheck, AgreesOnFuzzedMutants) {
  // Mutate known-good schedules with random perturbations; the two
  // implementations must return identical verdicts on every mutant.
  Xoshiro256 rng(777);
  std::uint64_t rejected = 0;
  std::uint64_t accepted = 0;
  for (const Rational lambda : {Rational(2), Rational(5, 2)}) {
    const PostalParams params(12, lambda);
    const std::uint32_t m = 3;
    const Schedule base = make_multi_schedule(MultiAlgo::kPipeline, params, m);
    for (int trial = 0; trial < 200; ++trial) {
      Schedule mutant;
      const std::size_t victim = rng.uniform(0, base.size() - 1);
      const std::uint64_t mode = rng.uniform(0, 3);
      for (std::size_t i = 0; i < base.size(); ++i) {
        SendEvent e = base.events()[i];
        if (i == victim) {
          switch (mode) {
            case 0: {  // jitter the time by a random quarter multiple
              const auto k = static_cast<std::int64_t>(rng.uniform(0, 8));
              const Rational delta(k - 4, 4);
              if (e.t + delta < Rational(0)) break;
              e.t += delta;
              break;
            }
            case 1:  // retarget the send
              e.dst = static_cast<ProcId>(rng.uniform(0, params.n() - 1));
              if (e.dst == e.src) e.dst = (e.dst + 1) % static_cast<ProcId>(params.n());
              break;
            case 2:  // change the message id
              e.msg = static_cast<MsgId>(rng.uniform(0, m - 1));
              break;
            default:  // drop the event entirely
              continue;
          }
        }
        mutant.add(e);
      }
      const bool lib = library_valid(mutant, params, m, true);
      const bool ref = reference_valid(mutant, params, m, true);
      EXPECT_EQ(lib, ref) << "trial=" << trial << " mode=" << mode
                          << " victim=" << victim;
      (lib ? accepted : rejected) += 1;
    }
  }
  // The corpus must exercise both outcomes for the agreement to mean much.
  EXPECT_GT(rejected, 50u);
  EXPECT_GT(accepted, 5u);
}

TEST(ValidatorCrosscheck, AgreesOnHandCraftedEdgeCases) {
  const PostalParams params(4, Rational(5, 2));
  struct Case {
    const char* what;
    Schedule schedule;
    bool coverage;
  };
  std::vector<Case> cases;
  {
    Case c{"exactly abutting sends", {}, false};
    c.schedule.add(0, 1, 0, Rational(0));
    c.schedule.add(0, 2, 0, Rational(1));
    cases.push_back(std::move(c));
  }
  {
    Case c{"exactly abutting receives", {}, false};
    c.schedule.add(0, 3, 0, Rational(0));
    c.schedule.add(1, 3, 0, Rational(1));  // p1 does not hold the message
    cases.push_back(std::move(c));
  }
  {
    Case c{"forward at exact arrival", {}, false};
    c.schedule.add(0, 1, 0, Rational(0));
    c.schedule.add(1, 2, 0, Rational(5, 2));
    cases.push_back(std::move(c));
  }
  {
    Case c{"forward a hair early", {}, false};
    c.schedule.add(0, 1, 0, Rational(0));
    c.schedule.add(1, 2, 0, Rational(9, 4));
    cases.push_back(std::move(c));
  }
  {
    Case c{"causality needs out-of-order discovery", {}, false};
    // Listed out of time order on purpose.
    c.schedule.add(1, 2, 0, Rational(5, 2));
    c.schedule.add(0, 1, 0, Rational(0));
    cases.push_back(std::move(c));
  }
  for (const auto& c : cases) {
    EXPECT_EQ(library_valid(c.schedule, params, 1, c.coverage),
              reference_valid(c.schedule, params, 1, c.coverage))
        << c.what;
  }
}

}  // namespace
}  // namespace postal
