// Cross-validation of the validators themselves: an independent,
// deliberately naive O(E^2) reference implementation of the postal-model
// rules is run against validate_schedule on (a) every algorithm's
// schedules and (b) a fuzz corpus of randomly mutated schedules, and
// against the Section 5 variants' validators (validate_kported,
// validate_logp_schedule, simulate_hetero, simulate_two_level) on their
// own generators' schedules and seeded mutants. The implementations must
// agree on accept/reject everywhere.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "adaptive/hetero.hpp"
#include "adaptive/hierarchical.hpp"
#include "sched/kported.hpp"
#include "sched/logp_machine.hpp"
#include "sched/registry.hpp"
#include "sim/validator.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace postal {
namespace {

/// The rules a reference judges by: n ranks with p0 the origin, k send
/// ports, port windows of length w, lambda(src, dst), and `messages` ids
/// (0: the Section 5 variants' single message, whose id is never read).
struct RefModel {
  std::uint64_t n = 0;
  std::uint64_t ports = 1;
  Rational window{1};
  std::function<Rational(ProcId, ProcId)> lambda;
  std::uint32_t messages = 0;
};

/// Reference rules, written as directly from Definitions 1-2 as possible:
/// pairwise interval checks and a fixpoint for causality. No port state,
/// no event sorting tricks.
bool reference_model_valid(const Schedule& schedule, const RefModel& model,
                           bool require_coverage) {
  const std::uint64_t n = model.n;
  const Rational& w = model.window;
  const std::uint32_t columns = std::max<std::uint32_t>(model.messages, 1);
  const auto cell = [&model, columns](ProcId p, MsgId msg) {
    return std::size_t{p} * columns + (model.messages == 0 ? 0 : msg);
  };
  const auto& events = schedule.events();

  for (const SendEvent& e : events) {
    if (e.src >= n || e.dst >= n) return false;
    if (model.messages != 0 && e.msg >= model.messages) return false;
  }
  // Send port: at no send start are more than k of the source's windows
  // [t, t+w) open. Receive port: windows [a-w, a) at one destination are
  // pairwise disjoint, |a1 - a2| >= w (arrivals are a = t + lambda).
  for (std::size_t i = 0; i < events.size(); ++i) {
    std::uint64_t open = 0;
    for (std::size_t j = 0; j < events.size(); ++j) {
      const auto& a = events[i];
      const auto& b = events[j];
      if (a.src == b.src && b.t <= a.t && a.t < b.t + w) ++open;
      if (j <= i || a.dst != b.dst) continue;
      const Rational arrive_a = a.t + model.lambda(a.src, a.dst);
      const Rational arrive_b = b.t + model.lambda(b.src, b.dst);
      const Rational da = arrive_a < arrive_b ? arrive_b - arrive_a : arrive_a - arrive_b;
      if (da < w) return false;
    }
    if (open > model.ports) return false;
  }
  // Causality by fixpoint: start with the origin holding everything and
  // repeatedly mark deliveries whose sender already held the message early
  // enough, until nothing changes. Then every event must be marked.
  std::vector<std::optional<Rational>> holds(n * columns);
  for (MsgId msg = 0; msg < columns; ++msg) holds[cell(0, msg)] = Rational(0);
  std::vector<bool> justified(events.size(), false);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (justified[i]) continue;
      const auto& e = events[i];
      const auto& held = holds[cell(e.src, e.msg)];
      if (held.has_value() && *held <= e.t) {
        justified[i] = true;
        auto& dst = holds[cell(e.dst, e.msg)];
        const Rational arrive = e.t + model.lambda(e.src, e.dst);
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
      for (MsgId msg = 0; msg < columns; ++msg) {
        if (!holds[cell(static_cast<ProcId>(p), msg)].has_value()) return false;
      }
    }
  }
  return true;
}

/// The postal model MPS(n, lambda) with `messages` message ids.
bool reference_valid(const Schedule& schedule, const PostalParams& params,
                     std::uint32_t messages, bool require_coverage) {
  const Rational lambda = params.lambda();
  return reference_model_valid(
      schedule,
      {params.n(), 1, Rational(1), [lambda](ProcId, ProcId) { return lambda; }, messages},
      require_coverage);
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

// --- The Section 5 variants ------------------------------------------------
//
// Each variant's validator against the same reference, read with the
// variant's k, w and lambda(src, dst), on its generator's schedule and on
// seeded mutants of it.

/// One variant instance: a label, the rules it is judged by, a valid base
/// schedule and its validator's verdict.
struct VariantCase {
  std::string label;
  RefModel model;
  Schedule base;
  std::function<ModelReport(const Schedule&)> check;
};

VariantCase kported_case(std::uint64_t n, const Rational& lambda, std::uint64_t k) {
  const PostalParams params(n, lambda);
  return {"kported n=" + std::to_string(n) + " k=" + std::to_string(k),
          {n, k, Rational(1), [lambda](ProcId, ProcId) { return lambda; }},
          kported_bcast_schedule(params, k),
          [params, k](const Schedule& s) { return validate_kported(s, params, k); }};
}

VariantCase logp_case(const LogPParams& params) {
  const Rational usable_after = Rational(2) * params.o + params.L;
  return {"logp P=" + std::to_string(params.P),
          {params.P, 1, params.effective_gap(),
           [usable_after](ProcId, ProcId) { return usable_after; }},
          logp_bcast_schedule(params),
          [params](const Schedule& s) { return validate_logp_schedule(s, params); }};
}

VariantCase hetero_case(const std::string& what, const HeteroLatency& lat) {
  return {"hetero " + what + " n=" + std::to_string(lat.n()),
          {lat.n(), 1, Rational(1),
           [lat](ProcId a, ProcId b) { return lat.lambda(a, b); }},
          hetero_greedy_broadcast(lat),
          [lat](const Schedule& s) { return simulate_hetero(s, lat); }};
}

VariantCase two_level_case(const TwoLevelParams& params) {
  return {"two-level n=" + std::to_string(params.n) +
              " c=" + std::to_string(params.cluster_size),
          {params.n, 1, Rational(1),
           [params](ProcId a, ProcId b) { return params.lambda(a, b); }},
          hierarchical_two_level_schedule(params),
          [params](const Schedule& s) { return simulate_two_level(s, params); }};
}

/// `base` with one event perturbed: its time jittered by a quarter
/// multiple, its receiver or its sender replaced, its message id changed
/// (the variants never read it), duplicated, dropped, or followed by a
/// second send of its sender to another rank, up to four units later. Or
/// `base` plus two sends to one rank from two others once every rank is
/// informed and idle, the second up to two units after the first: under a
/// latency that varies by link, the second window often lands before the
/// first.
Schedule mutate_variant(const Schedule& base, const RefModel& model, Xoshiro256& rng) {
  const std::uint64_t n = model.n;
  const std::vector<SendEvent> events = base.events();
  const std::size_t victim = rng.uniform(0, events.size() - 1);
  const std::uint64_t mode = rng.uniform(0, 7);
  const auto other_than = [&rng, n](ProcId p) {
    const auto q = static_cast<ProcId>(rng.uniform(0, n - 2));
    return q >= p ? q + 1 : q;
  };
  Schedule out;
  if (mode == 6) {
    Rational idle(0);
    for (const SendEvent& e : events) {
      idle = rmax(idle, rmax(e.t + model.window, e.t + model.lambda(e.src, e.dst)));
    }
    const ProcId dst = static_cast<ProcId>(rng.uniform(0, n - 1));
    const ProcId first = other_than(dst);
    ProcId second = other_than(dst);
    while (second == first) second = other_than(dst);
    for (const SendEvent& e : events) out.add(e);
    out.add(first, dst, 0, idle);
    const Rational later(static_cast<std::int64_t>(rng.uniform(0, 8)), 4);
    out.add(second, dst, 0, idle + later);
    return out;
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    SendEvent e = events[i];
    if (i == victim) {
      switch (mode) {
        case 0: {
          const Rational delta(static_cast<std::int64_t>(rng.uniform(0, 8)) - 4, 4);
          if (e.t + delta >= Rational(0)) e.t += delta;
          break;
        }
        case 1: e.dst = other_than(e.src); break;
        case 2: e.src = other_than(e.dst); break;
        case 3: e.msg = static_cast<MsgId>(rng.uniform(1, 9)); break;
        case 4: out.add(e); break;
        case 5: {
          const Rational later(static_cast<std::int64_t>(rng.uniform(1, 16)), 4);
          out.add(e.src, other_than(e.src), e.msg, e.t + later);
          break;
        }
        default: continue;
      }
    }
    out.add(e);
  }
  return out;
}

/// Whether some receive window starts before a window its port was
/// offered earlier in the checker's visit order (time order, ties in
/// schedule order): the case a sorted per-port window set exists for.
bool has_out_of_order_receive(const Schedule& s, const RefModel& model) {
  std::vector<SendEvent> events = s.events();
  std::stable_sort(events.begin(), events.end(),
                   [](const SendEvent& a, const SendEvent& b) { return a.t < b.t; });
  std::vector<std::optional<Rational>> latest(model.n);
  for (const SendEvent& e : events) {
    if (e.src >= model.n || e.dst >= model.n) continue;
    const Rational lo = e.t + model.lambda(e.src, e.dst) - model.window;
    auto& seen = latest[e.dst];
    if (seen.has_value() && lo < *seen) return true;
    if (!seen.has_value() || *seen < lo) seen = lo;
  }
  return false;
}

std::vector<VariantCase> variant_cases() {
  return {
      kported_case(14, Rational(5, 2), 2),
      kported_case(30, Rational(1), 3),
      kported_case(25, Rational(9, 4), 4),
      logp_case({Rational(4), Rational(1), Rational(2), 14}),
      logp_case({Rational(5, 2), Rational(1, 2), Rational(1), 25}),
      logp_case({Rational(6), Rational(3), Rational(1), 30}),
      hetero_case("random", HeteroLatency::random(14, Rational(1), Rational(4), 3)),
      hetero_case("random", HeteroLatency::random(25, Rational(3, 2), Rational(5), 8)),
      hetero_case("two-level",
                  HeteroLatency::two_level(24, 6, Rational(3, 2), Rational(5))),
      two_level_case({14, 4, Rational(3, 2), Rational(5)}),
      two_level_case({30, 6, Rational(1), Rational(8)}),
      two_level_case({25, 5, Rational(9, 4), Rational(9, 4)}),
  };
}

TEST(ValidatorCrosscheck, VariantsAgreeOnTheirGeneratorsSchedules) {
  for (const VariantCase& c : variant_cases()) {
    const ModelReport report = c.check(c.base);
    EXPECT_TRUE(report.ok) << c.label << "\n"
                           << ::testing::PrintToString(report.violations);
    EXPECT_TRUE(reference_model_valid(c.base, c.model, true)) << c.label;
  }
}

TEST(ValidatorCrosscheck, VariantsAgreeOnSeededMutants) {
  Xoshiro256 rng(0x5EC7u);
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t ooo_accepted = 0;  // with a receive window offered out of order
  std::uint64_t ooo_rejected = 0;
  for (const VariantCase& c : variant_cases()) {
    for (int trial = 0; trial < 120; ++trial) {
      const Schedule mutant = mutate_variant(c.base, c.model, rng);
      const ModelReport report = c.check(mutant);
      const bool ref = reference_model_valid(mutant, c.model, true);
      EXPECT_EQ(report.ok, ref) << c.label << " trial=" << trial << "\n"
                                << ::testing::PrintToString(report.violations);
      (report.ok ? accepted : rejected) += 1;
      if (has_out_of_order_receive(mutant, c.model)) {
        (report.ok ? ooo_accepted : ooo_rejected) += 1;
      }
    }
  }
  // Both outcomes, also with receive windows offered out of order (lambda
  // varies by link), must occur for the agreement to mean much.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 500u);
  EXPECT_GT(ooo_accepted, 15u);
  EXPECT_GT(ooo_rejected, 15u);
}

TEST(ValidatorCrosscheck, VariantsAgreeOnOutOfOrderReceiveWindows) {
  // p0 informs p1..p4 at t = 0..3 (lambda 1); then p1, p2, p3 send to p5 at
  // t = 1, 2, 3 with windows [9, 10), [5, 6) and [lo, lo + 1): the third
  // window meets two windows offered in the opposite order.
  for (std::int64_t quarter = 16; quarter <= 44; ++quarter) {
    const Rational lo(quarter, 4);
    std::vector<Rational> matrix(36, Rational(1));
    matrix[1 * 6 + 5] = Rational(9);
    matrix[2 * 6 + 5] = Rational(4);
    matrix[3 * 6 + 5] = lo - Rational(2);
    if (matrix[3 * 6 + 5] < Rational(1)) continue;
    const HeteroLatency lat(6, std::move(matrix));
    Schedule s;
    for (ProcId p = 1; p <= 4; ++p) {
      s.add(0, p, 0, Rational(static_cast<std::int64_t>(p) - 1));
    }
    s.add(1, 5, 0, Rational(1));
    s.add(2, 5, 0, Rational(2));
    s.add(3, 5, 0, Rational(3));
    const RefModel model{6, 1, Rational(1), [&lat](ProcId a, ProcId b) {
                           return lat.lambda(a, b);
                         }};
    EXPECT_EQ(simulate_hetero(s, lat).ok, reference_model_valid(s, model, true))
        << "lo=" << lo;
  }
}

}  // namespace
}  // namespace postal
