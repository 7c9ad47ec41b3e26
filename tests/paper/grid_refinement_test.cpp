// Metamorphic relation: refining a schedule's time grid changes nothing.
//
// A Schedule stores its sends as ticks of one grid 1/q. The same schedule
// re-expressed on the grid 1/(kq) -- every tick times k -- is the same set
// of send times, so every observable must be identical: the events() view
// (equality across grids), the rendered bytes of operator<<, and the
// validator's verdict, makespan, violation strings and deliveries. The
// corpus is the paper's algorithms: BCAST, every multi-message family of
// the registry, the Machine's BCAST run (rebuilt through from_tick_log)
// and a broken variant of each, so the violation lists are not empty.
//
// Second relation: relabelling the ranks changes nothing either. The model
// has no rank-dependent clause, so a schedule mapped through a permutation
// pi of the ranks, validated with the origin moved to pi(origin), keeps its
// verdict, makespan and delivery count, and a broken one keeps its number
// of violations.
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "pinned_render.hpp"
#include "sched/bcast.hpp"
#include "sched/registry.hpp"
#include "sim/machine.hpp"
#include "sim/protocols/bcast_protocol.hpp"
#include "sim/validator.hpp"
#include "support/prng.hpp"

namespace postal {
namespace {

constexpr std::int64_t kFactors[] = {2, 3, 7};

/// `s` with every tick multiplied by k, on the grid k * q, in the same
/// record order.
Schedule refined(const Schedule& s, std::int64_t k) {
  Schedule out;
  out.refine(s.q() * k, "refined");
  for (const TickSend& e : s.records()) {
    out.add_tick(e.src, e.dst, e.msg, e.tick * k);
  }
  return out;
}

std::string rendered(const Schedule& s) {
  std::ostringstream os;
  os << s;
  return os.str();
}

/// Every observable of `s` equals that of its refinements; `valid` is the
/// validator's verdict on `s` itself.
void expect_refinement_invariant(const Schedule& s, const PostalParams& params,
                                 const ValidatorOptions& vopts, bool valid,
                                 const std::string& tag) {
  const SimReport base = validate_schedule(s, params, vopts);
  ASSERT_EQ(base.ok, valid) << tag << ": " << base.summary();
  for (const std::int64_t k : kFactors) {
    const std::string who = tag + " k=" + std::to_string(k);
    const Schedule fine = refined(s, k);
    ASSERT_EQ(fine.q(), s.q() * k) << who;
    EXPECT_EQ(fine.events(), s.events()) << who;
    EXPECT_EQ(rendered(fine), rendered(s)) << who;
    const SimReport got = validate_schedule(fine, params, vopts);
    EXPECT_EQ(got.ok, base.ok) << who;
    EXPECT_EQ(got.makespan, base.makespan) << who;
    EXPECT_EQ(got.order_preserving, base.order_preserving) << who;
    EXPECT_EQ(got.violations, base.violations) << who;
    EXPECT_EQ(got.trace.deliveries(), base.trace.deliveries()) << who;
    EXPECT_EQ(pinned::render_report(got), pinned::render_report(base)) << who;
  }
}

/// `s` plus a duplicate of its first send (a send-port clash) and a send
/// from a rank that holds nothing at t = 0 (a causality breach).
Schedule broken(const Schedule& s, const PostalParams& params) {
  Schedule out = s;
  const SendEvent first = s.events().front();
  out.add(first);
  out.add(static_cast<ProcId>(params.n() - 1), 0, 0, Rational(0));
  return out;
}

struct Case {
  std::uint64_t n;
  Rational lambda;
};

const Case kCases[] = {{14, Rational(5, 2)}, {2, Rational(1)},
                       {33, Rational(9, 4)}, {64, Rational(1)},
                       {100, Rational(7, 3)}, {57, Rational(4)}};

std::string tag_of(const char* what, const Case& c) {
  return std::string(what) + " n=" + std::to_string(c.n) + " lambda=" + c.lambda.str();
}

TEST(GridRefinement, BcastScheduleIsInvariant) {
  for (const Case& c : kCases) {
    const PostalParams params(c.n, c.lambda);
    const Schedule s = bcast_schedule(params);
    expect_refinement_invariant(s, params, ValidatorOptions{}, true, tag_of("bcast", c));
    expect_refinement_invariant(broken(s, params), params, ValidatorOptions{}, false,
                                tag_of("broken bcast", c));
  }
}

TEST(GridRefinement, MultiMessageFamiliesAreInvariant) {
  for (const Case& c : kCases) {
    const PostalParams params(c.n, c.lambda);
    for (const MultiAlgo algo : all_multi_algos()) {
      for (const std::uint64_t m : {1u, 3u}) {
        const Schedule s = make_multi_schedule(algo, params, m);
        ValidatorOptions vopts;
        vopts.messages = static_cast<std::uint32_t>(m);
        const std::string tag =
            tag_of(algo_name(algo).c_str(), c) + " m=" + std::to_string(m);
        expect_refinement_invariant(s, params, vopts, true, tag);
        expect_refinement_invariant(broken(s, params), params, vopts, false,
                                    "broken " + tag);
      }
    }
  }
}

TEST(GridRefinement, MachineRunRebuiltOnAFinerGridIsInvariant) {
  for (const Case& c : kCases) {
    const PostalParams params(c.n, c.lambda);
    Machine machine(params, 1);
    BcastProtocol protocol(params);
    const Schedule s = machine.run(protocol).schedule;
    expect_refinement_invariant(s, params, ValidatorOptions{}, true,
                                tag_of("machine", c));
    // The engines' path: the same log, ticks times k, through from_tick_log.
    for (const std::int64_t k : kFactors) {
      TickLog log;
      for (const TickSend& e : s.records()) {
        log.push_back({e.tick * k, e.src, e.dst, e.msg});
      }
      const Schedule fine = Schedule::from_tick_log(std::move(log), s.q() * k, c.n);
      EXPECT_EQ(fine.events(), s.events()) << tag_of("machine log", c) << " k=" << k;
      EXPECT_EQ(rendered(fine), rendered(s)) << tag_of("machine log", c) << " k=" << k;
    }
  }
}

/// A seeded permutation of the ranks [0, n) (Fisher-Yates).
std::vector<ProcId> permutation(std::uint64_t n, std::uint64_t seed) {
  std::vector<ProcId> pi(n);
  std::iota(pi.begin(), pi.end(), ProcId{0});
  Xoshiro256 rng(seed);
  for (std::uint64_t i = n; i > 1; --i) {
    std::swap(pi[i - 1], pi[rng.uniform(0, i - 1)]);
  }
  return pi;
}

/// `s` with every rank p renamed pi[p], re-sorted into (t, src, dst, msg)
/// order on the same grid.
Schedule relabelled(const Schedule& s, const std::vector<ProcId>& pi) {
  Schedule out;
  out.refine(s.q(), "relabelled");
  for (const TickSend& e : s.records()) {
    out.add_tick(pi[e.src], pi[e.dst], e.msg, e.tick);
  }
  out.sort();
  return out;
}

/// `s` plus a repeat of a seeded send (a send-port clash) and a t = 0 send
/// from a seeded non-origin rank, which holds nothing yet (a causality
/// breach). Origin 0.
Schedule seeded_mutant(const Schedule& s, std::uint64_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Schedule out = s;
  out.add(s.events()[rng.uniform(0, s.size() - 1)]);
  const ProcId from = static_cast<ProcId>(rng.uniform(1, n - 1));
  const ProcId to = static_cast<ProcId>((from + rng.uniform(1, n - 1)) % n);
  out.add(from, to, 0, Rational(0));
  out.sort();
  return out;
}

/// Validating `s` (origin 0) and its relabelling under a seeded pi (origin
/// pi(0)) agree on the verdict, the makespan, the delivery count and the
/// number of violations.
void expect_relabelling_invariant(const Schedule& s, const PostalParams& params,
                                  ValidatorOptions vopts, bool valid, std::uint64_t seed,
                                  const std::string& tag) {
  vopts.origin = 0;
  const SimReport base = validate_schedule(s, params, vopts);
  ASSERT_EQ(base.ok, valid) << tag << ": " << base.summary();
  const std::vector<ProcId> pi = permutation(params.n(), seed);
  vopts.origin = pi[0];
  const SimReport got = validate_schedule(relabelled(s, pi), params, vopts);
  const std::string who = tag + " seed=" + std::to_string(seed);
  EXPECT_EQ(got.ok, base.ok) << who << ": " << got.summary();
  EXPECT_EQ(got.makespan, base.makespan) << who;
  EXPECT_EQ(got.trace.delivery_count(), base.trace.delivery_count()) << who;
  EXPECT_EQ(got.violations.size(), base.violations.size()) << who << ": "
                                                            << got.summary();
}

TEST(Relabelling, BcastAndEveryRegistryFamilyAreInvariant) {
  std::uint64_t seed = 1;
  for (const Case& c : kCases) {
    const PostalParams params(c.n, c.lambda);
    std::vector<std::pair<std::string, Schedule>> corpus;
    corpus.emplace_back("bcast", bcast_schedule(params));
    for (const MultiAlgo algo : all_multi_algos()) {
      corpus.emplace_back(algo_name(algo), make_multi_schedule(algo, params, 1));
    }
    ValidatorOptions vopts;
    vopts.messages = 1;
    for (const auto& [name, s] : corpus) {
      const std::string tag = tag_of(name.c_str(), c);
      for (int rep = 0; rep < 3; ++rep, ++seed) {
        expect_relabelling_invariant(s, params, vopts, true, seed, tag);
        expect_relabelling_invariant(seeded_mutant(s, c.n, seed), params, vopts, false,
                                     seed, "mutant " + tag);
      }
    }
  }
}

}  // namespace
}  // namespace postal
