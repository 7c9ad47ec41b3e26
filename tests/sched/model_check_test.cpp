// Tests for the Section 5 model variants' validators (validate_kported,
// validate_logp_schedule, simulate_hetero, simulate_two_level) and the one
// tick checker behind them, sched/model_check.hpp.
//
// Each variant breaks a valid schedule of its own generator one way at a
// time and renders the verdict, the completion and every violation, in
// order. The corpus is pinned as one FNV-1a digest, and one case per
// mutation and variant at small n as literal text, so a rewrite of the
// checker must keep every message byte for byte. A k-ported send counts
// against the k ports only when it was accepted (RejectedSendsHoldNoPort).
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "adaptive/hetero.hpp"
#include "adaptive/hierarchical.hpp"
#include "pinned_render.hpp"
#include "sched/kported.hpp"
#include "sched/logp_machine.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace postal {
namespace {

enum class Mutation {
  kShift,
  kDuplicate,
  kOutOfRange,
  kRecvClash,
  kSendClash,
  kMissing,
  kEarlyForward
};

constexpr Mutation kMutations[] = {Mutation::kShift,     Mutation::kDuplicate,
                                   Mutation::kOutOfRange, Mutation::kRecvClash,
                                   Mutation::kSendClash,  Mutation::kMissing,
                                   Mutation::kEarlyForward};

const char* mutation_name(Mutation m) {
  switch (m) {
    case Mutation::kShift: return "shifted send";
    case Mutation::kDuplicate: return "duplicate send";
    case Mutation::kOutOfRange: return "out-of-range id";
    case Mutation::kRecvClash: return "receive clash";
    case Mutation::kSendClash: return "send clash";
    case Mutation::kMissing: return "missing send";
    case Mutation::kEarlyForward: return "early forward";
  }
  return "?";
}

using LatencyFn = std::function<Rational(ProcId, ProcId)>;

/// `base` broken by `m` at events drawn from `rng`: event i is the victim.
/// A receive clash moves event j onto event i's receiver, arriving within
/// one unit of event i's arrival under `lambda`; a send clash moves event j
/// onto event i's sender, starting within one unit of event i. An early
/// forward moves a send of a rank other than p0 to t = 0.
Schedule mutate(const Schedule& base, std::uint64_t n, const LatencyFn& lambda,
                Mutation m, Xoshiro256& rng) {
  const std::vector<SendEvent> events = base.events();
  std::size_t i = rng.uniform(0, events.size() - 1);
  const std::size_t j = rng.uniform(0, events.size() - 1);
  const Rational delta(static_cast<std::int64_t>(rng.uniform(0, 4)) - 2, 2);
  if (m == Mutation::kEarlyForward) {
    while (events[i].src == 0) i = (i + 1) % events.size();
  }
  const SendEvent& victim = events[i];
  const auto at_least_zero = [](const Rational& t) { return rmax(t, Rational(0)); };
  Schedule out;
  for (std::size_t k = 0; k < events.size(); ++k) {
    SendEvent e = events[k];
    if (k == j && k != i) {
      if (m == Mutation::kRecvClash && e.src != victim.dst) {
        e.dst = victim.dst;
        e.t = at_least_zero(victim.t + lambda(victim.src, victim.dst) -
                            lambda(e.src, victim.dst) + delta);
      }
      if (m == Mutation::kSendClash && e.dst != victim.src) {
        e.src = victim.src;
        e.t = at_least_zero(victim.t + delta);
      }
    }
    if (k == i) {
      switch (m) {
        case Mutation::kShift: e.t += Rational(1, 2 * base.q()); break;
        case Mutation::kDuplicate: out.add(e); break;
        case Mutation::kOutOfRange:
          out.add(e.src, static_cast<ProcId>(n), e.msg, e.t);
          break;
        case Mutation::kMissing: continue;
        case Mutation::kEarlyForward: e.t = Rational(0); break;
        case Mutation::kRecvClash:
        case Mutation::kSendClash: break;
      }
    }
    out.add(e);
  }
  return out;
}

/// Verdict, completion and violations of any variant report.
struct Verdict {
  bool ok = false;
  Rational completion;
  std::vector<std::string> violations;
};

template <class Report>
Verdict verdict_of(const Report& r) {
  return Verdict{r.ok, r.completion, r.violations};
}

/// One variant instance: its label, rank count, latency, valid base
/// schedule and validator.
struct Instance {
  std::string label;
  std::uint64_t n = 0;
  LatencyFn lambda;
  Schedule base;
  std::function<Verdict(const Schedule&)> check;
};

Instance kported_instance(std::uint64_t n, const Rational& lambda, std::uint64_t k) {
  const PostalParams params(n, lambda);
  std::ostringstream label;
  label << "kported n=" << n << " lambda=" << lambda << " k=" << k;
  return {label.str(), n, [lambda](ProcId, ProcId) { return lambda; },
          kported_bcast_schedule(params, k), [params, k](const Schedule& s) {
            return verdict_of(validate_kported(s, params, k));
          }};
}

Instance logp_instance(const LogPParams& params) {
  std::ostringstream label;
  label << "logp L=" << params.L << " o=" << params.o << " g=" << params.g
        << " P=" << params.P;
  const Rational usable_after = Rational(2) * params.o + params.L;
  return {label.str(), params.P, [usable_after](ProcId, ProcId) { return usable_after; },
          logp_bcast_schedule(params), [params](const Schedule& s) {
            return verdict_of(validate_logp_schedule(s, params));
          }};
}

Instance hetero_instance(const std::string& what, const HeteroLatency& lat) {
  return {"hetero " + what + " n=" + std::to_string(lat.n()), lat.n(),
          [lat](ProcId a, ProcId b) { return lat.lambda(a, b); },
          hetero_greedy_broadcast(lat),
          [lat](const Schedule& s) { return verdict_of(simulate_hetero(s, lat)); }};
}

Instance two_level_instance(const TwoLevelParams& params) {
  std::ostringstream label;
  label << "two-level n=" << params.n << " c=" << params.cluster_size
        << " intra=" << params.lambda_intra << " inter=" << params.lambda_inter;
  return {label.str(), params.n,
          [params](ProcId a, ProcId b) { return params.lambda(a, b); },
          hierarchical_two_level_schedule(params),
          [params](const Schedule& s) {
            return verdict_of(simulate_two_level(s, params));
          }};
}

std::string render_case(Mutation m, const Instance& inst, const Verdict& v) {
  std::ostringstream os;
  os << "# " << mutation_name(m) << " " << inst.label << " ok=" << v.ok
     << " completion=" << v.completion << "\n";
  for (const std::string& text : v.violations) os << text << "\n";
  return os.str();
}

/// Every mutation, `reps` draws each, on every instance.
std::string render_corpus(const std::vector<Instance>& instances, int reps,
                          Xoshiro256& rng) {
  std::string out;
  for (const Instance& inst : instances) {
    const Verdict valid = inst.check(inst.base);
    EXPECT_TRUE(valid.ok) << inst.label;
    for (const Mutation m : kMutations) {
      for (int rep = 0; rep < reps; ++rep) {
        const Schedule mutant = mutate(inst.base, inst.n, inst.lambda, m, rng);
        out += render_case(m, inst, inst.check(mutant));
      }
    }
  }
  return out;
}

TEST(ModelVariants, VerdictsArePinnedOnAMutationCorpus) {
  const std::vector<Instance> instances = {
      kported_instance(14, Rational(5, 2), 2),
      kported_instance(40, Rational(1), 3),
      kported_instance(33, Rational(9, 4), 2),
      kported_instance(100, Rational(7, 3), 4),
      logp_instance({Rational(4), Rational(1), Rational(2), 14}),
      logp_instance({Rational(6), Rational(3), Rational(1), 40}),
      logp_instance({Rational(5, 2), Rational(1, 2), Rational(1), 33}),
      logp_instance({Rational(7), Rational(1), Rational(3, 2), 100}),
      hetero_instance("random", HeteroLatency::random(14, Rational(1), Rational(4), 3)),
      hetero_instance("random",
                      HeteroLatency::random(33, Rational(3, 2), Rational(5), 4)),
      hetero_instance("two-level",
                      HeteroLatency::two_level(40, 8, Rational(3, 2), Rational(5))),
      hetero_instance("uniform", HeteroLatency::uniform(50, Rational(7, 3))),
      two_level_instance({14, 4, Rational(3, 2), Rational(5)}),
      two_level_instance({40, 8, Rational(1), Rational(8)}),
      two_level_instance({33, 5, Rational(9, 4), Rational(9, 4)}),
      two_level_instance({100, 10, Rational(2), Rational(7)}),
  };
  Xoshiro256 rng(0x5EC75u);
  const std::string corpus = render_corpus(instances, 4, rng);
  pinned::expect_digest("model variant verdicts", corpus, 0x8219dade8ceec74ULL);
}

TEST(ModelVariants, VerdictsOfEachMutationAtSmallN) {
  const std::vector<Instance> instances = {
      kported_instance(8, Rational(2), 2),
      logp_instance({Rational(4), Rational(1), Rational(2), 8}),
      hetero_instance("random", HeteroLatency::random(6, Rational(1), Rational(3), 9)),
      two_level_instance({8, 3, Rational(3, 2), Rational(4)}),
  };
  Xoshiro256 rng(11);
  EXPECT_EQ(render_corpus(instances, 1, rng),
            "# shifted send kported n=8 lambda=2 k=2 ok=0 completion=4\n"
            "[p0 -> p4 : M1 @ t=1] more than k overlapping sends\n"
            "[p5 -> p6 : M1 @ t=2] sender not informed\n"
            "[p5 -> p7 : M1 @ t=2] sender not informed\n"
            "# duplicate send kported n=8 lambda=2 k=2 ok=0 completion=4\n"
            "[p0 -> p3 : M1 @ t=1] receive-port conflict\n"
            "[p0 -> p4 : M1 @ t=1] more than k overlapping sends\n"
            "# out-of-range id kported n=8 lambda=2 k=2 ok=0 completion=4\n"
            "[p0 -> p8 : M1 @ t=1] processor id out of range\n"
            "# receive clash kported n=8 lambda=2 k=2 ok=0 completion=4\n"
            "p4 never informed\n"
            "# send clash kported n=8 lambda=2 k=2 ok=1 completion=5\n"
            "# missing send kported n=8 lambda=2 k=2 ok=0 completion=4\n"
            "p6 never informed\n"
            "# early forward kported n=8 lambda=2 k=2 ok=0 completion=4\n"
            "[p5 -> p6 : M1 @ t=0] sender not informed\n"
            "# shifted send logp L=4 o=1 g=2 P=8 ok=1 completion=29/2\n"
            "# duplicate send logp L=4 o=1 g=2 P=8 ok=0 completion=14\n"
            "[p0 -> p4 : M1 @ t=2] submissions closer than max(o, g)\n"
            "[p0 -> p4 : M1 @ t=2] absorptions closer than max(o, g)\n"
            "# out-of-range id logp L=4 o=1 g=2 P=8 ok=0 completion=14\n"
            "[p0 -> p8 : M1 @ t=6] processor id out of range\n"
            "# receive clash logp L=4 o=1 g=2 P=8 ok=0 completion=14\n"
            "[p0 -> p7 : M1 @ t=11/2] submissions closer than max(o, g)\n"
            "[p6 -> p7 : M1 @ t=6] absorptions closer than max(o, g)\n"
            "p1 never informed\n"
            "# send clash logp L=4 o=1 g=2 P=8 ok=0 completion=14\n"
            "[p0 -> p3 : M1 @ t=4] submissions closer than max(o, g)\n"
            "[p6 -> p7 : M1 @ t=6] submitting a message that is not yet usable\n"
            "# missing send logp L=4 o=1 g=2 P=8 ok=0 completion=14\n"
            "p3 never informed\n"
            "# early forward logp L=4 o=1 g=2 P=8 ok=0 completion=14\n"
            "[p4 -> p5 : M1 @ t=0] submitting a message that is not yet usable\n"
            "# shifted send hetero random n=6 ok=1 completion=33/8\n"
            "# duplicate send hetero random n=6 ok=0 completion=4\n"
            "[p4 -> p5 : M1 @ t=2] send-port conflict\n"
            "[p4 -> p5 : M1 @ t=2] receive-port conflict\n"
            "# out-of-range id hetero random n=6 ok=0 completion=4\n"
            "[p4 -> p6 : M1 @ t=1] processor id out of range\n"
            "# receive clash hetero random n=6 ok=0 completion=4\n"
            "[p4 -> p5 : M1 @ t=2] send-port conflict\n"
            "[p4 -> p5 : M1 @ t=2] receive-port conflict\n"
            "p3 never informed\n"
            "# send clash hetero random n=6 ok=1 completion=4\n"
            "# missing send hetero random n=6 ok=0 completion=4\n"
            "p1 never informed\n"
            "# early forward hetero random n=6 ok=0 completion=4\n"
            "[p4 -> p3 : M1 @ t=0] sender not informed yet\n"
            "# shifted send two-level n=8 c=3 intra=3/2 inter=4 ok=0 completion=15/2\n"
            "[p0 -> p3 : M1 @ t=1] send-port conflict\n"
            "[p6 -> p7 : M1 @ t=4] sender not informed yet\n"
            "# duplicate send two-level n=8 c=3 intra=3/2 inter=4 ok=0 completion=15/2\n"
            "[p0 -> p3 : M1 @ t=1] send-port conflict\n"
            "[p0 -> p3 : M1 @ t=1] receive-port conflict\n"
            "# out-of-range id two-level n=8 c=3 intra=3/2 inter=4 ok=0 completion=15/2\n"
            "[p3 -> p8 : M1 @ t=5] processor id out of range\n"
            "# receive clash two-level n=8 c=3 intra=3/2 inter=4 ok=1 completion=15/2\n"
            "# send clash two-level n=8 c=3 intra=3/2 inter=4 ok=0 completion=13/2\n"
            "[p0 -> p4 : M1 @ t=3/2] send-port conflict\n"
            "# missing send two-level n=8 c=3 intra=3/2 inter=4 ok=0 completion=15/2\n"
            "[p6 -> p7 : M1 @ t=4] sender not informed yet\n"
            "p6 never informed\n"
            "# early forward two-level n=8 c=3 intra=3/2 inter=4 ok=0 completion=15/2\n"
            "[p3 -> p5 : M1 @ t=0] sender not informed yet\n");
}

// --- The checker's port rules ----------------------------------------------
//
// p0 informs p1..p4 at t = 0..3 (lambda 1). Then p1 sends to p5 at t = 1
// with lambda 9 (window [9, 10)), p2 at t = 2 with lambda 4 ([5, 6)), and p3
// at t = 3 with lambda lo - 2, so p3's window [lo, lo + 1) reaches p5's
// receive port after two windows that arrived in the opposite order.

ModelReport third_receive_at(const Rational& lo) {
  std::vector<Rational> matrix(36, Rational(1));
  matrix[1 * 6 + 5] = Rational(9);
  matrix[2 * 6 + 5] = Rational(4);
  matrix[3 * 6 + 5] = lo - Rational(2);
  Schedule s;
  for (ProcId p = 1; p <= 4; ++p) {
    s.add(0, p, 0, Rational(static_cast<std::int64_t>(p) - 1));
  }
  s.add(1, 5, 0, Rational(1));
  s.add(2, 5, 0, Rational(2));
  s.add(3, 5, 0, Rational(3));
  return simulate_hetero(s, HeteroLatency(6, std::move(matrix)));
}

void expect_third_rejected(const Rational& lo) {
  const ModelReport report = third_receive_at(lo);
  EXPECT_FALSE(report.ok) << "lo=" << lo;
  EXPECT_EQ(report.violations,
            std::vector<std::string>{"[p3 -> p5 : M1 @ t=3] receive-port conflict"})
      << "lo=" << lo;
}

TEST(ModelCheck, HalfOpenReceiveWindowsMayTouch) {
  for (const Rational lo : {Rational(6), Rational(8)}) {
    const ModelReport report = third_receive_at(lo);
    EXPECT_TRUE(report.ok) << "lo=" << lo;
    EXPECT_EQ(report.completion, Rational(10));
  }
}

TEST(ModelCheck, OutOfOrderDisjointReceiveWindowsAccepted) {
  EXPECT_TRUE(third_receive_at(Rational(7)).ok);
  EXPECT_TRUE(third_receive_at(Rational(13, 2)).ok);
}

TEST(ModelCheck, ReceiveOverlapFromLeftRejected) {
  expect_third_rejected(Rational(17, 2));  // ends inside [9, 10)
  expect_third_rejected(Rational(9, 2));   // ends inside [5, 6)
}

TEST(ModelCheck, ReceiveOverlapFromRightRejected) {
  expect_third_rejected(Rational(11, 2));  // starts inside [5, 6)
  expect_third_rejected(Rational(19, 2));  // starts inside [9, 10)
}

TEST(ModelCheck, EqualReceiveWindowsRejected) {
  expect_third_rejected(Rational(5));
  expect_third_rejected(Rational(9));
}

TEST(ModelCheck, RationalWindowEndpointsExact) {
  // One tick of 1/1000 on either side of touching [9, 10).
  expect_third_rejected(Rational(8) + Rational(1, 1000));
  EXPECT_TRUE(third_receive_at(Rational(8) - Rational(1, 1000)).ok);
}

TEST(ModelCheck, RejectedReceiveWindowIsNotKept) {
  // p3's window [11/2, 13/2) is rejected, so p4's [13/2 - 1/4, ...) and
  // later sends are judged against the accepted windows only.
  std::vector<Rational> matrix(36, Rational(1));
  matrix[1 * 6 + 5] = Rational(9);
  matrix[2 * 6 + 5] = Rational(4);
  matrix[3 * 6 + 5] = Rational(7, 2);
  matrix[4 * 6 + 5] = Rational(9, 4);
  Schedule s;
  for (ProcId p = 1; p <= 4; ++p) {
    s.add(0, p, 0, Rational(static_cast<std::int64_t>(p) - 1));
  }
  s.add(1, 5, 0, Rational(1));
  s.add(2, 5, 0, Rational(2));
  s.add(3, 5, 0, Rational(3));
  s.add(4, 5, 0, Rational(4));  // window [21/4, 25/4): clashes with p3's only
  const ModelReport report = simulate_hetero(s, HeteroLatency(6, std::move(matrix)));
  EXPECT_EQ(report.violations,
            (std::vector<std::string>{"[p3 -> p5 : M1 @ t=3] receive-port conflict",
                                      "[p4 -> p5 : M1 @ t=4] receive-port conflict"}));
}

TEST(ModelCheck, RejectedSendsHoldNoPort) {
  // k = 2: the sends at 0 and 1/2 hold both ports, the second send at 1/2
  // is rejected, and the send at 1 finds the port of t = 0 free again.
  const PostalParams params(5, Rational(2));
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  s.add(0, 2, 0, Rational(1, 2));
  s.add(0, 3, 0, Rational(1, 2));
  s.add(0, 4, 0, Rational(1));
  const KPortedReport report = validate_kported(s, params, 2);
  EXPECT_EQ(report.violations,
            std::vector<std::string>{
                "[p0 -> p3 : M1 @ t=1/2] more than k overlapping sends"});
  EXPECT_EQ(report.completion, Rational(3));
}

TEST(ModelCheck, NonPositiveWindowThrows) {
  ModelSpec spec;
  spec.n = 2;
  spec.window = Rational(0);
  const ModelClauses clauses{"uninformed", "send clash", "receive clash"};
  POSTAL_EXPECT_THROW(check_model(Schedule(), spec, clauses), InvalidArgument);
  spec.window = Rational(1);
  spec.send_ports = 0;
  POSTAL_EXPECT_THROW(check_model(Schedule(), spec, clauses), InvalidArgument);
}

TEST(ModelCheck, MatrixSelfSendIsAnInvalidArgument) {
  // No schedule holds a self-send for a matrix to price: Schedule::add
  // refuses one, and so does an engine's tick log.
  POSTAL_EXPECT_THROW(
      Schedule::from_tick_log(TickLog{TickSend{0, 0, 1, 0}, TickSend{2, 1, 1, 0}}, 1, 3),
      InvalidArgument);
}

TEST(ModelCheck, UnrepresentableGridNamesTheEntryPoint) {
  // A send at 1/(2^31 - 1) and a lambda on the grid 1/2^33 share no int64
  // grid.
  Schedule s;
  s.add(0, 1, 0, Rational(1, std::numeric_limits<std::int32_t>::max()));
  const Rational lambda = Rational(1) + Rational(1, std::int64_t{1} << 33);
  const auto expect_named = [](const std::function<void()>& run,
                               const std::string& site) {
    try {
      run();
      ADD_FAILURE() << site << " did not raise";
    } catch (const OverflowError& e) {
      EXPECT_NE(std::string(e.what()).find(site + ":"), std::string::npos) << e.what();
    }
  };
  expect_named([&] { (void)validate_kported(s, PostalParams(2, lambda), 2); },
               "validate_kported");
  expect_named(
      [&] {
        (void)validate_logp_schedule(s, LogPParams{lambda, Rational(0), Rational(1), 2});
      },
      "validate_logp_schedule");
  expect_named([&] { (void)simulate_hetero(s, HeteroLatency::uniform(2, lambda)); },
               "simulate_hetero");
  expect_named(
      [&] { (void)simulate_two_level(s, TwoLevelParams{2, 1, Rational(1), lambda}); },
      "simulate_two_level");
}

}  // namespace
}  // namespace postal
