// The pinned-reference gate of the tick engines (docs/PERFORMANCE.md).
//
// Every hot loop runs on int64 ticks only. Its reference is data: each
// randomized corpus below was run through the retired checked-Rational
// engines, and the FNV-1a digest of its canonical rendering
// (tests/paper/pinned_render.hpp) is committed here. The tick engines
// must reproduce every digest -- same events, same makespans, same
// validator verdicts and violation strings, same fault timelines:
//
//   * dp table / greedy search      (src/brute/optimal_search)
//   * BCAST schedule emission       (src/sched/bcast)
//   * the schedule validator        (src/sim/validator), incl. violation
//                                   strings on deliberately broken input
//   * the event-driven Machine      (src/sim/machine), incl. fault plans
//                                   from random_fault_plan
//   * the reliable broadcast        (sim/protocols/reliable_bcast) under
//                                   chaos-style crash+loss storms
//   * the packet network            (src/net/packet_sim), jitter and all
//   * the sweep engine              (src/par/sweep)
//
// The off-grid timer runs pin their literal rendering: the Machine must
// rescale its grid mid-run (pending ticks, port times, lambda, crash and
// spike ticks) and still match the reference event for event. The
// OverflowError cases pin the contract for grids that cannot fit int64:
// each entry point throws and never returns a result.
//
// The digests and literals were recorded from the checked-Rational
// reference engines at commit 3736220, the last commit that had them.
// scripts/check.sh --sanitize re-runs this binary under ASan+UBSan.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "brute/optimal_search.hpp"
#include "faults/fault_plan.hpp"
#include "net/packet_sim.hpp"
#include "offgrid_reference.hpp"
#include "par/sweep.hpp"
#include "pinned_render.hpp"
#include "sched/bcast.hpp"
#include "sim/machine.hpp"
#include "sim/protocols/bcast_protocol.hpp"
#include "sim/protocols/multi_protocols.hpp"
#include "sim/protocols/reliable_bcast.hpp"
#include "sim/validator.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace postal {
namespace {

using pinned::expect_digest;
using pinned::render_net;
using pinned::render_report;
using pinned::render_run;

struct RandomPair {
  std::uint64_t n;
  Rational lambda;
};

std::vector<RandomPair> random_pairs(std::uint64_t seed, std::size_t count) {
  Xoshiro256 rng(seed);
  std::vector<RandomPair> pairs;
  pairs.reserve(count);
  while (pairs.size() < count) {
    const std::uint64_t n = rng.uniform(1, 192);
    const std::uint64_t q = rng.uniform(1, 4);
    const std::uint64_t p = rng.uniform(q, 8 * q);  // lambda = p/q in [1, 8]
    pairs.push_back({n, Rational(static_cast<std::int64_t>(p),
                                 static_cast<std::int64_t>(q))});
  }
  return pairs;
}

std::string tag_of(const RandomPair& pair) {
  return "# n=" + std::to_string(pair.n) + " lambda=" + pair.lambda.str() + "\n";
}

TEST(TickDifferential, DpTableAndGreedyMatchTheRationalReference) {
  std::ostringstream out;
  for (const RandomPair& pair : random_pairs(0x71C5u, 60)) {
    out << tag_of(pair) << "dp " << optimal_broadcast_dp(pair.n, pair.lambda)
        << " greedy " << optimal_broadcast_greedy(pair.n, pair.lambda) << "\ntable";
    for (const Rational& t : optimal_broadcast_dp_table(pair.n, pair.lambda)) {
      out << " " << t;
    }
    out << "\n";
  }
  expect_digest("dp/greedy", out.str(), 0x01b0a72c3ff64812ULL);
}

TEST(TickDifferential, BcastScheduleMatchesTheRationalEmit) {
  std::ostringstream out;
  for (const RandomPair& pair : random_pairs(0xBCA57u, 60)) {
    const PostalParams params(pair.n, pair.lambda);
    GenFib fib(pair.lambda);
    const Schedule emitted = bcast_schedule(params, fib);
    // The public Rational-start emitter is a wrapper over the same tick
    // emitter.
    Schedule wrapped;
    bcast_emit(wrapped, fib, /*base=*/0, pair.n, Rational(0), /*msg=*/0);
    wrapped.sort();
    EXPECT_EQ(wrapped.events(), emitted.events()) << tag_of(pair);
    out << tag_of(pair);
    for (const SendEvent& e : emitted.events()) out << e << "\n";
  }
  expect_digest("bcast emit", out.str(), 0x5cc5f3dc9e37defeULL);
}

TEST(TickDifferential, ValidatorReportsAreIdenticalOnValidSchedules) {
  std::ostringstream out;
  for (const RandomPair& pair : random_pairs(0x7A11Du, 40)) {
    const PostalParams params(pair.n, pair.lambda);
    const Schedule schedule = bcast_schedule(params);
    ValidatorOptions vopts;
    out << tag_of(pair) << render_report(validate_schedule(schedule, params, vopts));
  }
  expect_digest("validator (valid)", out.str(), 0x11cc11ce7b9c9f41ULL);
}

TEST(TickDifferential, ValidatorViolationStringsAreIdenticalOnBrokenSchedules) {
  std::ostringstream out;
  for (const RandomPair& pair : random_pairs(0xBAD5Du, 30)) {
    if (pair.n < 3) continue;
    const PostalParams params(pair.n, pair.lambda);
    Schedule broken = bcast_schedule(params);
    // Port clash: duplicate the first event (same sender, same start).
    const SendEvent first = broken.events().front();
    broken.add(first.src, first.dst, first.msg, first.t);
    // Causality breach: a processor that holds nothing at t=0 sends at t=0.
    broken.add(static_cast<ProcId>(pair.n - 1), 0, 0, Rational(0));
    broken.sort();
    ValidatorOptions vopts;
    const SimReport report = validate_schedule(broken, params, vopts);
    EXPECT_FALSE(report.ok) << tag_of(pair);
    out << tag_of(pair) << render_report(report);
  }
  expect_digest("validator (broken)", out.str(), 0xbda4755e7f7db1f9ULL);
}

TEST(TickDifferential, MachineBcastRunsAreByteIdentical) {
  std::ostringstream out;
  for (const RandomPair& pair : random_pairs(0x3AC41u, 30)) {
    const PostalParams params(pair.n, pair.lambda);
    Machine machine(params, 1);
    BcastProtocol protocol(params);
    out << tag_of(pair) << render_run(machine.run(protocol));
  }
  expect_digest("machine bcast", out.str(), 0xd91cfe5745fff76fULL);
}

TEST(TickDifferential, MachineMultiMessageProtocolsAreByteIdentical) {
  const PostalParams params(24, Rational(5, 2));
  std::ostringstream out;
  const auto run = [&](auto make_protocol, std::uint32_t m, const char* tag) {
    Machine machine(params, m);
    auto protocol = make_protocol(m);
    out << "# " << tag << "\n" << render_run(machine.run(protocol));
  };
  run([&](std::uint32_t m) { return RepeatProtocol(params, m); }, 6, "repeat");
  run([&](std::uint32_t m) { return PackProtocol(params, m); }, 6, "pack");
  // PIPELINE-1 requires m <= lambda.
  run([&](std::uint32_t m) { return Pipeline1Protocol(params, m); }, 2, "pipeline1");
  run([&](std::uint32_t m) { return Pipeline2Protocol(params, m); }, 6, "pipeline2");
  expect_digest("machine multi-message", out.str(), 0x6a964227864a04adULL);
}

TEST(TickDifferential, FaultInjectedMachineRunsAreByteIdentical) {
  // Crash + loss + spike storms from random_fault_plan: the fault timeline
  // must match event for event (loss draws consume per-link PRNG state, so
  // even the *order* of checks matters).
  std::ostringstream out;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const std::uint64_t n = 8 + (seed % 3) * 12;
    const Rational lambda = seed % 2 == 0 ? Rational(2) : Rational(7, 2);
    const PostalParams params(n, lambda);
    RandomFaultOptions fopts;
    fopts.crashes = seed % 4;
    fopts.lossy_links = 4;
    fopts.loss_p = Rational(1, 3);
    fopts.spikes = seed % 3;
    const FaultPlan plan = random_fault_plan(params, seed, fopts);

    Machine machine(params, 1);
    machine.attach_faults(plan);
    BcastProtocol protocol(params);
    out << "# seed " << seed << "\n" << render_run(machine.run(protocol));
  }
  expect_digest("machine faulted", out.str(), 0x1e9db0e5e9ad6341ULL);
}

TEST(TickDifferential, OffGridTimerRescalesExactlyMidRun) {
  const PostalParams params(6, Rational(3, 2));
  Machine machine(params, 1);
  offgrid::OneTimerProtocol protocol(6);
  EXPECT_EQ(render_run(machine.run(protocol)), offgrid::kOneTimerReference);
}

TEST(TickDifferential, TwoOffGridTimersRescaleCrashAndSpikeTicks) {
  const PostalParams params(8, Rational(3, 2));
  Machine machine(params, 1);
  machine.attach_faults(offgrid::crash_and_spike_plan());
  offgrid::TwoTimersProtocol protocol(8);
  EXPECT_EQ(render_run(machine.run(protocol)), offgrid::kTwoTimersReference);
}

TEST(TickDifferential, ReliableBcastChaosRunsAreIdentical) {
  std::ostringstream out;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const std::uint64_t n = 6 + (seed % 4) * 7;
    const Rational lambda = seed % 2 == 0 ? Rational(1) : Rational(5, 2);
    const PostalParams params(n, lambda);
    RandomFaultOptions fopts;
    fopts.crashes = seed % 3;
    fopts.lossy_links = 3;
    fopts.loss_p = Rational(1, 2);
    fopts.max_losses = 3;
    const FaultPlan plan = random_fault_plan(params, seed, fopts);

    ReliableBcastOptions ropts;
    const ReliableBcastReport r = run_reliable_bcast(params, &plan, ropts);
    out << "# seed " << seed << "\n"
        << render_run(r.result) << "completion " << r.completion << " covered "
        << r.covered << " uncovered_alive";
    for (const ProcId p : r.uncovered_alive) out << " p" << p;
    out << "\ncounters data=" << r.counters.data_sends
        << " retx=" << r.counters.retransmissions << " acks_sent=" << r.counters.acks_sent
        << " acks_received=" << r.counters.acks_received
        << " timeouts=" << r.counters.timeouts << " dead=" << r.counters.dead_declared
        << " repairs=" << r.counters.repairs << "\n"
        << render_report(r.validation);
  }
  expect_digest("reliable bcast chaos", out.str(), 0x6125069325ebeeb9ULL);
}

TEST(TickDifferential, PacketNetworkRunsAreByteIdentical) {
  const PostalParams params(16, Rational(2));
  const Schedule traffic = bcast_schedule(params);
  const struct {
    Switching switching;
    Rational jitter;
    const char* tag;
  } cases[] = {
      {Switching::kStoreAndForward, Rational(0), "saf"},
      {Switching::kStoreAndForward, Rational(1, 2), "saf+jitter"},
      {Switching::kCutThrough, Rational(1, 4), "cut+jitter"},
  };
  std::ostringstream out;
  for (const auto& c : cases) {
    for (int topo = 0; topo < 2; ++topo) {
      NetConfig config;
      config.send_overhead = Rational(1);
      config.recv_overhead = Rational(1, 2);
      config.wire_time = Rational(3, 4);
      config.header_time = Rational(1, 4);
      config.jitter_max = c.jitter;
      config.switching = c.switching;
      const Topology topology = topo == 0
                                    ? Topology::complete(16, Rational(1, 4))
                                    : Topology::mesh2d(4, 4, Rational(1, 4));
      PacketNetwork net(topology, config);
      net.submit_schedule(traffic);
      const std::vector<NetDelivery> deliveries = net.run();
      out << "# " << c.tag << (topo == 0 ? "/complete" : "/mesh") << "\n"
          << render_net(deliveries, net.last_run_stats());
    }
  }
  expect_digest("packet network", out.str(), 0x99078a80d50671d5ULL);
}

TEST(TickDifferential, FaultedPacketNetworkRunsAreByteIdentical) {
  const PostalParams params(12, Rational(3, 2));
  const Schedule traffic = bcast_schedule(params);
  std::ostringstream out;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RandomFaultOptions fopts;
    fopts.crashes = seed % 3;
    fopts.lossy_links = 3;
    fopts.loss_p = Rational(1, 4);
    fopts.spikes = seed % 2;
    const FaultPlan plan = random_fault_plan(params, seed, fopts);
    NetConfig config;
    config.recv_overhead = Rational(1, 2);
    PacketNetwork net(Topology::mesh2d(3, 4, Rational(1, 2)), config);
    net.attach_faults(plan);
    net.submit_schedule(traffic);
    const std::vector<NetDelivery> deliveries = net.run();
    out << "# seed " << seed << "\n" << render_net(deliveries, net.last_run_stats());
  }
  expect_digest("packet network faulted", out.str(), 0xfa133506bb23758dULL);
}

TEST(TickDifferential, SweepResultsMatchThePinnedReference) {
  const std::vector<std::uint64_t> ns = {1, 2, 7, 16, 33, 64};
  const std::vector<Rational> lambdas = {Rational(1), Rational(3, 2),
                                         Rational(5, 2), Rational(4)};
  par::SweepOptions sopts;
  sopts.threads = 1;
  const auto points = par::sweep_grid(ns, lambdas, sopts);
  for (const par::SweepPointResult& r : points) {
    EXPECT_TRUE(r.ok) << "n=" << r.n << " lambda=" << r.lambda;
  }
  expect_digest("sweep", pinned::render_sweep(points), 0x42a040d06be1cf09ULL);
}

/// MachineStats::port_busy over the corpus above: rank p's entry is the
/// number of schedule records with src p. A crash-suppressed send is in
/// neither; a lost send is in both.
TEST(TickDifferential, PortBusyCountsEachSourcesScheduleRecords) {
  const auto expect_counts = [](const MachineResult& r, std::uint64_t n,
                                const std::string& tag) {
    EXPECT_EQ(r.stats.port_busy.sends(), r.schedule.sends_per_proc(n)) << tag;
  };
  for (const RandomPair& pair : random_pairs(0x3AC41u, 30)) {
    const PostalParams params(pair.n, pair.lambda);
    Machine machine(params, 1);
    BcastProtocol protocol(params);
    expect_counts(machine.run(protocol), pair.n, tag_of(pair));
  }
  const PostalParams multi(24, Rational(5, 2));
  Machine repeat_machine(multi, 6);
  RepeatProtocol repeat(multi, 6);
  expect_counts(repeat_machine.run(repeat), 24, "repeat");
  Machine pipeline_machine(multi, 6);
  Pipeline2Protocol pipeline(multi, 6);
  expect_counts(pipeline_machine.run(pipeline), 24, "pipeline2");
  std::uint64_t suppressed = 0;
  std::uint64_t lost = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const std::uint64_t n = 8 + (seed % 3) * 12;
    const PostalParams params(n, seed % 2 == 0 ? Rational(2) : Rational(7, 2));
    RandomFaultOptions fopts;
    fopts.crashes = seed % 4;
    fopts.lossy_links = 4;
    fopts.loss_p = Rational(1, 3);
    fopts.spikes = seed % 3;
    Machine machine(params, 1);
    machine.attach_faults(random_fault_plan(params, seed, fopts));
    BcastProtocol protocol(params);
    const MachineResult r = machine.run(protocol);
    expect_counts(r, n, "faulted seed " + std::to_string(seed));
    suppressed += r.faults.sends_suppressed;
    lost += r.faults.drops_loss;
  }
  // The origin crashes while its port still holds queued BCAST sends.
  const PostalParams origin_params(14, Rational(5, 2));
  FaultPlan origin_crash;
  origin_crash.crashes.push_back(CrashFault{0, Rational(2)});
  Machine origin_machine(origin_params, 1);
  origin_machine.attach_faults(origin_crash);
  BcastProtocol origin_protocol(origin_params);
  const MachineResult crashed = origin_machine.run(origin_protocol);
  expect_counts(crashed, 14, "origin crash");
  suppressed += crashed.faults.sends_suppressed;
  EXPECT_GT(suppressed, 0u);
  EXPECT_GT(lost, 0u);
  Machine offgrid_machine(PostalParams(8, Rational(3, 2)), 1);
  offgrid_machine.attach_faults(offgrid::crash_and_spike_plan());
  offgrid::TwoTimersProtocol offgrid_protocol(8);
  expect_counts(offgrid_machine.run(offgrid_protocol), 8, "offgrid");
}

// ---------------------------------------------------------------------------
// OverflowError contract: a run whose time grid cannot fit int64 ticks
// throws from its entry point -- it never returns a result.
// ---------------------------------------------------------------------------

/// Crash times at 1/p for four primes near 10^6: their lcm (~10^24)
/// cannot be an int64 denominator.
FaultPlan prime_crash_plan() {
  FaultPlan plan;
  const std::int64_t primes[] = {1000003, 1000033, 1000037, 1000039};
  ProcId proc = 1;
  for (const std::int64_t p : primes) {
    plan.crashes.push_back(CrashFault{proc++, Rational(1, p)});
  }
  return plan;
}

TEST(TickOverflow, MachineRunThrowsOnAnUnrepresentableGrid) {
  const PostalParams params(8, Rational(3, 2));
  Machine machine(params, 1);
  machine.attach_faults(prime_crash_plan());
  BcastProtocol protocol(params);
  POSTAL_EXPECT_THROW(static_cast<void>(machine.run(protocol)), OverflowError);
}

TEST(TickOverflow, ValidateScheduleThrowsOnAnUnrepresentableGrid) {
  const PostalParams params(8, Rational(3, 2));
  const Schedule schedule = bcast_schedule(params);
  ValidatorOptions vopts;
  vopts.crashes = prime_crash_plan().crashes;
  POSTAL_EXPECT_THROW(static_cast<void>(validate_schedule(schedule, params, vopts)),
                      OverflowError);
}

TEST(TickOverflow, PacketNetworkRunThrowsOnAnUnrepresentableGrid) {
  PacketNetwork net(Topology::complete(8, Rational(1, 4)), NetConfig{});
  ProcId dst = 1;
  for (const CrashFault& c : prime_crash_plan().crashes) net.submit(0, dst++, 0, c.time);
  POSTAL_EXPECT_THROW(static_cast<void>(net.run()), OverflowError);
}

TEST(TickOverflow, DpTableAndGreedyThrowWhenNTimesLambdaOverflows) {
  // (n + 2) * (lambda + 1) ticks at q = 2 exceeds 2^62; both routes must
  // refuse before allocating anything n-sized.
  const std::uint64_t n = std::uint64_t{1} << 61;
  POSTAL_EXPECT_THROW(static_cast<void>(optimal_broadcast_dp_table(n, Rational(3, 2))),
                      OverflowError);
  POSTAL_EXPECT_THROW(static_cast<void>(optimal_broadcast_greedy(n, Rational(3, 2))),
                      OverflowError);
}

TEST(TickOverflow, BcastScheduleThrowsWhenNTimesLambdaOverflows) {
  const PostalParams params(std::uint64_t{1} << 61, Rational(3, 2));
  POSTAL_EXPECT_THROW(static_cast<void>(bcast_schedule(params)), OverflowError);
  // The Rational-start wrapper folds `start` into the grid: 1/p for a
  // prime p near 2^62 leaves no int64 lcm with lambda's q = 2.
  GenFib fib(Rational(3, 2));
  Schedule s;
  POSTAL_EXPECT_THROW(
      bcast_emit(s, fib, 0, 4, Rational(1, (std::int64_t{1} << 62) + 135), 0),
      OverflowError);
  EXPECT_TRUE(s.events().empty());
}

/// Arms timers at 1/p for successive large primes: the first rescale
/// fits, the second would need an lcm beyond int64.
class PrimeTimerProtocol final : public Protocol {
 public:
  void on_start(MachineContext& ctx) override {
    if (ctx.self() == 0) ctx.set_timer(Rational(1, 2147483647), 0);
  }
  void on_receive(MachineContext& ctx, const Packet& packet) override {
    static_cast<void>(ctx);
    static_cast<void>(packet);
  }
  void on_timer(MachineContext& ctx, std::uint64_t token) override {
    if (token == 0) ctx.set_timer(Rational(1, 2147483629), 1);
  }
};

TEST(TickOverflow, RescaleThrowsWhenTheFinerGridOverflows) {
  const PostalParams params(4, Rational(3, 2));
  Machine machine(params, 1);
  PrimeTimerProtocol protocol;
  POSTAL_EXPECT_THROW(static_cast<void>(machine.run(protocol)), OverflowError);
}

}  // namespace
}  // namespace postal
