// The shard-count-invariance gate (docs/SIMULATION.md): ParMachine must be
// byte-identical to the sequential Machine -- same schedule events, same
// trace deliveries in the same order, same stats, same fault timeline,
// same validator verdicts -- at every thread count, over the full protocol
// family and fault-injection corpus the tick differential uses. threads=1
// is not a special case here: the windowed engine (with its barrier
// merge-replay) runs at every shard count including one, so a threads=1
// pass already exercises the window/merge machinery, and the higher
// thread counts exercise true cross-shard mailboxes.
//
// scripts/check.sh --sanitize re-runs this binary under TSan (the shard
// loops run on real pool lanes at threads > 1) and under ASan+UBSan.
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "faults/fault_plan.hpp"
#include "offgrid_reference.hpp"
#include "pinned_render.hpp"
#include "sim/machine.hpp"
#include "sim/par_machine.hpp"
#include "sim/protocols/bcast_protocol.hpp"
#include "sim/protocols/dtree_protocol.hpp"
#include "sim/protocols/multi_protocols.hpp"
#include "sim/validator.hpp"
#include "support/prng.hpp"

namespace postal {
namespace {

std::vector<unsigned> thread_counts() {
  std::vector<unsigned> counts = {1, 2, 4};
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 1 && hw != 2 && hw != 4) counts.push_back(hw);
  return counts;
}

/// Everything a MachineResult exposes must match.
void expect_identical_runs(const MachineResult& par, const MachineResult& ref,
                           const std::string& tag) {
  EXPECT_EQ(par.schedule.events(), ref.schedule.events()) << tag;
  EXPECT_EQ(par.trace.deliveries(), ref.trace.deliveries()) << tag;
  EXPECT_EQ(par.stats.events_processed, ref.stats.events_processed) << tag;
  EXPECT_EQ(par.stats.sends_enqueued, ref.stats.sends_enqueued) << tag;
  EXPECT_EQ(par.stats.sends_deferred, ref.stats.sends_deferred) << tag;
  EXPECT_EQ(par.stats.timers_set, ref.stats.timers_set) << tag;
  EXPECT_EQ(par.stats.timers_fired, ref.stats.timers_fired) << tag;
  EXPECT_EQ(par.stats.receives_queued, ref.stats.receives_queued) << tag;
  EXPECT_EQ(par.stats.max_fifo_depth, ref.stats.max_fifo_depth) << tag;
  EXPECT_EQ(par.stats.port_busy, ref.stats.port_busy) << tag;
  EXPECT_EQ(par.faults.crashes_applied, ref.faults.crashes_applied) << tag;
  EXPECT_EQ(par.faults.sends_suppressed, ref.faults.sends_suppressed) << tag;
  EXPECT_EQ(par.faults.drops_crash, ref.faults.drops_crash) << tag;
  EXPECT_EQ(par.faults.drops_loss, ref.faults.drops_loss) << tag;
  EXPECT_EQ(par.faults.spikes_applied, ref.faults.spikes_applied) << tag;
  EXPECT_EQ(par.faults.events, ref.faults.events) << tag;
}

/// Validator verdicts over the two schedules+params must agree too (they
/// must, given identical schedules -- this guards the plumbing end).
void expect_identical_verdicts(const MachineResult& par, const MachineResult& ref,
                               const PostalParams& params, const std::string& tag) {
  const SimReport a = validate_schedule(par.schedule, params);
  const SimReport b = validate_schedule(ref.schedule, params);
  EXPECT_EQ(a.ok, b.ok) << tag;
  EXPECT_EQ(a.violations, b.violations) << tag;
  EXPECT_EQ(a.makespan, b.makespan) << tag;
  EXPECT_EQ(a.order_preserving, b.order_preserving) << tag;
}

class ParDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParDifferential, BcastRunsAreByteIdentical) {
  const unsigned threads = GetParam();
  Xoshiro256 rng(0xA55Cu ^ threads);
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t n = rng.uniform(1, 160);
    const std::uint64_t q = rng.uniform(1, 4);
    const Rational lambda(static_cast<std::int64_t>(rng.uniform(q, 8 * q)),
                          static_cast<std::int64_t>(q));
    const PostalParams params(n, lambda);
    const std::string tag = "threads=" + std::to_string(threads) +
                            " n=" + std::to_string(n) + " lambda=" + lambda.str();

    Machine machine(params, 1);
    BcastProtocol protocol(params);
    const MachineResult ref = machine.run(protocol);

    ParMachine par(params, 1);
    par.set_threads(threads);
    auto factory = make_protocol_factory<BcastProtocol>(params);
    const MachineResult got = par.run(factory);

    expect_identical_runs(got, ref, tag);
    expect_identical_verdicts(got, ref, params, tag);
    EXPECT_TRUE(par.last_run_info().parallel_engine) << tag;
    EXPECT_EQ(par.last_run_info().shards,
              std::min<std::uint64_t>(threads, n))
        << tag;
  }
}

TEST_P(ParDifferential, MultiMessageProtocolFamiliesAreByteIdentical) {
  const unsigned threads = GetParam();
  const PostalParams params(24, Rational(5, 2));
  const auto check = [&](auto ref_protocol, auto factory, std::uint32_t m,
                         const std::string& name) {
    const std::string tag = name + " threads=" + std::to_string(threads);
    Machine machine(params, m);
    const MachineResult ref = machine.run(ref_protocol);
    ParMachine par(params, m);
    par.set_threads(threads);
    const MachineResult got = par.run(factory);
    expect_identical_runs(got, ref, tag);
    expect_identical_verdicts(got, ref, params, tag);
  };
  check(BcastProtocol(params), make_protocol_factory<BcastProtocol>(params), 1,
        "bcast");
  check(RepeatProtocol(params, 6),
        make_protocol_factory<RepeatProtocol>(params, std::uint32_t{6}), 6,
        "repeat");
  check(PackProtocol(params, 6),
        make_protocol_factory<PackProtocol>(params, std::uint32_t{6}), 6, "pack");
  // PIPELINE-1 requires m <= lambda.
  check(Pipeline1Protocol(params, 2),
        make_protocol_factory<Pipeline1Protocol>(params, std::uint32_t{2}), 2,
        "pipeline1");
  check(Pipeline2Protocol(params, 6),
        make_protocol_factory<Pipeline2Protocol>(params, std::uint32_t{6}), 6,
        "pipeline2");
  check(DTreeProtocol(params, 2, 3),
        make_protocol_factory<DTreeProtocol>(params, std::uint32_t{2},
                                             std::uint64_t{3}),
        2, "dtree");
}

TEST_P(ParDifferential, FaultInjectedRunsAreByteIdentical) {
  const unsigned threads = GetParam();
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const std::uint64_t n = 8 + (seed % 3) * 12;
    const Rational lambda = seed % 2 == 0 ? Rational(2) : Rational(7, 2);
    const PostalParams params(n, lambda);
    RandomFaultOptions fopts;
    fopts.crashes = seed % 4;
    fopts.lossy_links = 4;
    fopts.loss_p = Rational(1, 3);
    fopts.spikes = seed % 3;
    const FaultPlan plan = random_fault_plan(params, seed, fopts);
    const std::string tag =
        "threads=" + std::to_string(threads) + " seed=" + std::to_string(seed);

    Machine machine(params, 1);
    machine.attach_faults(plan);
    BcastProtocol protocol(params);
    const MachineResult ref = machine.run(protocol);

    ParMachine par(params, 1);
    par.set_threads(threads);
    par.attach_faults(plan);
    auto factory = make_protocol_factory<BcastProtocol>(params);
    const MachineResult got = par.run(factory);

    expect_identical_runs(got, ref, tag);
    // The corpus stays on the lambda grid: the sharded engine must have
    // actually run, not fallen back.
    EXPECT_TRUE(par.last_run_info().parallel_engine) << tag;
  }
}

TEST_P(ParDifferential, UnrepresentableGridThrowsOverflowError) {
  // Crash times at 1/p for four primes near 10^6 have no int64 common
  // denominator: the run throws before any shard starts, never falling
  // back to another engine.
  const PostalParams params(8, Rational(3, 2));
  FaultPlan plan;
  const std::int64_t primes[] = {1000003, 1000033, 1000037, 1000039};
  ProcId proc = 1;
  for (const std::int64_t p : primes) {
    plan.crashes.push_back(CrashFault{proc++, Rational(1, p)});
  }
  ParMachine par(params, 1);
  par.set_threads(GetParam());
  par.attach_faults(plan);
  auto factory = make_protocol_factory<BcastProtocol>(params);
  EXPECT_THROW(static_cast<void>(par.run(factory)), OverflowError);
}

TEST_P(ParDifferential, OffGridTimerFallsBackToSequentialRerun) {
  // Shards cannot rescale a grid mid-run, so the whole run restarts on a
  // sequential Machine, which rescales; the result is the pinned reference
  // (tests/paper/offgrid_reference.hpp).
  const unsigned threads = GetParam();
  {
    ParMachine par(PostalParams(6, Rational(3, 2)), 1);
    par.set_threads(threads);
    auto factory = make_protocol_factory<offgrid::OneTimerProtocol>(std::uint64_t{6});
    EXPECT_EQ(pinned::render_run(par.run(factory)), offgrid::kOneTimerReference);
    EXPECT_FALSE(par.last_run_info().parallel_engine);
    EXPECT_EQ(par.last_run_info().fallback_reason, "off-grid timer armed mid-run");
  }
  {
    ParMachine par(PostalParams(8, Rational(3, 2)), 1);
    par.set_threads(threads);
    par.attach_faults(offgrid::crash_and_spike_plan());
    auto factory = make_protocol_factory<offgrid::TwoTimersProtocol>(std::uint64_t{8});
    EXPECT_EQ(pinned::render_run(par.run(factory)), offgrid::kTwoTimersReference);
    EXPECT_EQ(par.last_run_info().fallback_reason, "off-grid timer armed mid-run");
  }
}

/// A timer-heavy protocol whose timers stay on-grid: every rank forwards a
/// token around a ring after a per-hop timer delay. Exercises in-window
/// live pushes (timers and input-port requeues) across many barriers.
class TimerRelayProtocol final : public Protocol {
 public:
  TimerRelayProtocol(std::uint64_t n, std::int64_t delay_num,
                     std::int64_t delay_den)
      : n_(n), delay_(delay_num, delay_den) {}

  void on_start(MachineContext& ctx) override {
    if (ctx.self() == 0 && n_ > 1) ctx.set_timer(delay_, 0);
  }

  void on_receive(MachineContext& ctx, const Packet& packet) override {
    if (packet.ctl_a < 3 * n_) ctx.set_timer(delay_, packet.ctl_a);
  }

  void on_timer(MachineContext& ctx, std::uint64_t token) override {
    const ProcId next = static_cast<ProcId>((ctx.self() + 1) % n_);
    if (next != ctx.self()) ctx.send(next, Packet{0, token + 1, 0});
  }

 private:
  std::uint64_t n_;
  Rational delay_;
};

TEST_P(ParDifferential, OnGridTimerRelayIsByteIdentical) {
  const unsigned threads = GetParam();
  for (const auto& [num, den] : {std::pair<std::int64_t, std::int64_t>{1, 2},
                                 {3, 1},
                                 {0, 1}}) {
    const PostalParams params(12, Rational(5, 2));
    const std::string tag = "threads=" + std::to_string(threads) + " delay=" +
                            Rational(num, den).str();
    Machine machine(params, 1);
    TimerRelayProtocol protocol(12, num, den);
    const MachineResult ref = machine.run(protocol);

    ParMachine par(params, 1);
    par.set_threads(threads);
    auto factory = make_protocol_factory<TimerRelayProtocol>(
        std::uint64_t{12}, num, den);
    const MachineResult got = par.run(factory);

    expect_identical_runs(got, ref, tag);
    EXPECT_TRUE(par.last_run_info().parallel_engine) << tag;
    EXPECT_GT(got.stats.timers_fired, 0u) << tag;
  }
}

/// TraceMode::kCounters must change exactly one thing: the delivery list
/// is empty. Schedule, stats, fault timeline, first arrivals, delivery
/// count, and makespan all stay byte-equal to the kFull reference --
/// fault-free and fault-injected, at every thread count.
TEST_P(ParDifferential, CountersModeMatchesFullModeSummaries) {
  const unsigned threads = GetParam();
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{9}}) {
    const std::uint64_t n = 48 + seed;
    const PostalParams params(n, Rational(5, 2));
    FaultPlan plan;
    if (seed != 0) {
      RandomFaultOptions fopts;
      fopts.crashes = 2;
      fopts.lossy_links = 4;
      fopts.loss_p = Rational(1, 3);
      fopts.spikes = 1;
      plan = random_fault_plan(params, seed, fopts);
    }
    const std::string tag =
        "threads=" + std::to_string(threads) + " seed=" + std::to_string(seed);

    ParMachine full(params, 1);
    full.set_threads(threads);
    if (!plan.empty()) full.attach_faults(plan);
    auto full_factory = make_protocol_factory<BcastProtocol>(params);
    const MachineResult ref = full.run(full_factory);

    ParMachine ctr(params, 1);
    ctr.set_threads(threads);
    ctr.set_trace_mode(TraceMode::kCounters);
    if (!plan.empty()) ctr.attach_faults(plan);
    auto ctr_factory = make_protocol_factory<BcastProtocol>(params);
    const MachineResult got = ctr.run(ctr_factory);

    EXPECT_EQ(got.trace.mode(), TraceMode::kCounters) << tag;
    EXPECT_TRUE(got.trace.deliveries().empty()) << tag;
    EXPECT_EQ(got.trace.delivery_count(), ref.trace.deliveries().size()) << tag;
    EXPECT_EQ(got.trace.makespan(), ref.trace.makespan()) << tag;
    for (ProcId p = 0; p < n; ++p) {
      EXPECT_EQ(got.trace.arrival(p, 0), ref.trace.arrival(p, 0)) << tag;
    }
    EXPECT_EQ(got.schedule.events(), ref.schedule.events()) << tag;
    EXPECT_EQ(got.stats.events_processed, ref.stats.events_processed) << tag;
    EXPECT_EQ(got.stats.sends_enqueued, ref.stats.sends_enqueued) << tag;
    EXPECT_EQ(got.stats.port_busy, ref.stats.port_busy) << tag;
    EXPECT_EQ(got.faults.events, ref.faults.events) << tag;
    EXPECT_EQ(ctr.last_run_info().trace_mode, TraceMode::kCounters) << tag;
    // The sequential Machine agrees on the elided summary too.
    Machine seq(params, 1);
    seq.set_trace_mode(TraceMode::kCounters);
    if (!plan.empty()) seq.attach_faults(plan);
    BcastProtocol protocol(params);
    const MachineResult seq_got = seq.run(protocol);
    EXPECT_TRUE(seq_got.trace.deliveries().empty()) << tag;
    EXPECT_EQ(seq_got.trace.delivery_count(), got.trace.delivery_count()) << tag;
    EXPECT_EQ(seq_got.trace.makespan(), got.trace.makespan()) << tag;
  }
}

/// The arena contract: run() twice on ONE ParMachine (buffers at their
/// high-water mark the second time) and every result must be byte-equal to
/// a fresh engine's -- randomized workloads including faults, plus the
/// zero-growth claim on the warm rerun of the identical workload.
TEST_P(ParDifferential, BufferReuseAcrossRunsIsByteIdentical) {
  const unsigned threads = GetParam();
  Xoshiro256 rng(0xBEEFu + threads);
  for (int i = 0; i < 6; ++i) {
    const std::uint64_t n = rng.uniform(2, 96);
    const Rational lambda(static_cast<std::int64_t>(rng.uniform(2, 8)),
                          static_cast<std::int64_t>(rng.uniform(1, 2)));
    const PostalParams params(n, lambda);
    FaultPlan plan;
    if (i % 2 == 1) {
      RandomFaultOptions fopts;
      fopts.crashes = static_cast<std::uint64_t>(1 + (i % 3));
      fopts.lossy_links = 3;
      fopts.loss_p = Rational(1, 4);
      plan = random_fault_plan(params, 0x5EEDu + static_cast<unsigned>(i), fopts);
    }
    const std::string tag = "threads=" + std::to_string(threads) +
                            " i=" + std::to_string(i) +
                            " n=" + std::to_string(n);

    const auto fresh_run = [&] {
      ParMachine fresh(params, 1);
      fresh.set_threads(threads);
      if (!plan.empty()) fresh.attach_faults(plan);
      auto factory = make_protocol_factory<BcastProtocol>(params);
      return fresh.run(factory);
    };
    const MachineResult ref = fresh_run();

    ParMachine reused(params, 1);
    reused.set_threads(threads);
    if (!plan.empty()) reused.attach_faults(plan);
    auto factory = make_protocol_factory<BcastProtocol>(params);
    const MachineResult first = reused.run(factory);
    expect_identical_runs(first, ref, tag + " cold");
    const MachineResult second = reused.run(factory);
    expect_identical_runs(second, ref, tag + " warm");
    if (reused.last_run_info().parallel_engine) {
      // Same workload, warmed buffers: the steady state allocates nothing.
      EXPECT_EQ(reused.last_run_info().arena_growths, 0u) << tag;
    }
    const MachineResult third = fresh_run();
    expect_identical_runs(third, ref, tag + " fresh-after");
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParDifferential,
                         ::testing::ValuesIn(thread_counts()));

}  // namespace
}  // namespace postal
