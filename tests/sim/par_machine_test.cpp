// Unit coverage for the sharded runtime's mechanics: shard partitioning,
// run introspection (ParRunInfo), fallback plumbing, and the guard rails.
// Byte-identity against the sequential Machine across the full corpus
// lives in tests/paper/par_differential_test.cpp.
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "faults/fault_plan.hpp"
#include "sim/machine.hpp"
#include "sim/par_machine.hpp"
#include "sim/protocols/bcast_protocol.hpp"
#include "sim/protocols/multi_protocols.hpp"
#include "sim/protocols/reliable_bcast.hpp"
#include "sim/validator.hpp"
#include "support/error.hpp"

namespace postal {
namespace {

TEST(ParMachine, SingleRankRunCompletesWithNoEvents) {
  const PostalParams params(1, Rational(2));
  ParMachine par(params, 1);
  par.set_threads(4);
  auto factory = make_protocol_factory<BcastProtocol>(params);
  const MachineResult result = par.run(factory);
  EXPECT_TRUE(result.schedule.empty());
  EXPECT_TRUE(result.trace.deliveries().empty());
  EXPECT_TRUE(par.last_run_info().parallel_engine);
  EXPECT_EQ(par.last_run_info().shards, 1u);  // capped at n
}

TEST(ParMachine, RunInfoDescribesTheShardedRun) {
  const PostalParams params(64, Rational(3));
  ParMachine par(params, 1);
  par.set_threads(4);
  auto factory = make_protocol_factory<BcastProtocol>(params);
  const MachineResult result = par.run(factory);
  EXPECT_TRUE(result.trace.covers_all(0));

  const ParRunInfo& info = par.last_run_info();
  EXPECT_TRUE(info.parallel_engine);
  EXPECT_TRUE(info.fallback_reason.empty());
  EXPECT_EQ(info.shards, 4u);
  ASSERT_EQ(info.shard.size(), 4u);
  EXPECT_GT(info.windows, 0u);
  // BCAST floods rank 0's subtree outward: events must cross shards, and
  // every event reaches its destination through a barrier mailbox.
  EXPECT_GT(info.cross_shard_events, 0u);
  EXPECT_GE(info.barrier_events, info.cross_shard_events);
  EXPECT_GT(info.replayed_pops, 0u);
  std::uint64_t pops = 0;
  std::uint64_t mailbox_in = 0;
  for (const ParShardInfo& s : info.shard) {
    pops += s.pops;
    mailbox_in += s.mailbox_in;
  }
  EXPECT_GT(pops, 0u);
  EXPECT_EQ(mailbox_in, info.barrier_events);
}

/// Every rank sends once at start and once more after a timer of
/// 10^7 + rank units, so a run's send ticks span far past the counting
/// cap of the schedule assembly (its comparison path builds the result).
class LongTimerProtocol final : public Protocol {
 public:
  explicit LongTimerProtocol(std::uint64_t n) : n_(n) {}
  void on_start(MachineContext& ctx) override {
    ctx.send(neighbour(ctx.self(), 1), Packet{});
    ctx.set_timer(Rational(kDelay + ctx.self()), 0);
  }
  void on_receive(MachineContext& /*ctx*/, const Packet& /*packet*/) override {}
  void on_timer(MachineContext& ctx, std::uint64_t /*token*/) override {
    ctx.send(neighbour(ctx.self(), 2), Packet{});
  }

  static constexpr std::int64_t kDelay = 10'000'000;

 private:
  [[nodiscard]] ProcId neighbour(ProcId p, std::uint64_t k) const {
    return static_cast<ProcId>((p + k) % n_);
  }
  std::uint64_t n_;
};

TEST(ParMachine, SchedulesSpanningPastTheCountingCapMatchAddAndSort) {
  const std::uint64_t n = 48;
  const PostalParams params(n, Rational(5, 2));
  Schedule expected;
  for (ProcId p = static_cast<ProcId>(n); p-- > 0;) {
    expected.add(p, static_cast<ProcId>((p + 2) % n), 0,
                 Rational(LongTimerProtocol::kDelay + p));
    expected.add(p, static_cast<ProcId>((p + 1) % n), 0, Rational(0));
  }
  expected.sort();

  Machine machine(params, 1);
  LongTimerProtocol protocol(n);
  EXPECT_EQ(machine.run(protocol).schedule.events(), expected.events());
  for (const unsigned threads : {1u, 2u, 4u}) {
    ParMachine par(params, 1);
    par.set_threads(threads);
    auto factory = make_protocol_factory<LongTimerProtocol>(n);
    const MachineResult result = par.run(factory);
    EXPECT_TRUE(par.last_run_info().parallel_engine) << threads;
    EXPECT_EQ(result.schedule.events(), expected.events()) << threads;
  }
}

/// Rank 0 sends to every other rank in turn on its one port; no other rank
/// sends, so every shard but the first logs nothing.
class StarProtocol final : public Protocol {
 public:
  explicit StarProtocol(std::uint64_t n) : n_(n) {}
  void on_start(MachineContext& ctx) override {
    if (ctx.self() != 0) return;
    for (std::uint64_t p = 1; p < n_; ++p) {
      ctx.send(static_cast<ProcId>(p), Packet{0, p, 0});
    }
  }
  void on_receive(MachineContext& /*ctx*/, const Packet& /*packet*/) override {}

 private:
  std::uint64_t n_;
};

/// The parts of a run the schedule assembly and the port_busy fold build,
/// plus the trace and counters, record for record.
void expect_same_run(const MachineResult& par, const MachineResult& ref,
                     const std::string& tag) {
  EXPECT_EQ(par.schedule.records(), ref.schedule.records()) << tag;
  EXPECT_EQ(par.schedule.q(), ref.schedule.q()) << tag;
  EXPECT_EQ(par.trace.deliveries(), ref.trace.deliveries()) << tag;
  EXPECT_EQ(par.stats.events_processed, ref.stats.events_processed) << tag;
  EXPECT_EQ(par.stats.sends_enqueued, ref.stats.sends_enqueued) << tag;
  EXPECT_EQ(par.stats.sends_deferred, ref.stats.sends_deferred) << tag;
  EXPECT_EQ(par.stats.max_fifo_depth, ref.stats.max_fifo_depth) << tag;
  EXPECT_EQ(par.stats.port_busy, ref.stats.port_busy) << tag;
}

TEST(ParMachine, AssemblyOverUnevenAndIdleShardsMatchesMachine) {
  // n = 3 * 2^15 + 7 divides by none of 2, 3, 4: the shard bounds cut the
  // assembly's 2^15-rank blocks off their alignment. Under the star only
  // shard 0 sends, so the other segments are empty. Each engine runs twice;
  // the warm rerun reuses every buffer and grows none.
  const std::uint64_t n = 3 * kAssemblyBlockRanks + 7;
  const PostalParams bcast_params(n, Rational(5, 2));
  const PostalParams star_params(4099, Rational(3));
  Machine bcast_machine(bcast_params, 1);
  BcastProtocol bcast(bcast_params);
  const MachineResult bcast_ref = bcast_machine.run(bcast);
  Machine star_machine(star_params, 1);
  StarProtocol star(star_params.n());
  const MachineResult star_ref = star_machine.run(star);
  for (const unsigned threads : {1u, 2u, 3u, 4u}) {
    ParMachine par(bcast_params, 1);
    par.set_threads(threads);
    auto factory = make_protocol_factory<BcastProtocol>(bcast_params);
    for (const char* pass : {"cold", "warm"}) {
      const std::string tag = "bcast threads=" + std::to_string(threads) + " " + pass;
      expect_same_run(par.run(factory), bcast_ref, tag);
      EXPECT_TRUE(par.last_run_info().parallel_engine) << tag;
    }
    EXPECT_EQ(par.last_run_info().arena_growths, 0u) << threads;

    ParMachine star_par(star_params, 1);
    star_par.set_threads(threads);
    auto star_factory = make_protocol_factory<StarProtocol>(star_params.n());
    for (const char* pass : {"cold", "warm"}) {
      const std::string tag = "star threads=" + std::to_string(threads) + " " + pass;
      expect_same_run(star_par.run(star_factory), star_ref, tag);
    }
    EXPECT_EQ(star_par.last_run_info().arena_growths, 0u) << threads;
  }
}

/// Every part of a run a caller can read: records, trace, stats and the
/// fault timeline.
void expect_same_faulted_run(const MachineResult& par, const MachineResult& ref,
                             const std::string& tag) {
  expect_same_run(par, ref, tag);
  EXPECT_EQ(par.stats.timers_set, ref.stats.timers_set) << tag;
  EXPECT_EQ(par.stats.timers_fired, ref.stats.timers_fired) << tag;
  EXPECT_EQ(par.stats.receives_queued, ref.stats.receives_queued) << tag;
  EXPECT_EQ(par.faults.crashes_applied, ref.faults.crashes_applied) << tag;
  EXPECT_EQ(par.faults.sends_suppressed, ref.faults.sends_suppressed) << tag;
  EXPECT_EQ(par.faults.drops_crash, ref.faults.drops_crash) << tag;
  EXPECT_EQ(par.faults.drops_loss, ref.faults.drops_loss) << tag;
  EXPECT_EQ(par.faults.spikes_applied, ref.faults.spikes_applied) << tag;
  EXPECT_EQ(par.faults.events, ref.faults.events) << tag;
}

TEST(ParMachine, LoadSizedWindowsMatchMachine) {
  // Both runs hold more than kWindowEventBudget pending events in some
  // lambda-window, so those windows split. The lambda-wide windows of the
  // engine before load sizing were counted on these exact runs: 12 for the
  // BCAST and 116 for the reliable one. The reliable run's split windows
  // hold ack timers and input-port requeues.
  struct Case {
    std::string name;
    PostalParams params;
    FaultPlan plan;
    std::uint64_t lambda_windows;
    bool reliable;
  };
  const PostalParams bcast_params(std::uint64_t{1} << 18, Rational(5, 2));
  const PostalParams reliable_params(std::uint64_t{1} << 17, Rational(5, 2));
  RandomFaultOptions fopts;
  fopts.crashes = 8;
  fopts.lossy_links = 64;
  fopts.loss_p = Rational(1, 2);
  fopts.spikes = 2;
  const std::vector<Case> cases = {
      {"bcast n=2^18", bcast_params, FaultPlan{}, 12, false},
      {"reliable n=2^17", reliable_params, random_fault_plan(reliable_params, 2727, fopts),
       116, true}};
  for (const Case& c : cases) {
    Machine machine(c.params, 1);
    if (!c.plan.empty()) machine.attach_faults(c.plan);
    BcastProtocol bcast(c.params);
    ReliableBcastProtocol reliable(c.params);
    Protocol& protocol = c.reliable ? static_cast<Protocol&>(reliable) : bcast;
    const MachineResult ref = machine.run(protocol);
    if (c.reliable) {
      EXPECT_GT(ref.stats.timers_fired, 0u);
      EXPECT_GT(ref.stats.receives_queued, 0u);
      EXPECT_GT(ref.faults.drops_loss + ref.faults.drops_crash, 0u);
    }
    std::uint64_t windows = 0;
    for (const unsigned threads : {1u, 2u, 3u, 4u}) {
      ParMachine par(c.params, 1);
      par.set_threads(threads);
      if (!c.plan.empty()) par.attach_faults(c.plan);
      auto bcast_factory = make_protocol_factory<BcastProtocol>(c.params);
      auto reliable_factory = make_protocol_factory<ReliableBcastProtocol>(
          c.params, ReliableBcastOptions{});
      ShardProtocolFactory& factory =
          c.reliable ? static_cast<ShardProtocolFactory&>(reliable_factory) : bcast_factory;
      for (const char* pass : {"cold", "warm"}) {
        const std::string tag = c.name + " threads=" + std::to_string(threads) + " " + pass;
        expect_same_faulted_run(par.run(factory), ref, tag);
        const ParRunInfo& info = par.last_run_info();
        EXPECT_TRUE(info.parallel_engine) << tag;
        EXPECT_GT(info.windows, c.lambda_windows) << tag;
        if (windows == 0) windows = info.windows;
        EXPECT_EQ(info.windows, windows) << tag;
      }
      EXPECT_EQ(par.last_run_info().arena_growths, 0u) << c.name << " threads=" << threads;
    }
  }
}

TEST(ParMachine, WindowCountsOfSmallRunsArePinned) {
  // Runs whose lambda-windows never pass kWindowEventBudget keep the
  // lambda-wide windows exactly: these counts were recorded before
  // windows were sized by load, per thread count 1 / 2 / 3 / 4.
  struct Pin {
    std::uint64_t windows;
    std::vector<std::vector<std::uint64_t>> stalled;  ///< [threads - 1][shard]
  };
  const auto check = [](const std::string& name, ShardProtocolFactory& factory,
                        const PostalParams& params, std::uint32_t messages,
                        const FaultPlan& plan, const Pin& pin) {
    for (unsigned threads = 1; threads <= 4; ++threads) {
      ParMachine par(params, messages);
      par.set_threads(threads);
      if (!plan.empty()) par.attach_faults(plan);
      static_cast<void>(par.run(factory));
      const ParRunInfo& info = par.last_run_info();
      const std::string tag = name + " threads=" + std::to_string(threads);
      EXPECT_EQ(info.windows, pin.windows) << tag;
      std::vector<std::uint64_t> stalled;
      for (const ParShardInfo& s : info.shard) stalled.push_back(s.stalled_windows);
      EXPECT_EQ(stalled, pin.stalled[threads - 1]) << tag;
    }
  };

  const PostalParams bcast_params(64, Rational(3));
  auto bcast = make_protocol_factory<BcastProtocol>(bcast_params);
  check("bcast n=64", bcast, bcast_params, 1, FaultPlan{},
        Pin{4, {{0}, {0, 0}, {1, 0, 0}, {1, 0, 0, 0}}});

  const PostalParams faulted_params(100, Rational(5, 2));
  RandomFaultOptions fopts;
  fopts.crashes = 2;
  fopts.lossy_links = 3;
  fopts.loss_p = Rational(1, 4);
  fopts.spikes = 1;
  auto faulted = make_protocol_factory<BcastProtocol>(faulted_params);
  check("faulted bcast n=100", faulted, faulted_params, 1,
        random_fault_plan(faulted_params, 27, fopts),
        Pin{5, {{0}, {0, 0}, {1, 0, 0}, {1, 0, 0, 1}}});

  const PostalParams reliable_params(48, Rational(2));
  RandomFaultOptions ropts;
  ropts.crashes = 2;
  ropts.lossy_links = 6;
  ropts.loss_p = Rational(1, 3);
  ropts.spikes = 1;
  auto reliable =
      make_protocol_factory<ReliableBcastProtocol>(reliable_params, ReliableBcastOptions{});
  check("reliable n=48", reliable, reliable_params, 1,
        random_fault_plan(reliable_params, 1127, ropts),
        Pin{31, {{0}, {5, 14}, {13, 7, 20}, {13, 12, 14, 21}}});

  const PostalParams pipeline_params(24, Rational(5, 2));
  auto pipeline = make_protocol_factory<Pipeline2Protocol>(pipeline_params, std::uint32_t{6});
  check("pipeline2 n=24 m=6", pipeline, pipeline_params, 6, FaultPlan{},
        Pin{9, {{0}, {0, 1}, {1, 1, 2}, {3, 0, 1, 3}}});
}

TEST(ParMachine, WarmEngineKeepsAtMostAHundredBytesPerRank) {
  // What a warm engine keeps between runs at 2 lanes, at most 100 B/rank:
  // window buffers, merge scratch, send logs, rank ports and queue chunks.
  const std::uint64_t n = std::uint64_t{1} << 20;
  const PostalParams params(n, Rational(5, 2));
  ParMachine par(params, 1);
  par.set_threads(2);
  auto factory = make_protocol_factory<BcastProtocol>(params);
  static_cast<void>(par.run(factory));
  const std::uint64_t cold = par.last_run_info().arena_bytes;
  static_cast<void>(par.run(factory));
  const ParRunInfo& info = par.last_run_info();
  EXPECT_EQ(info.arena_growths, 0u);
  EXPECT_EQ(info.arena_bytes, cold);
  EXPECT_GE(info.arena_bytes, n * sizeof(RankPorts));
  EXPECT_LE(info.arena_bytes, 100 * n)
      << static_cast<double>(info.arena_bytes) / static_cast<double>(n) << " B/rank";
}

/// One way a handler can misuse its MachineContext, done by rank 5 in its
/// on_start (after ranks 0-4 ran theirs) so every engine fails mid-preamble.
enum class Misuse { kDestOutOfRange, kSendToSelf, kMsgOutOfRange, kNegativeDelay };

class MisbehavingProtocol final : public Protocol {
 public:
  MisbehavingProtocol(std::uint64_t n, Misuse misuse) : n_(n), misuse_(misuse) {}
  void on_start(MachineContext& ctx) override {
    if (ctx.self() != kCulprit) {
      ctx.send(static_cast<ProcId>((ctx.self() + 1) % n_), Packet{});
      return;
    }
    switch (misuse_) {
      case Misuse::kDestOutOfRange:
        ctx.send(static_cast<ProcId>(n_), Packet{});
        break;
      case Misuse::kSendToSelf:
        ctx.send(ctx.self(), Packet{});
        break;
      case Misuse::kMsgOutOfRange:
        ctx.send(0, Packet{1, 0, 0});  // the machines carry one message
        break;
      case Misuse::kNegativeDelay:
        ctx.set_timer(Rational(-1, 2), 0);
        break;
    }
  }
  void on_receive(MachineContext& /*ctx*/, const Packet& /*packet*/) override {}

  static constexpr ProcId kCulprit = 5;

 private:
  std::uint64_t n_;
  Misuse misuse_;
};

/// The exception `run` raises, as its dynamic type's name and what().
template <typename Run>
std::pair<std::string, std::string> raised(Run&& run) {
  try {
    run();
  } catch (const InvalidArgument& e) {
    return {"InvalidArgument", e.what()};
  } catch (const LogicError& e) {
    return {"LogicError", e.what()};
  } catch (const std::exception& e) {
    return {"std::exception", e.what()};
  }
  return {"nothing", ""};
}

TEST(ParMachine, MisbehavingHandlersRaiseWhatMachineRaises) {
  const std::uint64_t n = 12;
  const PostalParams params(n, Rational(5, 2));
  for (const Misuse misuse : {Misuse::kDestOutOfRange, Misuse::kSendToSelf,
                              Misuse::kMsgOutOfRange, Misuse::kNegativeDelay}) {
    const std::string tag = "misuse " + std::to_string(static_cast<int>(misuse));
    Machine machine(params, 1);
    MisbehavingProtocol protocol(n, misuse);
    const auto expected = raised([&] { static_cast<void>(machine.run(protocol)); });
    EXPECT_EQ(expected.first, "InvalidArgument") << tag;
    for (const unsigned threads : {1u, 2u, 4u}) {
      ParMachine par(params, 1);
      par.set_threads(threads);
      auto factory = make_protocol_factory<MisbehavingProtocol>(n, misuse);
      EXPECT_EQ(raised([&] { static_cast<void>(par.run(factory)); }), expected)
          << tag << " threads=" << threads;
    }
  }
}

/// Rank 1 and rank 2 both send to rank 3 at t = 3, so the two packets share
/// one nominal arrival, but rank 2's handler runs first: its packet was
/// delivered by a push made at t = 0, rank 1's timer was armed at t = 2.
/// Rank 3 forwards each message to rank 4 as soon as it holds it.
class FifoTieProtocol final : public Protocol {
 public:
  void on_start(MachineContext& ctx) override {
    if (ctx.self() != 0) return;
    ctx.send(1, Packet{0, 0, 0});  // arrives at 2
    ctx.send(2, Packet{1, 0, 0});  // port busy until 1: arrives at 3
  }
  void on_receive(MachineContext& ctx, const Packet& packet) override {
    switch (ctx.self()) {
      case 1:
        ctx.set_timer(Rational(1), packet.msg);
        break;
      case 2:
        ctx.send(3, packet);
        break;
      case 3:
        ctx.send(4, packet);
        break;
      default:
        break;
    }
  }
  void on_timer(MachineContext& ctx, std::uint64_t token) override {
    ctx.send(3, Packet{static_cast<MsgId>(token), 0, 0});
  }
};

TEST(FifoReceive, EnginesPairTiesInCreationOrderTheValidatorInScheduleOrder) {
  const PostalParams params(5, Rational(2));
  // Both packets reach rank 3 nominally at 5; its input port serializes
  // them. The engines give the window [4, 5) to the packet pushed first
  // (rank 2's M2) and queue rank 1's M1 to 6.
  const std::vector<Delivery> at_rank3_engine = {
      Delivery{2, 3, 1, Rational(3), Rational(5)},
      Delivery{1, 3, 0, Rational(3), Rational(6)}};
  const auto at_rank3 = [](const Trace& trace) {
    std::vector<Delivery> out;
    for (const Delivery& d : trace.deliveries()) {
      if (d.dst == 3) out.push_back(d);
    }
    return out;
  };

  Machine machine(params, 2);
  FifoTieProtocol protocol;
  const MachineResult ref = machine.run(protocol);
  EXPECT_EQ(ref.stats.receives_queued, 1u);
  EXPECT_EQ(at_rank3(ref.trace), at_rank3_engine);
  // Rank 3 forwards M2 at 5, the moment the engine delivered it.
  const std::vector<SendEvent> sends = ref.schedule.events();
  ASSERT_EQ(sends.size(), 6u);
  EXPECT_EQ(sends[4], (SendEvent{3, 4, 1, Rational(5)}));
  EXPECT_EQ(sends[5], (SendEvent{3, 4, 0, Rational(6)}));
  for (const unsigned threads : {1u, 2u, 4u}) {
    ParMachine par(params, 2);
    par.set_threads(threads);
    auto factory = make_protocol_factory<FifoTieProtocol>();
    const MachineResult got = par.run(factory);
    EXPECT_EQ(got.schedule.records(), ref.schedule.records()) << threads;
    EXPECT_EQ(got.trace.deliveries(), ref.trace.deliveries()) << threads;
  }

  // The schedule does not record which packet was created first, so the
  // validator breaks the tie by schedule order, (t, src): rank 1's M1 gets
  // the window ending at 5 and rank 2's M2 is queued to 6. Rank 3's
  // forward of M2 at 5 then precedes its hold of M2, a causality breach
  // in a schedule the engines produced (docs/SIMULATION.md).
  ValidatorOptions vopts;
  vopts.messages = 2;
  vopts.require_coverage = false;
  vopts.fifo_receive = true;
  const SimReport report = validate_schedule(ref.schedule, params, vopts);
  EXPECT_EQ(at_rank3(report.trace),
            (std::vector<Delivery>{Delivery{1, 3, 0, Rational(3), Rational(5)},
                                   Delivery{2, 3, 1, Rational(3), Rational(6)}}));
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.violations.size(), 1u) << report.summary();
}

TEST(ParMachine, ThreadCountIsCappedAtTheRankCount) {
  const PostalParams params(3, Rational(2));
  ParMachine par(params, 1);
  par.set_threads(16);
  EXPECT_EQ(par.threads(), 16u);
  auto factory = make_protocol_factory<BcastProtocol>(params);
  const MachineResult result = par.run(factory);
  EXPECT_EQ(par.last_run_info().shards, 3u);
  EXPECT_TRUE(result.trace.covers_all(0));
}

TEST(ParMachine, SetThreadsZeroMeansOne) {
  ParMachine par(PostalParams(8, Rational(2)), 1);
  par.set_threads(0);
  EXPECT_EQ(par.threads(), 1u);
}

TEST(ParMachine, WindowedEngineRunsAtOneShardToo) {
  // threads == 1 is not a sequential special case: the windowed engine and
  // its merge-replay must run (and agree) at a single shard as well.
  const PostalParams params(32, Rational(5, 2));
  ParMachine par(params, 1);
  par.set_threads(1);
  auto factory = make_protocol_factory<BcastProtocol>(params);
  const MachineResult result = par.run(factory);
  EXPECT_TRUE(par.last_run_info().parallel_engine);
  EXPECT_EQ(par.last_run_info().shards, 1u);
  EXPECT_GT(par.last_run_info().windows, 0u);
  EXPECT_TRUE(result.trace.covers_all(0));
}

TEST(ParMachine, MaxEventsGuardThrowsLikeTheSequentialEngine) {
  const PostalParams params(64, Rational(2));
  Machine machine(params, 1);
  BcastProtocol protocol(params);
  EXPECT_THROW(static_cast<void>(machine.run(protocol, /*max_events=*/8)),
               LogicError);

  ParMachine par(params, 1);
  par.set_threads(4);
  auto factory = make_protocol_factory<BcastProtocol>(params);
  EXPECT_THROW(static_cast<void>(par.run(factory, /*max_events=*/8)), LogicError);
}

TEST(ParMachine, FaultPlanAttachDetachMirrorsMachine) {
  const PostalParams params(12, Rational(2));
  ParMachine par(params, 1);
  EXPECT_FALSE(par.has_faults());
  FaultPlan plan;
  plan.crashes.push_back(CrashFault{3, Rational(1)});
  par.attach_faults(plan);
  EXPECT_TRUE(par.has_faults());
  auto factory = make_protocol_factory<BcastProtocol>(params);
  const MachineResult faulted = par.run(factory);
  EXPECT_EQ(faulted.faults.crashes_applied, 1u);
  par.detach_faults();
  EXPECT_FALSE(par.has_faults());
  const MachineResult clean = par.run(factory);
  EXPECT_EQ(clean.faults.crashes_applied, 0u);
  EXPECT_TRUE(clean.trace.covers_all(0));
}

TEST(ParMachine, AttachingAnEmptyPlanIsANoOp) {
  ParMachine par(PostalParams(4, Rational(1)), 1);
  par.attach_faults(FaultPlan{});
  EXPECT_FALSE(par.has_faults());
}

TEST(ProtocolFactory, MakesOneInstancePerShard) {
  const PostalParams params(8, Rational(2));
  auto factory = make_protocol_factory<BcastProtocol>(params);
  const std::unique_ptr<Protocol> a = factory.make(0, 2);
  const std::unique_ptr<Protocol> b = factory.make(1, 2);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a.get(), b.get());
}

}  // namespace
}  // namespace postal
