// Sharded event-driven MPS(n, lambda) runtime: the parallel twin of
// sim::Machine (docs/SIMULATION.md, docs/ARCHITECTURE.md).
//
// The postal model is its own lookahead oracle: a message sent at time t
// arrives at t + lambda at the earliest, so once every processor has been
// simulated up to some time B, no cross-processor interaction can occur
// before B + lambda. ParMachine exploits exactly that. Ranks are
// partitioned into contiguous shards, each shard runs the tick-domain
// event loop (Machine's per-event model, the shared TickStep of
// sim/tick_step.hpp, over TickEventQueue::drain_current_tick batched pops) on
// a par::ThreadPool lane, and shards synchronize at barriers at most
// lambda ticks apart (closer where the pending load is heavy; see
// kWindowEventBudget): sends land in per-destination-shard mailboxes that are
// drained -- in globally deterministic order -- when the window closes.
// This is classic conservative (null-message) parallel discrete-event
// simulation with the model's latency as the lookahead.
//
// Determinism contract (the point of the design): a ParMachine run is
// byte-identical to the sequential Machine run of the same protocol --
// same Schedule, same Trace deliveries in the same order, same stats, same
// fault timeline -- at *every* thread count, not just threads == 1. The
// barrier replays each window's per-shard pop logs through a k-way merge
// that reconstructs the exact global pop order the sequential engine would
// have used (see par_machine.cpp for the stamp algebra), so the shard
// count is unobservable in the result. tests/paper/par_differential_test
// enforces this across the protocol families, fault plans, and thread
// counts.
//
// Shares its tick grid with Machine (sim/tick_setup.hpp): a grid that
// cannot fit int64 raises OverflowError. A run that arms a timer off the
// grid mid-flight cannot rescale across diverged shards, so it reruns on a
// fresh sequential Machine (which rescales), reported in last_run_info().
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/machine.hpp"
#include "sim/tick_setup.hpp"

namespace postal {

/// Makes one Protocol instance per shard. ParMachine cannot share a single
/// Protocol across lanes: the paper protocols are thread-compatible but
/// not thread-safe (GenFib memoizes, handlers keep per-run scratch), so
/// each shard drives its own instance. Handlers only ever see events for
/// ranks the shard owns, and any per-rank state a protocol keeps is only
/// touched through those ranks, so per-shard instances compose into
/// exactly the sequential behavior.
class ShardProtocolFactory {
 public:
  virtual ~ShardProtocolFactory() = default;

  /// Create the instance shard `shard` of `shards` will run. Called once
  /// per shard per run; implementations must return equivalently-behaving
  /// instances (same construction parameters) for a deterministic result.
  [[nodiscard]] virtual std::unique_ptr<Protocol> make(std::uint32_t shard,
                                                       std::uint32_t shards) = 0;

  /// Hands each instance back after the run, before run() returns, so
  /// callers can harvest per-run protocol state. Any counter a protocol
  /// keeps is incremented from exactly one rank's handler, so summing it
  /// across reclaimed instances yields the sequential-run total (this is
  /// how run_reliable_bcast folds ReliableBcastCounters). On a sequential
  /// fallback the single instance arrives as shard 0 of 1. Not called if
  /// run() throws. Default: discard.
  virtual void reclaim(std::uint32_t shard, std::unique_ptr<Protocol> protocol) {
    static_cast<void>(shard);
    static_cast<void>(protocol);
  }
};

/// ShardProtocolFactory for the common case: every shard gets `P`
/// constructed from the same argument tuple.
template <typename P, typename... Args>
class ProtocolFactory final : public ShardProtocolFactory {
 public:
  explicit ProtocolFactory(Args... args) : args_(std::move(args)...) {}

  [[nodiscard]] std::unique_ptr<Protocol> make(std::uint32_t /*shard*/,
                                               std::uint32_t /*shards*/) override {
    return std::apply(
        [](const Args&... a) { return std::make_unique<P>(a...); }, args_);
  }

 private:
  std::tuple<Args...> args_;
};

/// Deduce the factory's stored-argument types from the call site:
/// `auto f = make_protocol_factory<BcastProtocol>(params, origin);`.
template <typename P, typename... Args>
[[nodiscard]] ProtocolFactory<P, std::decay_t<Args>...> make_protocol_factory(
    Args&&... args) {
  return ProtocolFactory<P, std::decay_t<Args>...>(std::forward<Args>(args)...);
}

/// Most pending events a ParMachine window may open with, summed over the
/// shards, unless its first tick alone holds more: a window is the widest
/// span of at most lambda ticks that stays within it (docs/SIMULATION.md,
/// "The window protocol"). It bounds the window buffers, which the busiest
/// lambda-window would size otherwise.
inline constexpr std::size_t kWindowEventBudget = std::size_t{1} << 16;

/// Per-shard observability of one sharded run (obs::record_par_run).
struct ParShardInfo {
  std::uint64_t pops = 0;             ///< events this shard's loop popped
  /// Windows in which this shard popped nothing: it sat at the barrier the
  /// whole window. The deterministic proxy for barrier-stall time (wall
  /// clock would vary run to run; this is a property of the workload).
  std::uint64_t stalled_windows = 0;
  std::uint64_t mailbox_in = 0;       ///< events received at barriers
};

/// What the last ParMachine::run did, for metrics and tests.
struct ParRunInfo {
  /// True iff the sharded engine produced the result; false means a
  /// sequential-Machine fallback ran (see fallback_reason).
  bool parallel_engine = false;
  std::string fallback_reason;        ///< empty when parallel_engine
  std::uint32_t shards = 0;
  std::uint64_t windows = 0;          ///< load-sized lookahead windows executed
  std::uint64_t barrier_events = 0;   ///< events routed through mailboxes
  std::uint64_t cross_shard_events = 0;  ///< subset that changed shard
  std::uint64_t replayed_pops = 0;    ///< pop-log entries merged at barriers
  /// Deliveries / fault events materialized by the barrier replay (the
  /// work the parallel materialization pass moved off the sequential
  /// merge; obs: par.merge_deliveries / par.merge_fault_events).
  std::uint64_t merge_deliveries = 0;
  std::uint64_t merge_fault_events = 0;
  /// Sealed per-(source, destination) outbox runs merged at barriers, and
  /// the subset whose tick span overflowed the counting buckets and fell
  /// back to a comparison sort (preamble backlog, extreme spikes).
  std::uint64_t flush_runs = 0;
  std::uint64_t flush_fallback_sorts = 0;
  /// Window-buffer capacity growths observed across the run. Buffers are
  /// retained across windows *and* across run() calls on one ParMachine,
  /// so a warm rerun reports 0 here: the steady state allocates nothing
  /// per window (bench_micro proves it).
  std::uint64_t arena_growths = 0;
  /// Capacity in bytes of what the engine keeps after the run for the next
  /// one: window buffers, merge scratch, shard send logs, rank ports and
  /// queue chunks (not the thread pool). A size, so it stays out of
  /// MetricsRegistry.
  std::uint64_t arena_bytes = 0;
  double window_ms = 0.0;             ///< wall time in parallel windows (drain + seal)
  double merge_ms = 0.0;              ///< wall time in barrier merge-replay
  double flush_ms = 0.0;              ///< wall time flushing mailboxes to shard queues
  /// Wall time building the schedule and port_busy after the last window.
  double assemble_ms = 0.0;
  TraceMode trace_mode = TraceMode::kFull;  ///< retention mode of the run
  std::vector<ParShardInfo> shard;    ///< sized `shards` when parallel
};

/// The sharded runtime. Mirrors Machine's configuration surface; run()
/// takes a factory instead of a Protocol& (one instance per shard).
class ParMachine {
 public:
  /// `messages` sizes the trace; handlers may send ids in [0, messages).
  ParMachine(PostalParams params, std::uint32_t messages);
  ~ParMachine();

  ParMachine(const ParMachine&) = delete;
  ParMachine& operator=(const ParMachine&) = delete;

  /// Arm `plan` for subsequent run() calls (validates it against n; copies
  /// it). Attaching an empty plan is equivalent to attaching none.
  void attach_faults(const FaultPlan& plan);
  void detach_faults() noexcept { injector_.reset(); }
  [[nodiscard]] bool has_faults() const noexcept { return injector_ != nullptr; }

  /// Trace retention for subsequent runs (sim/trace.hpp): kFull (default)
  /// keeps every Delivery byte-identical to the sequential Machine;
  /// kCounters elides the delivery list (first arrivals, delivery count,
  /// and makespan are still exact) and skips the barrier's delivery
  /// materialization entirely.
  void set_trace_mode(TraceMode mode) noexcept { trace_mode_ = mode; }
  [[nodiscard]] TraceMode trace_mode() const noexcept { return trace_mode_; }

  /// Shard/lane count for subsequent runs (clamped to >= 1; also capped to
  /// n at run time so no shard is empty). The result is identical at every
  /// setting; only wall clock and last_run_info() change.
  void set_threads(unsigned threads) noexcept {
    threads_ = threads == 0 ? 1 : threads;
  }
  [[nodiscard]] unsigned threads() const noexcept { return threads_; }

  /// Run one protocol instance per shard to global quiescence. Semantics,
  /// preconditions, and failure modes match Machine::run; the LogicError
  /// for exceeding `max_events` may surface at the next barrier rather
  /// than at the exact offending event (docs/SIMULATION.md).
  [[nodiscard]] MachineResult run(ShardProtocolFactory& factory,
                                  std::uint64_t max_events = 1ULL << 22);

  /// Introspection of the most recent run() (valid until the next run).
  [[nodiscard]] const ParRunInfo& last_run_info() const noexcept { return info_; }

 private:
  MachineResult run_windowed(ShardProtocolFactory& factory,
                             const TickRunSetup& setup, std::uint64_t max_events);
  MachineResult run_sequential(ShardProtocolFactory& factory,
                               std::uint64_t max_events);

  PostalParams params_;
  std::uint32_t messages_;
  std::unique_ptr<FaultInjector> injector_;
  TraceMode trace_mode_ = TraceMode::kFull;
  unsigned threads_ = 1;
  ParRunInfo info_;
  /// Arena-backed engine state (shards, queues, window buffers, replay
  /// scratch, thread pool), retained across run() calls so steady-state
  /// windows allocate nothing (sim/par_machine.cpp). Lazily built by the
  /// first windowed run; every buffer is reset -- capacity kept -- at the
  /// start of each run, so back-to-back runs stay byte-identical.
  struct Engine;
  std::unique_ptr<Engine> engine_;
};

}  // namespace postal
