// The event-driven MPS(n, lambda) runtime.
//
// The paper stresses that all its algorithms are "practical event-driven
// algorithms": each processor acts only on local events (its own start, a
// message arrival, or a local timer) and local knowledge carried in the
// message. This module provides that execution style. A Protocol supplies
// per-processor handlers; the Machine runs them, models the output port
// (one send per unit of time, FIFO queueing when handlers request sends
// faster than the port drains), models the input port the same way
// (simultaneous arrivals serialize FIFO; the paper's algorithms never
// collide, so their traces are unchanged), delivers messages after lambda,
// and records both a Trace and the equivalent Schedule.
//
// Fault injection (docs/FAULTS.md): attach_faults() arms a FaultPlan for
// subsequent runs. Crashed processors stop sending and receiving at their
// exact crash time, lossy links eat transmissions via seeded Bernoulli
// draws, and latency-spike windows stretch lambda. Every fault check is
// guarded by a null injector test, so runs without a plan execute the
// historical code path byte-for-byte (regression-tested).
//
// Time (docs/PERFORMANCE.md): with lambda = p/q every event time the
// paper's protocols produce is a multiple of 1/q, so each run executes on
// int64 ticks -- plain integer arithmetic, a bucketed monotone queue
// (sim/tick_queue.hpp), and a recycled event arena. The run's grid folds
// lambda and every fault-plan time (sim/tick_setup.hpp). A protocol may
// still arm a timer off that grid mid-run: the timer is parked, and before
// the next event pops the whole run is rescaled exactly onto the finer
// grid lcm(q, q') -- every pending tick, port free time, lambda, crash and
// spike tick multiplied by lcm(q, q')/q -- so the event order is unchanged.
// A grid or tick count that cannot fit int64 raises OverflowError; there
// is no second engine.
//
// The Machine enforces nothing else by itself -- the resulting schedule is
// meant to be passed through validate_schedule, which certifies all model
// constraints independently. Tests cross-check that the event-driven BCAST
// and DTREE protocols produce identical schedules to the analytic
// generators in src/sched.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "faults/injector.hpp"
#include "model/params.hpp"
#include "sched/schedule.hpp"
#include "sim/tick_queue.hpp"
#include "sim/tick_setup.hpp"
#include "sim/trace.hpp"
#include "support/ticks.hpp"

namespace postal {

/// A message on the wire: the payload id plus two protocol-defined control
/// words (Algorithm BCAST uses them to carry the recipient's range).
struct Packet {
  MsgId msg = 0;
  std::uint64_t ctl_a = 0;
  std::uint64_t ctl_b = 0;
};

class Machine;
class MachineContext;

/// The dispatch seam between MachineContext and the engine that invoked
/// the running handler (docs/ARCHITECTURE.md). The sequential Machine is
/// one implementation; ParMachine's per-shard engines (sim/par_machine)
/// are another -- protocols see the same MachineContext either way, which
/// is what lets one Protocol implementation run unchanged on both engines.
class ContextSink {
 public:
  virtual ~ContextSink() = default;

 protected:
  ContextSink() = default;
  ContextSink(const ContextSink&) = default;
  ContextSink& operator=(const ContextSink&) = default;

 private:
  friend class MachineContext;
  virtual void sink_send(ProcId self, ProcId dst, const Packet& packet, Tick now) = 0;
  virtual void sink_timer(ProcId self, Tick now, const Rational& delay,
                          std::uint64_t token) = 0;
  [[nodiscard]] virtual const PostalParams& sink_params() const noexcept = 0;
};

/// Handle protocols use to interact with the machine from inside handlers.
class MachineContext {
 public:
  /// Enqueue a send from `self` to `dst`. The transmission starts as soon
  /// as the output port is free (immediately if idle) and arrives lambda
  /// later. Multiple queued sends leave one per time unit, FIFO.
  void send(ProcId dst, const Packet& packet);

  /// Arm a local timer on `self` that fires `delay` (>= 0) from now; the
  /// protocol's on_timer receives `token` back. Timers are local bookkeeping
  /// -- they occupy no port and appear in neither the Schedule nor the
  /// Trace. A timer armed by a processor that later crashes never fires.
  void set_timer(const Rational& delay, std::uint64_t token);

  /// Current simulation time of the handler invocation.
  [[nodiscard]] const Rational& now() const;
  /// The processor this handler runs on.
  [[nodiscard]] ProcId self() const noexcept { return self_; }
  /// System parameters.
  [[nodiscard]] const PostalParams& params() const noexcept;

 private:
  friend class Machine;
  friend class ParShard;  // sim/par_machine.cpp: ParMachine's shard engine
  MachineContext(ContextSink& sink, ProcId self, Tick now, std::int64_t q)
      : sink_(sink), self_(self), now_ticks_(now), q_(q) {}

  ContextSink& sink_;
  ProcId self_;
  Tick now_ticks_;  ///< handler time in ticks of the running engine's grid
  std::int64_t q_;  ///< that grid's resolution denominator
  mutable std::optional<Rational> now_;  ///< now() converted on first use
};

/// Per-processor behavior. Handlers must be deterministic.
class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Invoked once per processor at t = 0 (the origin typically kicks off
  /// the algorithm here).
  virtual void on_start(MachineContext& ctx) { static_cast<void>(ctx); }

  /// Invoked when a packet has been fully received (at send start + lambda,
  /// later if the input port had to serialize simultaneous arrivals).
  virtual void on_receive(MachineContext& ctx, const Packet& packet) = 0;

  /// Invoked when a timer armed via MachineContext::set_timer fires.
  virtual void on_timer(MachineContext& ctx, std::uint64_t token) {
    static_cast<void>(ctx);
    static_cast<void>(token);
  }
};

/// Occupancy and event counts of one machine run, collected for free while
/// the run executes. These are the quantities the paper reasons about
/// informally ("the root keeps its output port busy...") made measurable;
/// obs::record_machine_stats folds them into a metrics registry and
/// docs/OBSERVABILITY.md documents the derived metric names.
struct MachineStats {
  std::uint64_t events_processed = 0;  ///< deliveries handled (on_receive calls)
  std::uint64_t sends_enqueued = 0;    ///< sends requested by handlers
  std::uint64_t sends_deferred = 0;    ///< sends that found the port busy
  std::uint64_t timers_set = 0;        ///< timers armed by handlers
  std::uint64_t timers_fired = 0;      ///< timers that reached on_timer
  /// Deliveries whose receive window had to wait for the input port (0 for
  /// every paper algorithm: they schedule receives collision-free).
  std::uint64_t receives_queued = 0;
  /// Deepest output-port backlog seen at any send request: the number of
  /// transmissions (including the new one) not yet finished on that
  /// processor's port at request time. 1 = the port was idle.
  std::uint64_t max_fifo_depth = 0;
  /// Per-processor output-port busy time (exact; one unit per send), sized n.
  std::vector<Rational> port_busy;
};

/// Result of a machine run.
struct MachineResult {
  Schedule schedule;   ///< all sends performed, sorted by time
  Trace trace{1, 0};   ///< all deliveries
  MachineStats stats;  ///< occupancy/event counters of this run
  FaultStats faults;   ///< faults applied (all zero without a plan)
};

/// The event-driven runtime itself.
class Machine : private ContextSink {
 public:
  /// `messages` sizes the trace; handlers may send ids in [0, messages).
  Machine(PostalParams params, std::uint32_t messages);

  /// Arm `plan` for subsequent run() calls (validates it against n; copies
  /// it). Attaching an empty plan is equivalent to attaching none.
  void attach_faults(const FaultPlan& plan);

  /// Remove any attached plan; subsequent runs are fault-free.
  void detach_faults() noexcept { injector_.reset(); }

  /// True iff a (non-empty) plan is attached.
  [[nodiscard]] bool has_faults() const noexcept { return injector_ != nullptr; }

  /// Trace retention of subsequent runs (sim/trace.hpp): kFull (default)
  /// materializes every Delivery; kCounters keeps first arrivals, the
  /// delivery count, and the makespan only. Schedule, stats, and fault
  /// timeline are identical either way.
  void set_trace_mode(TraceMode mode) noexcept { trace_mode_ = mode; }
  [[nodiscard]] TraceMode trace_mode() const noexcept { return trace_mode_; }

  /// Run `protocol` to quiescence (no in-flight packets or timers left).
  /// Throws InvalidArgument if a handler misbehaves (bad processor/message
  /// ids), LogicError if the run exceeds `max_events` queue events, and
  /// OverflowError if the run's time grid cannot fit int64 ticks (also
  /// when an off-grid timer's rescale would not fit).
  [[nodiscard]] MachineResult run(Protocol& protocol,
                                  std::uint64_t max_events = 1ULL << 22);

 private:
  // ContextSink: a handler's requests, in ticks of the current grid.
  void sink_send(ProcId self, ProcId dst, const Packet& packet, Tick now) override;
  void sink_timer(ProcId self, Tick now, const Rational& delay,
                  std::uint64_t token) override;
  [[nodiscard]] const PostalParams& sink_params() const noexcept override;

  struct Pending {
    enum class Kind : std::uint8_t {
      kFlight,       ///< in-flight packet at its nominal arrival time
      kFlightFinal,  ///< packet re-queued at its serialized arrival time
      kTimer,        ///< local timer (dst = owner, token = payload)
    };
    Kind kind = Kind::kFlight;
    ProcId src = 0;
    ProcId dst = 0;
    Packet packet;
    Tick send_start = 0;
    std::uint64_t token = 0;
  };

  /// A timer whose fire time is off the run's 1/q grid (or beyond
  /// kTickCap), parked with its global seq until the loop top rescales.
  struct ParkedTimer {
    Rational at;
    std::uint64_t seq = 0;
    ProcId owner = 0;
    std::uint64_t token = 0;
  };

  void adopt(TickRunSetup setup);
  void deliver(Protocol& protocol, Tick time, const Pending& flight,
               std::uint64_t& delivered);
  void run_loop(Protocol& protocol, std::uint64_t max_events,
                std::uint64_t& delivered);
  void rescale(std::uint64_t max_events);
  [[nodiscard]] bool crashed(ProcId p, Tick t) const {
    const auto& c = crash_ticks_[p];
    return c.has_value() && t >= *c;
  }
  [[nodiscard]] Rational tick_rational(Tick t) const { return Rational(t, q_); }

  PostalParams params_;
  std::uint32_t messages_;
  std::unique_ptr<FaultInjector> injector_;
  TraceMode trace_mode_ = TraceMode::kFull;

  // Per-run state (SpikeTicks/TickRunSetup in tick_setup.hpp).
  Schedule schedule_;
  MachineStats stats_;
  FaultStats fault_stats_;
  Trace* trace_ = nullptr;
  std::int64_t q_ = 1;              ///< resolution denominator of this run
  Tick lambda_ticks_ = 0;           ///< lambda in ticks
  std::uint64_t seq_ = 0;           ///< push counter (queue + parked timers)
  TickEventQueue<Pending> queue_;
  std::vector<ParkedTimer> parked_;  ///< off-grid timers awaiting the rescale
  std::vector<Tick> port_free_;
  std::vector<Tick> recv_free_;
  std::vector<std::uint64_t> port_busy_units_;  ///< sends per port (exact units)
  std::vector<std::optional<Tick>> crash_ticks_;
  std::vector<SpikeTicks> spike_ticks_;
};

}  // namespace postal
