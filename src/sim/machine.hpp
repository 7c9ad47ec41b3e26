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
// int64 ticks -- plain integer arithmetic and a bucketed monotone queue
// that stores each event inline (sim/tick_queue.hpp). The run's grid folds
// lambda and every fault-plan time (sim/tick_setup.hpp). A protocol may
// still arm a timer off that grid mid-run: the timer is parked, and before
// the next event pops the whole run is rescaled exactly onto the finer
// grid lcm(q, q') -- every pending tick, port free time, lambda, crash and
// spike tick multiplied by lcm(q, q')/q -- so the event order is unchanged.
// A grid or tick count that cannot fit int64 raises OverflowError; there
// is no second engine.
//
// The per-event model -- ports, timers, fault hooks, the pop switch and
// the delivery -- is sim/tick_step.hpp's TickStep, which ParMachine's
// shards run too; Machine adds the pop loop and the rescale.
//
// The Machine enforces nothing else by itself -- the resulting schedule is
// meant to be passed through validate_schedule, which certifies all model
// constraints independently. Tests cross-check that the event-driven BCAST
// and DTREE protocols produce identical schedules to the analytic
// generators in src/sched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <vector>

#include "faults/injector.hpp"
#include "model/params.hpp"
#include "sched/schedule.hpp"
#include "sim/trace.hpp"
#include "support/error.hpp"
#include "support/ticks.hpp"

namespace postal {

/// A message on the wire: the payload id plus two protocol-defined control
/// words (Algorithm BCAST uses them to carry the recipient's range).
struct Packet {
  MsgId msg = 0;
  std::uint64_t ctl_a = 0;
  std::uint64_t ctl_b = 0;
};

class MachineContext;

template <typename Engine>
class TickStep;

/// The dispatch seam between MachineContext and the engine that invoked
/// the running handler (docs/ARCHITECTURE.md). Its one implementation is
/// TickStep (sim/tick_step.hpp), the per-event model that Machine and
/// ParMachine's shards both run, differing only in four effect hooks the
/// step calls statically. So one Protocol runs unchanged on both engines.
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
  template <typename Engine>
  friend class TickStep;  // sim/tick_step.hpp: the one per-event model
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

/// Each processor's output-port busy time over a run: one unit per send, so
/// rank p's entry is the number of schedule records with src p. Stored as
/// 8-byte send counts and read as exact Rationals, the way SendEventView
/// serves a Schedule's tick records.
class PortBusy {
 public:
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Rational;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Rational;

    explicit const_iterator(const std::uint64_t* at) : at_(at) {}

    Rational operator*() const { return busy_time(*at_); }
    const_iterator& operator++() {
      ++at_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++at_;
      return before;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.at_ == b.at_;
    }

   private:
    const std::uint64_t* at_;
  };
  using iterator = const_iterator;
  using value_type = Rational;
  using size_type = std::size_t;

  PortBusy() = default;
  /// Rank p's entry is sends[p].
  explicit PortBusy(std::vector<std::uint64_t> sends) : sends_(std::move(sends)) {}

  [[nodiscard]] std::size_t size() const noexcept { return sends_.size(); }
  [[nodiscard]] bool empty() const noexcept { return sends_.empty(); }
  [[nodiscard]] Rational operator[](std::size_t p) const { return busy_time(sends_[p]); }
  [[nodiscard]] const_iterator begin() const noexcept {
    return const_iterator(sends_.data());
  }
  [[nodiscard]] const_iterator end() const noexcept {
    return const_iterator(sends_.data() + sends_.size());
  }

  /// The stored send counts.
  [[nodiscard]] const std::vector<std::uint64_t>& sends() const noexcept { return sends_; }

  friend bool operator==(const PortBusy& a, const PortBusy& b) {
    return a.sends_ == b.sends_;
  }

 private:
  static Rational busy_time(std::uint64_t sends) {
    POSTAL_CHECK(sends <= static_cast<std::uint64_t>(INT64_MAX));
    return Rational(static_cast<std::int64_t>(sends));
  }

  std::vector<std::uint64_t> sends_;
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
  PortBusy port_busy;
};

/// Result of a machine run.
struct MachineResult {
  Schedule schedule;   ///< all sends performed, in (t, src, dst, msg) order
  Trace trace{1, 0};   ///< all deliveries
  MachineStats stats;  ///< occupancy/event counters of this run
  FaultStats faults;   ///< faults applied (all zero without a plan)
};

/// The event-driven runtime itself.
class Machine {
 public:
  /// `messages` sizes the trace; handlers may send ids in [0, messages).
  Machine(PostalParams params, std::uint32_t messages);
  ~Machine();

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
  PostalParams params_;
  std::uint32_t messages_;
  std::unique_ptr<FaultInjector> injector_;
  TraceMode trace_mode_ = TraceMode::kFull;
  /// The run's state (sim/machine.cpp): the tick step, its queue, ports and
  /// grid. Built by the first run and kept, so later runs reuse the queue's
  /// buckets.
  struct Engine;
  std::unique_ptr<Engine> engine_;
};

}  // namespace postal
