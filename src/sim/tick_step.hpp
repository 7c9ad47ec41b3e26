// The per-event model of a tick run, written once for both engines
// (docs/SIMULATION.md, "One step, two drivers").
//
// TickStep is every branch of a tick run's event handling: the output-port
// FIFO with sends_deferred and max_fifo_depth, the crash, spike and loss
// hooks in their order, timer keying on the run's grid, the pop switch
// with input-port serialization, and the delivery with its crash drop. It
// is the ContextSink that handlers talk to. Machine's run state and each
// ParMachine shard derive from TickStep<themselves> (CRTP) and supply four
// hooks, reached by static dispatch: push(at, event), fault(event),
// delivery(record) and off_grid_timer(owner, now, delay, token) -- where a
// queue push, a fault event and a delivery go, and what a timer the grid
// cannot key does. The loop drivers stay with the engines; they call
// start() per rank and dispatch() per popped event.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/machine.hpp"
#include "sim/tick_setup.hpp"
#include "support/error.hpp"

namespace postal {

template <typename Engine>
class TickStep : public ContextSink {
 public:
  // Wiring, constant during a run (Machine's rescale moves the grid).
  const PostalParams* params = nullptr;
  std::uint32_t messages = 0;
  FaultInjector* injector = nullptr;  ///< null: the fault-free path
  RankPorts* ranks = nullptr;  ///< indexed by rank; a shard writes only its own
  std::int64_t tick_q = 1;     ///< resolution denominator of the run's grid
  Tick lambda_ticks = 0;
  const std::vector<std::optional<Tick>>* crash_ticks = nullptr;
  const std::vector<SpikeTicks>* spike_ticks = nullptr;

  // What the step accumulates over a run.
  TickLog sends;      ///< every send performed, in request order
  MachineStats stats;  ///< port_busy stays empty (counted by the assembly)
  FaultStats faults;   ///< counters; the engine's fault hook keeps the timeline

  /// Wire a run and reset the accumulators (capacity kept).
  void begin_run(const PostalParams& run_params, std::uint32_t run_messages,
                 FaultInjector* run_injector, RankPorts* run_ranks,
                 const TickRunSetup& setup) {
    params = &run_params;
    messages = run_messages;
    injector = run_injector;
    ranks = run_ranks;
    set_grid(setup);
    sends.clear();
    stats = MachineStats();
    faults = FaultStats();
  }

  /// Put the step on `setup`'s grid: q, lambda, crash and spike ticks.
  void set_grid(const TickRunSetup& setup) {
    tick_q = setup.q;
    lambda_ticks = setup.lambda_ticks;
    crash_ticks = &setup.crash_ticks;
    spike_ticks = &setup.spike_ticks;
  }

  /// Rank `p`'s on_start at t = 0, unless it crashed at 0.
  void start(Protocol& protocol, ProcId p) {
    if (injector != nullptr && crashed(p, 0)) return;
    MachineContext ctx(*this, p, 0, tick_q);
    protocol.on_start(ctx);
  }

  /// Handle one popped event at `time`.
  void dispatch(Protocol& protocol, Tick time, const InFlight& event) {
    switch (event.kind) {
      case InFlight::Kind::kTimer: {
        if (injector != nullptr && crashed(event.dst, time)) return;
        ++stats.timers_fired;
        MachineContext ctx(*this, event.dst, time, tick_q);
        protocol.on_timer(ctx, event.ctl_a);
        return;
      }
      case InFlight::Kind::kFlight: {
        // Input-port serialization: the receive needs the window
        // [arrival-1, arrival) exclusively. Simultaneous arrivals queue
        // FIFO; the paper's algorithms never collide, so for them
        // arrival == nominal time and this is a single comparison.
        Tick& recv_free = ranks[event.dst].recv_free;
        const Tick window_start = std::max(time - tick_q, recv_free);
        const Tick arrival = window_start + tick_q;
        recv_free = arrival;
        if (arrival > time) {
          ++stats.receives_queued;
          InFlight requeued = event;
          requeued.kind = InFlight::Kind::kFlightFinal;
          engine().push(arrival, requeued);
          return;
        }
        deliver(protocol, time, event);
        return;
      }
      case InFlight::Kind::kFlightFinal:
        deliver(protocol, time, event);
        return;
    }
  }

  [[nodiscard]] bool crashed(ProcId p, Tick t) const {
    const std::optional<Tick>& c = (*crash_ticks)[p];
    return c.has_value() && t >= *c;
  }

  [[nodiscard]] Rational tick_rational(Tick t) const { return Rational(t, tick_q); }

 private:
  [[nodiscard]] Engine& engine() { return static_cast<Engine&>(*this); }

  void sink_send(ProcId src, ProcId dst, const Packet& packet, Tick now) final {
    POSTAL_REQUIRE(dst < params->n(), "Machine: send destination out of range");
    POSTAL_REQUIRE(dst != src, "Machine: a processor cannot send to itself");
    POSTAL_REQUIRE(packet.msg < messages, "Machine: message id out of range");
    // The output port transmits one message per unit of time, FIFO.
    RankPorts& ports = ranks[src];
    const Tick start = std::max(now, ports.port_free);
    // Unreachable before memory exhaustion (2^61/q sends queued on one
    // port), but keeps the no-overflow guarantee airtight rather than UB.
    POSTAL_CHECK(start <= kTickCap);
    if (injector != nullptr && crashed(src, start)) {
      // The handler ran before the crash, but the port slot this send would
      // occupy starts at or after it: the transmission never happens.
      ++faults.sends_suppressed;
      engine().fault(
          FaultEvent{FaultEvent::Kind::kSendSuppressed, tick_rational(start), src, dst});
      return;
    }
    ports.port_free = start + tick_q;
    ++stats.sends_enqueued;
    if (start > now) ++stats.sends_deferred;
    // Backlog = transmissions not yet finished on this port, i.e. the busy
    // span [now, port_free) measured in unit-length sends (partial first
    // send rounds up).
    const std::uint64_t depth =
        static_cast<std::uint64_t>((ports.port_free - now + tick_q - 1) / tick_q);
    if (depth > stats.max_fifo_depth) stats.max_fifo_depth = depth;
    sends.push_back(TickSend{start, src, dst, packet.msg});
    Tick latency = lambda_ticks;
    if (injector != nullptr && injector->has_spikes()) {
      Tick extra = 0;
      for (const SpikeTicks& s : *spike_ticks) {
        if (start >= s.from && start < s.until) extra += s.extra;
      }
      if (extra > 0) {
        latency += extra;
        ++faults.spikes_applied;
        engine().fault(
            FaultEvent{FaultEvent::Kind::kSpike, tick_rational(start), src, dst});
      }
    }
    // Loss draws consume per-link PRNG state, so the order of these fault
    // hooks is behavior.
    if (injector != nullptr && injector->has_losses() && injector->lose(src, dst)) {
      // The send occupied the port and is part of the schedule -- the wire
      // ate it. The arrival simply never happens.
      ++faults.drops_loss;
      engine().fault(FaultEvent{FaultEvent::Kind::kDropLoss,
                                tick_rational(start + latency), dst, src});
      return;
    }
    engine().push(start + latency, InFlight{src, dst, packet.msg, InFlight::Kind::kFlight,
                                            start, packet.ctl_a, packet.ctl_b});
  }

  void sink_timer(ProcId owner, Tick now, const Rational& delay,
                  std::uint64_t token) final {
    ++stats.timers_set;
    const std::optional<Tick> d = TickDomain(tick_q).to_ticks(delay);
    Tick fire = 0;
    if (d.has_value() && !__builtin_add_overflow(now, *d, &fire) && fire <= kTickCap) {
      engine().push(fire,
                    InFlight{owner, owner, 0, InFlight::Kind::kTimer, fire, token, 0});
      return;
    }
    engine().off_grid_timer(owner, now, delay, token);
  }

  [[nodiscard]] const PostalParams& sink_params() const noexcept final { return *params; }

  void deliver(Protocol& protocol, Tick time, const InFlight& event) {
    if (injector != nullptr && crashed(event.dst, time)) {
      ++faults.drops_crash;
      engine().fault(FaultEvent{FaultEvent::Kind::kDropCrash, tick_rational(time),
                                event.dst, event.src});
      return;
    }
    ++stats.events_processed;
    engine().delivery(
        TickDelivery{event.src, event.dst, event.msg, event.send_start, time});
    MachineContext ctx(*this, event.dst, time, tick_q);
    protocol.on_receive(ctx, Packet{event.msg, event.ctl_a, event.ctl_b});
  }
};

}  // namespace postal
