#include "sim/machine.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace postal {

namespace {
constexpr const char* kRunSite = "Machine::run";
constexpr const char* kRescaleSite = "Machine::run (off-grid timer rescale)";
}  // namespace

const PostalParams& MachineContext::params() const noexcept {
  return sink_.sink_params();
}

const Rational& MachineContext::now() const {
  if (!now_.has_value()) now_.emplace(now_ticks_, q_);
  return *now_;
}

void MachineContext::send(ProcId dst, const Packet& packet) {
  sink_.sink_send(self_, dst, packet, now_ticks_);
}

void MachineContext::set_timer(const Rational& delay, std::uint64_t token) {
  POSTAL_REQUIRE(delay >= Rational(0), "Machine: timer delay must be >= 0");
  sink_.sink_timer(self_, now_ticks_, delay, token);
}

const PostalParams& Machine::sink_params() const noexcept { return params_; }

Machine::Machine(PostalParams params, std::uint32_t messages)
    : params_(std::move(params)), messages_(messages) {}

void Machine::attach_faults(const FaultPlan& plan) {
  if (plan.empty()) {
    injector_.reset();
    return;
  }
  injector_ = std::make_unique<FaultInjector>(plan, params_.n());
}

void Machine::adopt(TickRunSetup setup) {
  q_ = setup.q;
  lambda_ticks_ = setup.lambda_ticks;
  crash_ticks_ = std::move(setup.crash_ticks);
  spike_ticks_ = std::move(setup.spike_ticks);
}

void Machine::sink_send(ProcId src, ProcId dst, const Packet& packet, Tick now) {
  POSTAL_REQUIRE(dst < params_.n(), "Machine: send destination out of range");
  POSTAL_REQUIRE(dst != src, "Machine: a processor cannot send to itself");
  POSTAL_REQUIRE(packet.msg < messages_, "Machine: message id out of range");
  // The output port transmits one message per unit of time, FIFO.
  RankPorts& ports = ranks_[src];
  const Tick start = std::max(now, ports.port_free);
  // Unreachable before memory exhaustion (2^61/q sends queued on one
  // port), but keeps the no-overflow guarantee airtight rather than UB.
  POSTAL_CHECK(start <= kTickCap);
  if (injector_ && crashed(src, start)) {
    // The handler ran before the crash, but the port slot this send would
    // occupy starts at or after it: the transmission never happens.
    ++fault_stats_.sends_suppressed;
    fault_stats_.events.push_back(
        FaultEvent{FaultEvent::Kind::kSendSuppressed, tick_rational(start), src, dst});
    return;
  }
  ports.port_free = start + q_;
  ++stats_.sends_enqueued;
  if (start > now) ++stats_.sends_deferred;
  ++ports.sends;
  // Backlog = transmissions not yet finished on this port, i.e. the busy
  // span [now, port_free) measured in unit-length sends (partial first
  // send rounds up).
  const std::uint64_t depth =
      static_cast<std::uint64_t>((ports.port_free - now + q_ - 1) / q_);
  if (depth > stats_.max_fifo_depth) stats_.max_fifo_depth = depth;
  sends_.push_back(TickSend{start, src, dst, packet.msg});
  Tick latency = lambda_ticks_;
  if (injector_ && injector_->has_spikes()) {
    Tick extra = 0;
    for (const SpikeTicks& s : spike_ticks_) {
      if (start >= s.from && start < s.until) extra += s.extra;
    }
    if (extra > 0) {
      latency += extra;
      ++fault_stats_.spikes_applied;
      fault_stats_.events.push_back(
          FaultEvent{FaultEvent::Kind::kSpike, tick_rational(start), src, dst});
    }
  }
  // Loss draws consume per-link PRNG state, so the order of these fault
  // hooks is behavior.
  if (injector_ && injector_->has_losses() && injector_->lose(src, dst)) {
    // The send occupied the port and is part of the schedule -- the wire
    // ate it. The arrival simply never happens.
    ++fault_stats_.drops_loss;
    fault_stats_.events.push_back(FaultEvent{
        FaultEvent::Kind::kDropLoss, tick_rational(start + latency), dst, src});
    return;
  }
  queue_.push(start + latency, seq_++,
              InFlight{src, dst, packet.msg, InFlight::Kind::kFlight, start, packet.ctl_a,
                       packet.ctl_b});
}

void Machine::sink_timer(ProcId owner, Tick now, const Rational& delay,
                         std::uint64_t token) {
  ++stats_.timers_set;
  const std::optional<Tick> d = TickDomain(q_).to_ticks(delay);
  Tick fire = 0;
  if (d.has_value() && !__builtin_add_overflow(now, *d, &fire) && fire <= kTickCap) {
    queue_.push(fire, seq_++,
                InFlight{owner, owner, 0, InFlight::Kind::kTimer, fire, token, 0});
    return;
  }
  // The fire time is off this run's 1/q grid (or beyond the tick range):
  // park it with its seq. The loop top rescales the run before anything
  // else pops, so the global (time, seq) order is unchanged.
  parked_.push_back(ParkedTimer{tick_rational(now) + delay, seq_++, owner, token});
}

void Machine::deliver(Protocol& protocol, Tick time, const InFlight& flight,
                      std::uint64_t& delivered) {
  if (injector_ && crashed(flight.dst, time)) {
    ++fault_stats_.drops_crash;
    fault_stats_.events.push_back(FaultEvent{
        FaultEvent::Kind::kDropCrash, tick_rational(time), flight.dst, flight.src});
    return;
  }
  ++delivered;
  trace_->record(
      TickDelivery{flight.src, flight.dst, flight.msg, flight.send_start, time});
  MachineContext ctx(*this, flight.dst, time, q_);
  protocol.on_receive(ctx, Packet{flight.msg, flight.ctl_a, flight.ctl_b});
}

void Machine::run_loop(Protocol& protocol, std::uint64_t max_events,
                       std::uint64_t& delivered) {
  std::uint64_t steps = 0;
  while (true) {
    // Rescaling at the loop top (never mid-handler) means no event has
    // popped since the park, so nothing is lost or reordered.
    if (!parked_.empty()) rescale(max_events);
    if (queue_.empty()) return;
    auto [time, event] = queue_.pop();
    // The bucket already holds the coming events in pop order: prefetch
    // the destination ports and first-arrival cell of the event
    // kLookAhead slots on (both at an effectively random rank) while this
    // one runs.
    if (const InFlight* next = queue_.ahead(kLookAhead)) {
      __builtin_prefetch(&ranks_[next->dst], 1);
      trace_->prefetch(next->dst, next->msg);
    }
    if (++steps > max_events) {
      throw LogicError("Machine::run: exceeded max_events; runaway protocol?");
    }
    switch (event.kind) {
      case InFlight::Kind::kTimer: {
        if (injector_ && crashed(event.dst, time)) break;
        ++stats_.timers_fired;
        MachineContext ctx(*this, event.dst, time, q_);
        protocol.on_timer(ctx, event.ctl_a);
        break;
      }
      case InFlight::Kind::kFlight: {
        // Input-port serialization: the receive needs the window
        // [arrival-1, arrival) exclusively. Simultaneous arrivals queue
        // FIFO; the paper's algorithms never collide, so for them
        // arrival == nominal time and this is a single comparison.
        Tick& recv_free = ranks_[event.dst].recv_free;
        const Tick window_start = std::max(time - q_, recv_free);
        const Tick arrival = window_start + q_;
        recv_free = arrival;
        if (arrival > time) {
          ++stats_.receives_queued;
          InFlight requeued = event;
          requeued.kind = InFlight::Kind::kFlightFinal;
          queue_.push(arrival, seq_++, requeued);
          break;
        }
        deliver(protocol, time, event, delivered);
        break;
      }
      case InFlight::Kind::kFlightFinal:
        deliver(protocol, time, event, delivered);
        break;
    }
  }
}

void Machine::rescale(std::uint64_t max_events) {
  // The finer grid represents every parked fire time; re-running the probe
  // at it re-derives lambda, crash and spike ticks and re-checks the
  // overflow headroom. Every grid is a multiple of the one before, so all
  // pending ticks scale by the exact integer factor k.
  std::int64_t grid = q_;
  for (const ParkedTimer& t : parked_) grid = fold_grid(grid, t.at, kRescaleSite);
  const std::int64_t old_q = q_;
  adopt(plan_tick_run(params_, injector_.get(), max_events, kRescaleSite, grid));
  const Tick k = q_ / old_q;
  const auto scaled = [k](Tick t) {
    Tick out = 0;
    if (__builtin_mul_overflow(t, k, &out) || out > kTickCap) {
      throw_grid_overflow(kRescaleSite, "rescaled tick exceeds the tick range");
    }
    return out;
  };

  struct Entry {
    Tick time;
    std::uint64_t seq;
    InFlight event;
  };
  std::vector<Entry> pending;
  pending.reserve(queue_.size() + parked_.size());
  queue_.drain([&](Tick t, std::uint64_t seq, InFlight&& e) {
    e.send_start = scaled(e.send_start);
    pending.push_back(Entry{scaled(t), seq, std::move(e)});
  });
  const TickDomain dom(q_);
  for (const ParkedTimer& t : parked_) {
    const Tick fire = grid_ticks(dom, t.at, kRescaleSite);
    if (fire > kTickCap) {
      throw_grid_overflow(kRescaleSite, "timer fire time exceeds the tick range");
    }
    pending.push_back(Entry{
        fire, t.seq,
        InFlight{t.owner, t.owner, 0, InFlight::Kind::kTimer, fire, t.token, 0}});
  }
  parked_.clear();
  // Re-push in (time, seq) order: the queue's per-tick buckets are FIFO by
  // push, and the parked seqs interleave with the drained ones.
  std::sort(pending.begin(), pending.end(), [](const Entry& a, const Entry& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  });
  queue_.clear();
  for (Entry& e : pending) queue_.push(e.time, e.seq, std::move(e.event));
  for (RankPorts& r : ranks_) {
    r.port_free = scaled(r.port_free);
    r.recv_free = scaled(r.recv_free);
  }
  for (TickSend& e : sends_) e.tick = scaled(e.tick);
  trace_->rescale(q_);
}

MachineResult Machine::run(Protocol& protocol, std::uint64_t max_events) {
  const std::uint64_t n = params_.n();
  // The grid shared with ParMachine (sim/tick_setup.hpp); throws before
  // any per-run state changes when the run cannot fit int64 ticks.
  adopt(plan_tick_run(params_, injector_.get(), max_events, kRunSite));
  sends_.clear();
  stats_ = MachineStats();
  fault_stats_ = FaultStats();
  seq_ = 0;
  queue_.clear();
  parked_.clear();
  ranks_.assign(n, RankPorts{});
  if (injector_) {
    injector_->reset();
    for (ProcId p = 0; p < n; ++p) {
      const auto& c = injector_->crash_time(p);
      if (c.has_value()) {
        ++fault_stats_.crashes_applied;
        fault_stats_.events.push_back(FaultEvent{FaultEvent::Kind::kCrash, *c, p, p});
      }
    }
  }

  MachineResult result;
  result.trace = Trace(n, messages_, q_, trace_mode_);
  trace_ = &result.trace;
  // A broadcast covers every other rank with every message, so it delivers
  // and sends at least (n - 1) * messages times (BCAST exactly that many);
  // sizing both logs for it up front leaves the run no regrowth.
  const std::size_t expected = run_log_capacity(n, messages_, max_events);
  trace_->reserve(expected);
  sends_.reserve(expected);

  for (ProcId p = 0; p < n; ++p) {
    if (injector_ && crashed(p, 0)) continue;
    MachineContext ctx(*this, p, 0, q_);
    protocol.on_start(ctx);
  }

  std::uint64_t delivered = 0;
  run_loop(protocol, max_events, delivered);
  stats_.port_busy.resize(n);
  port_busy_of(ranks_, 0, n, stats_.port_busy);
  stats_.events_processed = delivered;
  result.schedule = Schedule::from_tick_log(std::move(sends_), q_, n);
  result.stats = std::move(stats_);
  result.faults = std::move(fault_stats_);
  trace_ = nullptr;
  return result;
}

}  // namespace postal
