#include "sim/machine.hpp"

#include <algorithm>

#include "sim/tick_queue.hpp"
#include "sim/tick_step.hpp"
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

/// One Machine's run state: the tick step with Machine's effects. Pushes
/// take the next number of the run's one push counter, fault events and
/// deliveries go straight to the result, and an off-grid timer is parked
/// for the rescale at the loop top.
struct Machine::Engine final : TickStep<Machine::Engine> {
  /// A timer whose fire time is off the run's 1/q grid (or beyond
  /// kTickCap), parked with its global seq until the loop top rescales.
  struct ParkedTimer {
    Rational at;
    std::uint64_t seq = 0;
    ProcId owner = 0;
    std::uint64_t token = 0;
  };

  TickRunSetup setup;  ///< the run's grid, which the step reads
  std::vector<RankPorts> ports;
  Trace* trace = nullptr;
  std::uint64_t seq = 0;  ///< push counter (queue + parked timers)
  TickEventQueue<InFlight> queue;
  std::vector<ParkedTimer> parked;  ///< off-grid timers awaiting the rescale

  // The step's effect hooks (sim/tick_step.hpp).
  void push(Tick at, const InFlight& event) { queue.push(at, seq++, event); }
  void fault(const FaultEvent& event) { faults.events.push_back(event); }
  void delivery(const TickDelivery& record) { trace->record(record); }
  void off_grid_timer(ProcId owner, Tick now, const Rational& delay,
                      std::uint64_t token) {
    // Park it with its seq. The loop top rescales the run before anything
    // else pops, so the global (time, seq) order is unchanged.
    parked.push_back(ParkedTimer{tick_rational(now) + delay, seq++, owner, token});
  }

  void run_loop(Protocol& protocol, std::uint64_t max_events);
  void rescale(std::uint64_t max_events);
};

Machine::Machine(PostalParams params, std::uint32_t messages)
    : params_(std::move(params)), messages_(messages) {}

Machine::~Machine() = default;

void Machine::attach_faults(const FaultPlan& plan) {
  if (plan.empty()) {
    injector_.reset();
    return;
  }
  injector_ = std::make_unique<FaultInjector>(plan, params_.n());
}

void Machine::Engine::run_loop(Protocol& protocol, std::uint64_t max_events) {
  std::uint64_t steps = 0;
  while (true) {
    // Rescaling at the loop top (never mid-handler) means no event has
    // popped since the park, so nothing is lost or reordered.
    if (!parked.empty()) rescale(max_events);
    if (queue.empty()) return;
    auto [time, event] = queue.pop();
    // The bucket already holds the coming events in pop order: prefetch
    // the destination ports and first-arrival cell of the event
    // kLookAhead slots on (both at an effectively random rank) while this
    // one runs.
    if (const InFlight* next = queue.ahead(kLookAhead)) {
      __builtin_prefetch(&ranks[next->dst], 1);
      trace->prefetch(next->dst, next->msg);
    }
    if (++steps > max_events) {
      throw LogicError("Machine::run: exceeded max_events; runaway protocol?");
    }
    dispatch(protocol, time, event);
  }
}

void Machine::Engine::rescale(std::uint64_t max_events) {
  // The finer grid represents every parked fire time; re-running the probe
  // at it re-derives lambda, crash and spike ticks and re-checks the
  // overflow headroom. Every grid is a multiple of the one before, so all
  // pending ticks scale by the exact integer factor k.
  std::int64_t grid = tick_q;
  for (const ParkedTimer& t : parked) grid = fold_grid(grid, t.at, kRescaleSite);
  const std::int64_t old_q = tick_q;
  setup = plan_tick_run(*params, injector, max_events, kRescaleSite, grid);
  set_grid(setup);
  const Tick k = tick_q / old_q;
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
  pending.reserve(queue.size() + parked.size());
  queue.drain([&](Tick t, std::uint64_t s, InFlight&& e) {
    e.send_start = scaled(e.send_start);
    pending.push_back(Entry{scaled(t), s, std::move(e)});
  });
  const TickDomain dom(tick_q);
  for (const ParkedTimer& t : parked) {
    const Tick fire = grid_ticks(dom, t.at, kRescaleSite);
    if (fire > kTickCap) {
      throw_grid_overflow(kRescaleSite, "timer fire time exceeds the tick range");
    }
    pending.push_back(Entry{
        fire, t.seq,
        InFlight{t.owner, t.owner, 0, InFlight::Kind::kTimer, fire, t.token, 0}});
  }
  parked.clear();
  // Re-push in (time, seq) order: the queue's per-tick buckets are FIFO by
  // push, and the parked seqs interleave with the drained ones.
  std::sort(pending.begin(), pending.end(), [](const Entry& a, const Entry& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  });
  queue.clear();
  for (Entry& e : pending) queue.push(e.time, e.seq, std::move(e.event));
  for (RankPorts& r : ports) {
    r.port_free = scaled(r.port_free);
    r.recv_free = scaled(r.recv_free);
  }
  for (TickSend& e : sends) e.tick = scaled(e.tick);
  trace->rescale(tick_q);
}

MachineResult Machine::run(Protocol& protocol, std::uint64_t max_events) {
  const std::uint64_t n = params_.n();
  if (!engine_) engine_ = std::make_unique<Engine>();
  Engine& eng = *engine_;
  // The grid shared with ParMachine (sim/tick_setup.hpp); throws before
  // any per-run state changes when the run cannot fit int64 ticks.
  eng.setup = plan_tick_run(params_, injector_.get(), max_events, kRunSite);
  eng.ports.assign(n, RankPorts{});
  eng.begin_run(params_, messages_, injector_.get(), eng.ports.data(), eng.setup);
  eng.seq = 0;
  eng.queue.clear();
  eng.parked.clear();
  if (injector_) begin_fault_run(*injector_, n, eng.faults);

  MachineResult result;
  result.trace = Trace(n, messages_, eng.tick_q, trace_mode_);
  eng.trace = &result.trace;
  // A broadcast covers every other rank with every message, so it delivers
  // and sends at least (n - 1) * messages times (BCAST exactly that many);
  // sizing both logs for it up front leaves the run no regrowth.
  const std::size_t expected = run_log_capacity(n, messages_, max_events);
  eng.trace->reserve(expected);
  eng.sends.reserve(expected);

  for (ProcId p = 0; p < n; ++p) eng.start(protocol, p);
  eng.run_loop(protocol, max_events);
  // The queue is empty now; drop its chunks down to the kept reserve.
  eng.queue.clear();
  std::vector<std::uint64_t> sends_per_src(n);
  result.schedule =
      Schedule::from_tick_log(std::move(eng.sends), eng.tick_q, n, sends_per_src.data());
  eng.stats.port_busy = PortBusy(std::move(sends_per_src));
  result.stats = std::move(eng.stats);
  result.faults = std::move(eng.faults);
  eng.trace = nullptr;
  return result;
}

}  // namespace postal
