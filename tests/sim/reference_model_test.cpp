// An independent judge of event order: a slot-stepped reference model of
// MPS(n, lambda) with no queue and no sort.
//
// The engines under test (Machine, ParMachine, the validator) order events
// with a bucketed tick queue, a sharded merge-replay and a port free-time
// formula. The model below shares none of that. It steps one global clock
// through slots of 1/q, keeps an explicit busy flag per (rank, slot) for
// every output and input port, and finds each transmission or receive
// window by first-fit on those flags. Pending events live in one log in
// creation order; each slot scans the log front to back, so events of one
// slot run first-created first -- including events created while the slot
// runs (zero-delay timers) -- which is the (time, seq) rule by
// construction. The schedule comes out by walking slots, then ranks, as
// send records on the model's grid: the engines' schedules are judged by
// their stored records and grid, with no Rational in between.
//
// Inputs are seeded random fan-out protocols at n <= 32: relays that
// forward to random ranks (so input ports collide), arm zero-delay and
// on-grid timers, and let idle ranks arm timers that do nothing. Faults and
// off-grid timers are out of scope here.
#include <algorithm>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/machine.hpp"
#include "sim/par_machine.hpp"
#include "sim/validator.hpp"
#include "support/prng.hpp"

namespace postal {

/// Failure output for the compared send records.
void PrintTo(const TickSend& e, std::ostream* os) {
  *os << "{tick " << e.tick << " p" << e.src << " -> p" << e.dst << " M" << e.msg << "}";
}

namespace {

/// One handler's requests, in the order it makes them.
struct Action {
  bool timer = false;
  ProcId dst = 0;  ///< send destination
  Packet packet;   ///< send payload
  Tick delay = 0;  ///< timer delay in slots
  std::uint64_t token = 0;
};

/// A seeded random fan-out protocol as a pure function of the handler's
/// inputs, so every engine (and every ParMachine shard) decides alike.
/// Rank 0 holds every message; a relay forwards only what it received, so
/// every schedule is causal. ctl_a carries the remaining hop budget.
struct FanoutSpec {
  std::uint64_t seed = 0;
  std::uint64_t n = 2;
  std::uint32_t messages = 1;
  std::int64_t q = 1;  ///< slots per time unit (lambda's denominator)
  std::uint64_t hops = 3;

  static constexpr std::uint64_t kIdle = std::uint64_t{1} << 63;  ///< no-op timer token

  [[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                                  std::uint64_t d) const {
    std::uint64_t h = seed ^ 0x9E3779B97F4A7C15ULL;
    for (const std::uint64_t x : {a, b, c, d}) {
      h ^= x + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
      h *= 0xBF58476D1CE4E5B9ULL;
      h ^= h >> 31;
    }
    return h;
  }

  [[nodiscard]] ProcId other(ProcId self, std::uint64_t h) const {
    const auto d = static_cast<ProcId>(h % (n - 1));
    return d >= self ? d + 1 : d;
  }

  /// Relay message `msg` with `left` hops to go from `self` at slot `now`.
  void relay(std::vector<Action>& out, ProcId self, MsgId msg, std::uint64_t left,
             std::uint64_t salt, Tick now) const {
    if (left == 0) return;
    const std::uint64_t h = mix(self, msg, salt, static_cast<std::uint64_t>(now));
    const std::uint64_t fan = h % 4;
    for (std::uint64_t i = 0; i < fan; ++i) {
      const std::uint64_t hi = mix(h, i, self, left);
      out.push_back(Action{false, other(self, hi), Packet{msg, left - 1, hi >> 40}});
    }
    if ((h >> 8) % 4 == 0) {
      // Zero delay, one slot, or one to three whole units: all on the grid.
      const std::uint64_t pick = (h >> 12) % 4;
      const Tick delay = pick == 0 ? 0 : pick == 1 ? 1 : static_cast<Tick>(pick - 1) * q;
      out.push_back(Action{true, 0, Packet{}, delay, (left - 1) << 32 | msg});
    }
  }

  [[nodiscard]] std::vector<Action> on_start(ProcId self) const {
    std::vector<Action> out;
    if (self == 0) {
      for (MsgId m = 0; m < messages; ++m) relay(out, 0, m, hops, 7, 0);
      relay(out, 0, 0, hops, 11, 0);
    } else if (mix(self, 1, 2, 3) % 3 == 0) {
      const auto delay = static_cast<Tick>(mix(self, 4, 5, 6) % 3);
      out.push_back(Action{true, 0, Packet{}, delay, kIdle});
    }
    return out;
  }
  [[nodiscard]] std::vector<Action> on_receive(ProcId self, const Packet& p,
                                               Tick now) const {
    std::vector<Action> out;
    relay(out, self, p.msg, p.ctl_a, p.ctl_b, now);
    return out;
  }
  [[nodiscard]] std::vector<Action> on_timer(ProcId self, std::uint64_t token,
                                             Tick now) const {
    std::vector<Action> out;
    if (token != kIdle) {
      relay(out, self, static_cast<MsgId>(token & 0xFFFFFFFF), token >> 32, 13, now);
    }
    return out;
  }
};

/// FanoutSpec behind the engines' Protocol interface.
class FanoutProtocol final : public Protocol {
 public:
  explicit FanoutProtocol(FanoutSpec spec) : spec_(spec) {}
  void on_start(MachineContext& ctx) override { apply(ctx, spec_.on_start(ctx.self())); }
  void on_receive(MachineContext& ctx, const Packet& p) override {
    apply(ctx, spec_.on_receive(ctx.self(), p, slot(ctx)));
  }
  void on_timer(MachineContext& ctx, std::uint64_t token) override {
    apply(ctx, spec_.on_timer(ctx.self(), token, slot(ctx)));
  }

 private:
  [[nodiscard]] Tick slot(const MachineContext& ctx) const {
    return ctx.now().num() * (spec_.q / ctx.now().den());
  }
  void apply(MachineContext& ctx, const std::vector<Action>& actions) const {
    for (const Action& a : actions) {
      if (a.timer) {
        ctx.set_timer(Rational(a.delay, spec_.q), a.token);
      } else {
        ctx.send(a.dst, a.packet);
      }
    }
  }
  FanoutSpec spec_;
};

/// What the reference model computes; compared field by field.
struct RefRun {
  std::vector<TickSend> sends;             ///< in (slot, src) order, slots of 1/q
  std::vector<Delivery> deliveries;        ///< in handling order
  std::vector<std::optional<Tick>> first;  ///< [p * messages + msg]
  MachineStats stats;
  Tick makespan = 0;
};

/// Grow-on-demand element `slot` of a per-rank slot array.
template <typename T>
T& at_slot(std::vector<T>& row, Tick slot) {
  const auto i = static_cast<std::size_t>(slot);
  if (row.size() <= i) row.resize(i + 1);
  return row[i];
}

/// The slot-stepped model. Handles kinds: 0 = nominal arrival, 1 = final
/// (serialized) arrival, 2 = timer.
RefRun reference_run(const FanoutSpec& spec, Tick lambda) {
  struct Pending {
    int kind = 0;
    ProcId src = 0;
    ProcId dst = 0;
    Packet packet;
    Tick sent = 0;
    Tick at = 0;
    std::uint64_t token = 0;
    bool done = false;
  };
  struct Sent {
    ProcId dst = 0;
    MsgId msg = 0;
  };
  const std::int64_t q = spec.q;
  const std::size_t n = spec.n;
  std::vector<std::vector<char>> out_busy(n), in_busy(n);
  std::vector<std::vector<std::optional<Sent>>> started(n);  ///< [src][slot]
  std::vector<Pending> log;
  RefRun run;
  run.first.resize(n * spec.messages);
  std::vector<std::uint64_t> busy(n, 0);

  // First slot w >= from whose unit window [w, w + q) is idle; claim it.
  const auto first_fit = [q](std::vector<char>& flags, Tick from) {
    Tick w = from;
    while (true) {
      bool idle = true;
      for (Tick s = w; s < w + q; ++s) idle = idle && at_slot(flags, s) == 0;
      if (idle) break;
      ++w;
    }
    for (Tick s = w; s < w + q; ++s) at_slot(flags, s) = 1;
    return w;
  };
  const auto perform = [&](ProcId self, Tick now, const std::vector<Action>& actions) {
    for (const Action& a : actions) {
      if (a.timer) {
        ++run.stats.timers_set;
        log.push_back(Pending{2, self, self, Packet{}, now, now + a.delay, a.token});
        continue;
      }
      std::vector<char>& port = out_busy[self];
      const Tick start = first_fit(port, now);
      ++run.stats.sends_enqueued;
      if (start > now) ++run.stats.sends_deferred;
      ++busy[self];
      // Backlog: unit sends still unfinished at `now`, counted off the flags.
      Tick left = 0;
      for (Tick s = now; s < static_cast<Tick>(port.size()); ++s) {
        left += at_slot(port, s);
      }
      const auto depth = static_cast<std::uint64_t>((left + q - 1) / q);
      run.stats.max_fifo_depth = std::max(run.stats.max_fifo_depth, depth);
      at_slot(started[self], start) = Sent{a.dst, a.packet.msg};
      log.push_back(Pending{0, self, a.dst, a.packet, start, start + lambda});
    }
  };
  const auto deliver = [&](const Pending& e, Tick now) {
    ++run.stats.events_processed;
    run.deliveries.push_back(
        Delivery{e.src, e.dst, e.packet.msg, Rational(e.sent, q), Rational(now, q)});
    auto& cell = run.first[e.dst * spec.messages + e.packet.msg];
    if (!cell.has_value()) cell = now;  // slots only grow: the first is the earliest
    run.makespan = std::max(run.makespan, now);
    perform(e.dst, now, spec.on_receive(e.dst, e.packet, now));
  };

  for (ProcId p = 0; p < n; ++p) perform(p, 0, spec.on_start(p));
  for (Tick now = 0;; ++now) {
    bool later = false;
    for (std::size_t i = 0; i < log.size(); ++i) {  // grows while it is scanned
      if (log[i].done || log[i].at != now) {
        later = later || (!log[i].done && log[i].at > now);
        continue;
      }
      log[i].done = true;
      const Pending e = log[i];
      if (e.kind == 2) {
        ++run.stats.timers_fired;
        perform(e.dst, now, spec.on_timer(e.dst, e.token, now));
      } else if (e.kind == 1) {
        deliver(e, now);
      } else {
        // The receive occupies the unit window ending at its arrival.
        const Tick arrive = first_fit(in_busy[e.dst], now - q) + q;
        if (arrive > now) {
          ++run.stats.receives_queued;
          Pending final = e;
          final.kind = 1;
          final.at = arrive;
          final.done = false;
          log.push_back(final);
        } else {
          deliver(e, now);
        }
      }
    }
    if (!later) break;
  }
  for (Tick s = 0;; ++s) {
    bool more = false;
    for (ProcId p = 0; p < n; ++p) {
      if (static_cast<std::size_t>(s) >= started[p].size()) continue;
      more = true;
      if (const auto& sent = at_slot(started[p], s); sent.has_value()) {
        run.sends.push_back(TickSend{s, p, sent->dst, sent->msg});
      }
    }
    if (!more) break;
  }
  run.stats.port_busy = PortBusy(std::move(busy));
  return run;
}

void expect_matches(const RefRun& ref, const FanoutSpec& spec, const MachineResult& got,
                    const std::string& who) {
  EXPECT_EQ(got.schedule.q(), spec.q) << who;
  EXPECT_EQ(got.schedule.records(), ref.sends) << who;
  const DeliveryView view = got.trace.deliveries();
  const std::vector<Delivery> deliveries(view.begin(), view.end());
  EXPECT_EQ(deliveries, ref.deliveries) << who;
  EXPECT_EQ(got.stats.events_processed, ref.stats.events_processed) << who;
  EXPECT_EQ(got.stats.sends_enqueued, ref.stats.sends_enqueued) << who;
  EXPECT_EQ(got.stats.sends_deferred, ref.stats.sends_deferred) << who;
  EXPECT_EQ(got.stats.timers_set, ref.stats.timers_set) << who;
  EXPECT_EQ(got.stats.timers_fired, ref.stats.timers_fired) << who;
  EXPECT_EQ(got.stats.receives_queued, ref.stats.receives_queued) << who;
  EXPECT_EQ(got.stats.max_fifo_depth, ref.stats.max_fifo_depth) << who;
  EXPECT_EQ(got.stats.port_busy, ref.stats.port_busy) << who;
}

void expect_first_arrivals(const RefRun& ref, const FanoutSpec& spec, const Trace& trace,
                           const std::string& who) {
  for (ProcId p = 0; p < spec.n; ++p) {
    for (MsgId m = 0; m < spec.messages; ++m) {
      const auto& cell = ref.first[p * spec.messages + m];
      const std::optional<Rational> want =
          cell.has_value() ? std::optional<Rational>(Rational(*cell, spec.q))
                           : std::nullopt;
      EXPECT_EQ(trace.arrival(p, m), want) << who << " p" << p << " M" << m;
    }
  }
}

/// Each receiver's arrival times, ascending.
template <typename Deliveries>
std::vector<std::vector<Rational>> arrivals_by_receiver(const Deliveries& deliveries,
                                                        std::uint64_t n) {
  std::vector<std::vector<Rational>> out(n);
  for (const Delivery& d : deliveries) out[d.dst].push_back(d.arrival);
  for (auto& times : out) std::sort(times.begin(), times.end());
  return out;
}

TEST(ReferenceModel, JudgesMachineParMachineAndTheValidatorOnRandomFanouts) {
  const Rational lambdas[] = {Rational(1), Rational(2), Rational(3, 2), Rational(5, 2),
                              Rational(7, 3), Rational(4)};
  std::uint64_t collided = 0;
  std::uint64_t timer_runs = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Xoshiro256 rng(seed * 0x2545F4914F6CDD1DULL);
    const Rational lambda = lambdas[rng.uniform(0, 5)];
    FanoutSpec spec;
    spec.seed = seed;
    spec.n = rng.uniform(2, 32);
    spec.messages = static_cast<std::uint32_t>(rng.uniform(1, 3));
    spec.q = lambda.den();
    spec.hops = rng.uniform(3, 6);
    const PostalParams params(spec.n, lambda);
    const std::string who = "seed " + std::to_string(seed) + " n " +
                            std::to_string(spec.n) + " lambda " + lambda.str();

    const RefRun ref = reference_run(spec, lambda.num());
    collided += ref.stats.receives_queued != 0 ? 1 : 0;
    timer_runs += ref.stats.timers_fired != 0 ? 1 : 0;

    Machine machine(params, spec.messages);
    FanoutProtocol protocol(spec);
    expect_matches(ref, spec, machine.run(protocol), who + " Machine");
    for (const unsigned threads : {1u, 2u, 4u}) {
      ParMachine par(params, spec.messages);
      par.set_threads(threads);
      auto factory = make_protocol_factory<FanoutProtocol>(spec);
      expect_matches(ref, spec, par.run(factory),
                     who + " ParMachine threads " + std::to_string(threads));
    }

    // The validator on the model's schedule. The paper's strict receive
    // port flags exactly the runs in which an input port had to queue, and
    // otherwise reproduces every arrival.
    Schedule schedule;
    for (const TickSend& e : ref.sends) {
      schedule.add(e.src, e.dst, e.msg, Rational(e.tick, spec.q));
    }
    ValidatorOptions strict;
    strict.messages = spec.messages;
    strict.require_coverage = false;
    const SimReport paper = validate_schedule(schedule, params, strict);
    EXPECT_EQ(paper.ok, ref.stats.receives_queued == 0) << who << ": " << paper.summary();
    if (ref.stats.receives_queued == 0) {
      EXPECT_EQ(paper.makespan, Rational(ref.makespan, spec.q)) << who;
      expect_first_arrivals(ref, spec, paper.trace, who);
    }
    // FIFO receive serializes the same arrivals at each receiver. Ties at
    // one receiver may pair with messages differently (the validator
    // breaks them by schedule order, the engines by creation order), so
    // per-message first arrivals are compared only for one message.
    ValidatorOptions fifo = strict;
    fifo.fifo_receive = true;
    const SimReport queued = validate_schedule(schedule, params, fifo);
    EXPECT_EQ(queued.makespan, Rational(ref.makespan, spec.q)) << who;
    EXPECT_EQ(arrivals_by_receiver(queued.trace.deliveries(), spec.n),
              arrivals_by_receiver(ref.deliveries, spec.n))
        << who;
    if (spec.messages == 1) {
      EXPECT_TRUE(queued.ok) << who << ": " << queued.summary();
      expect_first_arrivals(ref, spec, queued.trace, who);
    }
  }
  // The corpus must exercise what it claims to.
  EXPECT_GT(collided, 30u);
  EXPECT_GT(timer_runs, 30u);
}

}  // namespace
}  // namespace postal
