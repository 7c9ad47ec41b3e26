#include "sim/validator.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <sstream>

#include "support/ticks.hpp"

namespace postal {

std::string SimReport::summary() const {
  if (ok) return "ok";
  std::ostringstream oss;
  oss << violations.size() << " violation(s):";
  for (const auto& v : violations) oss << "\n  - " << v;
  return oss.str();
}

namespace {

// The validation loop runs on int64 ticks at resolution 1/q
// (docs/PERFORMANCE.md): plain integer adds and compares. A static probe
// (below) folds every input time onto one grid and a 128-bit bound proves
// no tick expression can overflow, so the loop needs no per-op checks and
// cannot invoke UB. Tick <-> Rational is an order-preserving bijection on
// the grid, and conversion round-trips reproduce the canonical reduced
// form, so reported times and violation strings are exactly the ones a
// Rational computation would print.

struct TickPlan {
  TickDomain dom{1};
  Tick lambda = 0;
  Tick one = 0;
  std::vector<Tick> event_ticks;  ///< pre-converted, by event index
  std::vector<std::optional<Tick>> crash;

  [[nodiscard]] Rational rat(Tick t) const { return dom.to_rational(t); }
};

// Port exclusivity with one stored window per port. The loop visits events
// in nondecreasing send time t and lambda is a constant, so the windows
// offered to any one port -- [t, t+1) on a send port, [t+lambda-1,
// t+lambda) on a receive port -- come in nondecreasing lo. Every window is
// exactly one unit long and the accepted ones are pairwise disjoint, so
// their starts differ by at least 1. A new window [lo, lo+1) overlaps an
// accepted [lo', lo'+1) with lo' <= lo iff lo' lies in (lo-1, lo]: at most
// one accepted window can, and if one does, it is the latest accepted (the
// largest lo'). If the latest does not overlap, every earlier one ends
// sooner still. So the end of the last accepted window, the time the port
// is free again, decides the check, and that window is exactly the one an
// ordered interval set would report. Windows start at t >= 0
// (Schedule::add) or t + lambda - 1 >= 0 (lambda >= 1), so a free time of
// 0 marks a port that has accepted nothing.
bool port_clash(Tick& free_at, Tick lo, Tick one) {
  if (lo < free_at) return true;  // the port keeps its window
  free_at = lo + one;
  return false;
}

void validate_events(const TickPlan& plan, const std::vector<SendEvent>& events,
                     const std::vector<std::size_t>& order, std::uint64_t n,
                     std::uint32_t messages, const ValidatorOptions& options,
                     SimReport& report) {
  const std::vector<std::optional<Tick>>& crash = plan.crash;
  auto violate = [&report](const std::string& text) {
    report.violations.push_back(text);
  };
  // A port clash: p's port already holds the unit window ending at `free_at`.
  auto busy = [&plan](const char* port, ProcId p, Tick free_at) {
    std::ostringstream oss;
    oss << port << " port of p" << p << " already busy on ["
        << plan.rat(free_at - plan.one) << ", " << plan.rat(free_at) << ")";
    return oss.str();
  };
  // Earliest crash of p, or nullptr; `crash` is empty when none is declared.
  auto crash_of = [&crash](ProcId p) -> const Tick* {
    return crash.empty() || !crash[p].has_value() ? nullptr : &*crash[p];
  };

  // When each port is free again: the end of its last accepted window
  // (under fifo_receive, of its last queued receive).
  std::vector<Tick> send_free(n, 0);
  std::vector<Tick> recv_free(n, 0);
  // holds[p * messages + msg]: earliest time p holds msg (origin: 0).
  std::vector<std::optional<Tick>> holds(n * messages);
  if (options.preholds) {
    for (auto& h : holds) h = 0;
  } else if (options.origins.empty()) {
    for (MsgId msg = 0; msg < messages; ++msg) {
      holds[options.origin * messages + msg] = 0;
    }
  } else {
    POSTAL_REQUIRE(options.origins.size() == messages,
                   "validate_schedule: origins must name one processor per message");
    for (MsgId msg = 0; msg < messages; ++msg) {
      POSTAL_REQUIRE(options.origins[msg] < n,
                     "validate_schedule: message origin out of range");
      holds[options.origins[msg] * messages + msg] = 0;
    }
  }
  report.trace.reserve(events.size());
  // The Rational of the latest arrival recorded: arrivals repeat in runs,
  // so the conversion happens once per distinct arrival time.
  Tick cached_arrive = 0;
  Rational cached_arrival(0);

  for (std::size_t k = 0; k < events.size(); ++k) {
    const std::size_t i = order.empty() ? k : order[k];
    const SendEvent& e = events[i];
    // The "[event] " prefix of a violation, formatted only when one fires.
    auto who = [&e] {
      std::ostringstream oss;
      oss << "[" << e << "] ";
      return oss.str();
    };
    if (e.src >= n || e.dst >= n) {
      violate(who() + "processor id out of range");
      continue;
    }
    if (e.msg >= messages) {
      violate(who() + "message id out of range");
      continue;
    }
    const Tick t = plan.event_ticks[i];
    // A dead processor cannot transmit: such an event proves the schedule
    // was not produced under the declared crashes.
    if (const Tick* dead = crash_of(e.src); dead != nullptr && t >= *dead) {
      violate(who() + "p" + std::to_string(e.src) + " crashed at t=" +
              plan.rat(*dead).str() + " but sends afterwards");
      continue;
    }
    // Causality: the sender must hold the message when the send starts.
    const auto& held = holds[e.src * messages + e.msg];
    if (!held.has_value() || t < *held) {
      violate(who() + "sender does not hold the message yet" +
              (held.has_value() ? " (holds it only from t=" + plan.rat(*held).str() + ")"
                                : ""));
    }
    // Send-port exclusivity: [t, t+1).
    if (port_clash(send_free[e.src], t, plan.one)) {
      violate(who() + busy("send", e.src, send_free[e.src]));
    }
    // Receive port. Strict mode: exclusivity of [t+lambda-1, t+lambda),
    // overlap is a violation. FIFO mode: simultaneous arrivals serialize in
    // nominal-arrival order (the Machine's input-port queueing), so overlap
    // delays the arrival instead. Either way a delivery reaching a crashed
    // receiver at or after its crash time is void: no port use, no hold.
    Tick arrive = t + plan.lambda;
    const Tick* dst_dead = crash_of(e.dst);
    bool voided;
    if (options.fifo_receive) {
      const Tick window = std::max(arrive - plan.one, recv_free[e.dst]);
      arrive = window + plan.one;
      recv_free[e.dst] = arrive;
      voided = dst_dead != nullptr && arrive >= *dst_dead;
    } else {
      voided = dst_dead != nullptr && arrive >= *dst_dead;
      if (!voided && port_clash(recv_free[e.dst], arrive - plan.one, plan.one)) {
        violate(who() + busy("receive", e.dst, recv_free[e.dst]));
      }
    }
    if (voided) continue;
    auto& dst_holds = holds[e.dst * messages + e.msg];
    if (!dst_holds.has_value() || arrive < *dst_holds) dst_holds = arrive;
    if (arrive != cached_arrive) {
      cached_arrive = arrive;
      cached_arrival = plan.rat(arrive);
    }
    report.trace.record(Delivery{e.src, e.dst, e.msg, e.t, cached_arrival});
  }

  if (options.require_coverage) {
    const auto is_crashed = [&crash_of](ProcId p) { return crash_of(p) != nullptr; };
    if (!options.required.empty()) {
      for (const auto& [p, msg] : options.required) {
        POSTAL_REQUIRE(p < n && msg < messages,
                       "validate_schedule: required delivery out of range");
        const ProcId msg_origin =
            options.origins.empty() ? options.origin : options.origins[msg];
        if (p == msg_origin || is_crashed(p)) continue;
        if (!holds[p * messages + msg].has_value()) {
          violate("p" + std::to_string(p) + " never received required M" +
                  std::to_string(msg + 1));
        }
      }
    } else if (!options.origins.empty()) {
      // All-to-all goal with per-message origins.
      for (ProcId p = 0; p < n; ++p) {
        if (is_crashed(p)) continue;
        for (MsgId msg = 0; msg < messages; ++msg) {
          if (p == options.origins[msg]) continue;
          if (!holds[p * messages + msg].has_value()) {
            violate("p" + std::to_string(p) + " never received M" +
                    std::to_string(msg + 1));
          }
        }
      }
    } else {
      for (const ProcId p : report.trace.uncovered(options.origin)) {
        if (is_crashed(p)) continue;
        violate("p" + std::to_string(p) + " never received all messages");
      }
      if (messages == 0 && n > 1) {
        bool all_crashed = true;
        for (ProcId p = 0; p < n; ++p) {
          if (p != options.origin && !is_crashed(p)) all_crashed = false;
        }
        if (!all_crashed) violate("schedule delivers no messages but n > 1");
      }
    }
  }
}

// Visit order. The loop must see events in nondecreasing send time, ties
// in schedule order (a stable sort by t): then causality state (arrival
// times) is always known before any later send is examined -- an arrival
// enabling a send at t happened at a send that started at t - lambda < t
// -- and, because lambda is a constant, the order is also nominal-arrival
// order, which the fifo_receive serialization iterates in. An empty order
// means the schedule is already sorted and is visited in place, which is
// the case for every generator's and the Machine's output; other input is
// visited through a stable_sort of its indices.
std::vector<std::size_t> visit_order(const std::vector<SendEvent>& events) {
  const auto by_t = [](const SendEvent& a, const SendEvent& b) { return a.t < b.t; };
  if (std::is_sorted(events.begin(), events.end(), by_t)) return {};
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&events](std::size_t a, std::size_t b) {
    return events[a].t < events[b].t;
  });
  return order;
}

/// Static tick probe: fold every time the loop will touch into one
/// resolution q, convert, and bound the largest tick expression the loop
/// can form (arrive = t + lambda, +- 1 per port window, plus one unit per
/// event of FIFO receive drift) in 128-bit arithmetic. Any failure -- lcm
/// overflow, tick count overflow, bound exceeded -- raises OverflowError.
TickPlan probe_ticks(const std::vector<SendEvent>& events, const Rational& lambda,
                     const std::vector<std::optional<Rational>>& crash_times) {
  constexpr const char* kSite = "validate_schedule";
  std::int64_t q = lambda.den();
  for (const SendEvent& e : events) q = fold_grid(q, e.t, kSite);
  for (const auto& c : crash_times) {
    if (c.has_value()) q = fold_grid(q, *c, kSite);
  }

  TickPlan plan;
  plan.dom = TickDomain(q);
  plan.lambda = grid_ticks(plan.dom, lambda, kSite);
  plan.one = q;
  plan.event_ticks.reserve(events.size());
  Tick max_abs = 0;
  const auto magnitude = [](Tick t) {
    return t < 0 ? (t == INT64_MIN ? INT64_MAX : -t) : t;
  };
  for (const SendEvent& e : events) {
    plan.event_ticks.push_back(grid_ticks(plan.dom, e.t, kSite));
    max_abs = std::max(max_abs, magnitude(plan.event_ticks.back()));
  }
  plan.crash.resize(crash_times.size());
  for (std::size_t p = 0; p < crash_times.size(); ++p) {
    if (!crash_times[p].has_value()) continue;
    plan.crash[p] = grid_ticks(plan.dom, *crash_times[p], kSite);
    max_abs = std::max(max_abs, magnitude(*plan.crash[p]));
  }

  __extension__ using int128 = __int128;
  const int128 bound = static_cast<int128>(max_abs) + plan.lambda +
                       (static_cast<int128>(events.size()) + 2) * q;
  if (bound >= (int128{1} << 62)) {
    throw_grid_overflow(kSite, "tick bound for the schedule exceeds int64");
  }
  return plan;
}

}  // namespace

SimReport validate_schedule(const Schedule& schedule, const PostalParams& params,
                            const ValidatorOptions& options) {
  const std::uint64_t n = params.n();
  const Rational& lambda = params.lambda();
  const std::uint32_t messages =
      options.messages != 0 ? options.messages : schedule.message_count();
  const std::vector<SendEvent>& events = schedule.events();

  SimReport report;
  report.trace = Trace(n, messages);

  POSTAL_REQUIRE(options.origin < n, "validate_schedule: origin out of range");

  // Earliest known crash per processor (docs/FAULTS.md): deliveries at or
  // after it are void, sends at or after it are impossible, and the
  // processor is exempt from coverage. Left empty when none is declared.
  std::vector<std::optional<Rational>> crash;
  if (!options.crashes.empty()) crash.resize(n);
  for (const CrashFault& c : options.crashes) {
    POSTAL_REQUIRE(c.proc < n, "validate_schedule: crashed processor out of range");
    auto& slot = crash[c.proc];
    if (!slot.has_value() || c.time < *slot) slot = c.time;
  }

  const TickPlan plan = probe_ticks(events, lambda, crash);
  validate_events(plan, events, visit_order(events), n, messages, options, report);
  report.makespan = report.trace.makespan();
  report.order_preserving = report.trace.order_preserving();
  report.ok = report.violations.empty();
  return report;
}

}  // namespace postal
