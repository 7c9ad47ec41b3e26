#include "sim/validator.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <sstream>

namespace postal {

std::string SimReport::summary() const {
  if (ok) return "ok";
  std::ostringstream oss;
  oss << violations.size() << " violation(s):";
  for (const auto& v : violations) oss << "\n  - " << v;
  return oss.str();
}

namespace {

// The validation loop is written once, generic over the time
// representation (docs/PERFORMANCE.md). Two policies instantiate it:
//
//   RationalOps -- the historical reference: Rational times, checked
//                  arithmetic everywhere.
//   TickOps     -- int64 ticks at resolution 1/q: plain integer adds and
//                  compares. Chosen by a static probe (below) only when
//                  every input time is exactly representable and a 128-bit
//                  bound proves no tick expression can overflow, so the
//                  loop needs no per-op checks and cannot invoke UB.
//
// Exactness: tick <-> Rational is an order-preserving bijection on the
// admitted inputs, so both instantiations take identical branches, record
// identical deliveries, and -- because conversion round-trips reproduce
// the canonical reduced form -- produce byte-identical violation strings.

struct RationalOps {
  using Time = Rational;
  Rational lambda;
  Rational one{1};

  [[nodiscard]] const Time& event_time(const SendEvent& e, std::size_t i) const {
    static_cast<void>(i);
    return e.t;
  }
  [[nodiscard]] const Rational& rat(const Time& t) const { return t; }
};

struct TickOps {
  using Time = Tick;
  TickDomain dom;
  Tick lambda = 0;
  Tick one = 0;
  const std::vector<Tick>* event_ticks = nullptr;  // pre-converted, by index

  [[nodiscard]] Time event_time(const SendEvent& e, std::size_t i) const {
    static_cast<void>(e);
    return (*event_ticks)[i];
  }
  [[nodiscard]] Rational rat(Time t) const { return dom.to_rational(t); }
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
template <typename Time>
bool port_clash(Time& free_at, const Time& lo, const Time& one) {
  if (lo < free_at) return true;  // the port keeps its window
  free_at = lo + one;
  return false;
}

template <typename Ops>
void validate_events(const Ops& ops, const std::vector<SendEvent>& events,
                     const std::vector<std::size_t>& order, std::uint64_t n,
                     std::uint32_t messages, const ValidatorOptions& options,
                     const std::vector<std::optional<typename Ops::Time>>& crash,
                     SimReport& report) {
  using Time = typename Ops::Time;
  auto violate = [&report](const std::string& text) {
    report.violations.push_back(text);
  };
  // A port clash: p's port already holds the unit window ending at `free_at`.
  auto busy = [&ops](const char* port, ProcId p, const Time& free_at) {
    std::ostringstream oss;
    oss << port << " port of p" << p << " already busy on [" << ops.rat(free_at - ops.one)
        << ", " << ops.rat(free_at) << ")";
    return oss.str();
  };
  // Earliest crash of p, or nullptr; `crash` is empty when none is declared.
  auto crash_of = [&crash](ProcId p) -> const Time* {
    return crash.empty() || !crash[p].has_value() ? nullptr : &*crash[p];
  };

  // When each port is free again: the end of its last accepted window
  // (under fifo_receive, of its last queued receive).
  std::vector<Time> send_free(n, Time{});
  std::vector<Time> recv_free(n, Time{});
  // holds[p * messages + msg]: earliest time p holds msg (origin: 0).
  std::vector<std::optional<Time>> holds(n * messages);
  if (options.preholds) {
    for (auto& h : holds) h = Time{};
  } else if (options.origins.empty()) {
    for (MsgId msg = 0; msg < messages; ++msg) {
      holds[options.origin * messages + msg] = Time{};
    }
  } else {
    POSTAL_REQUIRE(options.origins.size() == messages,
                   "validate_schedule: origins must name one processor per message");
    for (MsgId msg = 0; msg < messages; ++msg) {
      POSTAL_REQUIRE(options.origins[msg] < n,
                     "validate_schedule: message origin out of range");
      holds[options.origins[msg] * messages + msg] = Time{};
    }
  }
  report.trace.reserve(events.size());
  // The Rational of the latest arrival recorded: arrivals repeat in runs,
  // so the conversion happens once per distinct arrival time.
  Time cached_arrive{};
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
    const Time t = ops.event_time(e, i);
    // A dead processor cannot transmit: such an event proves the schedule
    // was not produced under the declared crashes.
    if (const Time* dead = crash_of(e.src); dead != nullptr && t >= *dead) {
      violate(who() + "p" + std::to_string(e.src) + " crashed at t=" +
              ops.rat(*dead).str() + " but sends afterwards");
      continue;
    }
    // Causality: the sender must hold the message when the send starts.
    const auto& held = holds[e.src * messages + e.msg];
    if (!held.has_value() || t < *held) {
      violate(who() + "sender does not hold the message yet" +
              (held.has_value() ? " (holds it only from t=" + ops.rat(*held).str() + ")"
                                : ""));
    }
    // Send-port exclusivity: [t, t+1).
    if (port_clash(send_free[e.src], t, ops.one)) {
      violate(who() + busy("send", e.src, send_free[e.src]));
    }
    // Receive port. Strict mode: exclusivity of [t+lambda-1, t+lambda),
    // overlap is a violation. FIFO mode: simultaneous arrivals serialize in
    // nominal-arrival order (the Machine's input-port queueing), so overlap
    // delays the arrival instead. Either way a delivery reaching a crashed
    // receiver at or after its crash time is void: no port use, no hold.
    Time arrive = t + ops.lambda;
    const Time* dst_dead = crash_of(e.dst);
    bool voided;
    if (options.fifo_receive) {
      const Time window = std::max(arrive - ops.one, recv_free[e.dst]);
      arrive = window + ops.one;
      recv_free[e.dst] = arrive;
      voided = dst_dead != nullptr && arrive >= *dst_dead;
    } else {
      voided = dst_dead != nullptr && arrive >= *dst_dead;
      if (!voided && port_clash(recv_free[e.dst], arrive - ops.one, ops.one)) {
        violate(who() + busy("receive", e.dst, recv_free[e.dst]));
      }
    }
    if (voided) continue;
    auto& dst_holds = holds[e.dst * messages + e.msg];
    if (!dst_holds.has_value() || arrive < *dst_holds) dst_holds = arrive;
    if (arrive != cached_arrive) {
      cached_arrive = arrive;
      cached_arrival = ops.rat(arrive);
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

/// Static tick-path probe: fold every time the loop will touch into one
/// resolution q, convert, and bound the largest tick expression the loop
/// can form (arrive = t + lambda, +- 1 per port window, plus one unit per
/// event of FIFO receive drift) in 128-bit arithmetic. Any failure --
/// unrepresentable time, lcm overflow, bound exceeded -- returns nullopt
/// and validation stays on the Rational reference path.
struct TickPlan {
  TickOps ops;
  std::vector<Tick> event_ticks;
  std::vector<std::optional<Tick>> crash;
};

std::optional<TickPlan> probe_ticks(
    const std::vector<SendEvent>& events, const Rational& lambda,
    const std::vector<std::optional<Rational>>& crash_times) {
  std::int64_t q = lambda.den();
  auto fold = [&q](const Rational& r) {
    const std::optional<std::int64_t> folded = TickDomain::fold_denominator(q, r);
    if (!folded.has_value()) return false;
    q = *folded;
    return true;
  };
  for (const SendEvent& e : events) {
    if (!fold(e.t)) return std::nullopt;
  }
  for (const auto& c : crash_times) {
    if (c.has_value() && !fold(*c)) return std::nullopt;
  }

  const TickDomain dom(q);
  const std::optional<Tick> lambda_ticks = dom.to_ticks(lambda);
  if (!lambda_ticks.has_value()) return std::nullopt;

  TickPlan plan{TickOps{dom, *lambda_ticks, q, nullptr}, {}, {}};
  plan.event_ticks.reserve(events.size());
  Tick max_abs = 0;
  for (const SendEvent& e : events) {
    const std::optional<Tick> t = dom.to_ticks(e.t);
    if (!t.has_value()) return std::nullopt;
    plan.event_ticks.push_back(*t);
    max_abs = std::max(max_abs, *t < 0 ? (*t == INT64_MIN ? INT64_MAX : -*t) : *t);
  }
  plan.crash.resize(crash_times.size());
  for (std::size_t p = 0; p < crash_times.size(); ++p) {
    if (!crash_times[p].has_value()) continue;
    const std::optional<Tick> c = dom.to_ticks(*crash_times[p]);
    if (!c.has_value()) return std::nullopt;
    plan.crash[p] = *c;
    max_abs = std::max(max_abs, *c < 0 ? (*c == INT64_MIN ? INT64_MAX : -*c) : *c);
  }

  __extension__ using int128 = __int128;
  const int128 bound = static_cast<int128>(max_abs) + *lambda_ticks +
                       (static_cast<int128>(events.size()) + 2) * q;
  if (bound >= (int128{1} << 62)) return std::nullopt;
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

  // Both time paths visit the events in this one order, so their reports
  // are identical.
  const std::vector<std::size_t> order = visit_order(events);
  if (options.time_path == TimePath::kAuto) {
    if (std::optional<TickPlan> plan = probe_ticks(events, lambda, crash)) {
      plan->ops.event_ticks = &plan->event_ticks;
      validate_events(plan->ops, events, order, n, messages, options, plan->crash,
                      report);
      report.tick_domain = true;
      report.makespan = report.trace.makespan();
      report.order_preserving = report.trace.order_preserving();
      report.ok = report.violations.empty();
      return report;
    }
  }

  validate_events(RationalOps{lambda, Rational(1)}, events, order, n, messages, options,
                  crash, report);
  report.makespan = report.trace.makespan();
  report.order_preserving = report.trace.order_preserving();
  report.ok = report.violations.empty();
  return report;
}

}  // namespace postal
