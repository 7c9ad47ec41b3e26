#include "collectives/reduce.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "model/genfib.hpp"
#include "sched/bcast.hpp"

namespace postal {

Schedule reduce_schedule(const PostalParams& params) {
  Schedule schedule;
  if (params.n() == 1) return schedule;
  GenFib fib(params.lambda());
  const Schedule bcast = bcast_schedule(params, fib);
  const Rational T = fib.f(params.n());
  // Time reversal: a broadcast send u -> v at t (arriving t + lambda)
  // becomes a combine send v -> u at T - t - lambda (arriving T - t).
  for (const SendEvent& e : bcast.events()) {
    schedule.add(e.dst, e.src, /*msg=*/e.dst, T - e.t - params.lambda());
  }
  schedule.sort();
  return schedule;
}

Rational predict_reduce(const PostalParams& params) {
  if (params.n() == 1) return Rational(0);
  GenFib fib(params.lambda());
  return fib.f(params.n());
}

ReduceReport validate_reduce(const Schedule& schedule, const PostalParams& params) {
  const std::uint64_t n = params.n();
  const Rational& lambda = params.lambda();
  ReduceReport report;
  auto violate = [&report](const std::string& text) {
    report.violations.push_back(text);
  };

  std::vector<SendEvent> events = schedule.events();
  std::stable_sort(events.begin(), events.end(),
                   [](const SendEvent& a, const SendEvent& b) { return a.t < b.t; });

  // A rank sends at most once (a second send is rejected before any port
  // use), so only receive ports can clash. Events are visited in t order
  // and lambda is a constant, so the windows [t+lambda-1, t+lambda) offered
  // to one port come in nondecreasing start: the end of the last accepted
  // window decides the check (LatestWindows in sched/tick_check.hpp), and
  // 0 marks a port that has accepted nothing.
  std::vector<Rational> recv_free(n);
  std::vector<std::optional<Rational>> sent_at(n);
  // contributions[p]: count of distinct inputs currently combined at p.
  std::vector<std::uint64_t> contributions(n, 1);

  // Events are visited in t order and lambda is a constant, so arrivals
  // are pushed in nondecreasing arrival order (ties in push order): the
  // queue is consumed from a head cursor, never re-sorted.
  struct PendingArrival {
    Rational arrival;
    ProcId dst;
    std::uint64_t count;
  };
  std::vector<PendingArrival> pending;
  std::size_t head = 0;

  auto flush_until = [&](const Rational& now) {
    for (; head < pending.size() && pending[head].arrival <= now; ++head) {
      const PendingArrival& a = pending[head];
      if (sent_at[a.dst].has_value() && *sent_at[a.dst] < a.arrival) {
        std::ostringstream oss;
        oss << "p" << a.dst << " already sent its partial result at t="
            << *sent_at[a.dst] << " but a contribution arrives at t=" << a.arrival;
        violate(oss.str());
      } else {
        contributions[a.dst] += a.count;
      }
    }
  };

  for (const SendEvent& e : events) {
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
    flush_until(e.t);
    if (e.src == 0) {
      violate(who() + "the reduction root p0 must not send");
      continue;
    }
    if (sent_at[e.src].has_value()) {
      violate(who() + "processor sends its partial result twice");
      continue;
    }
    sent_at[e.src] = e.t;
    const Rational arrive = e.t + lambda;
    if (arrive - Rational(1) < recv_free[e.dst]) {
      violate(who() + "receive-port conflict");
    } else {
      recv_free[e.dst] = arrive;
    }
    pending.push_back(PendingArrival{arrive, e.dst, contributions[e.src]});
    report.completion = rmax(report.completion, arrive);
  }
  // Flush everything still in flight.
  Rational horizon = report.completion + Rational(1);
  flush_until(horizon);

  for (ProcId p = 1; p < n; ++p) {
    if (!sent_at[p].has_value()) {
      violate("p" + std::to_string(p) + " never sent its contribution");
    }
  }
  if (contributions[0] != n) {
    violate("root combined " + std::to_string(contributions[0]) + " of " +
            std::to_string(n) + " contributions");
  }
  report.ok = report.violations.empty();
  return report;
}

}  // namespace postal
