// The validator's visit order. validate_schedule must judge a schedule
// exactly as if its events were first stable-sorted by send time: the same
// violations in the same order, the same deliveries in the same order, the
// same makespan and order-preservation verdict. Sorted input is visited in
// place and unsorted input through a sorted index; both routes, on both
// time paths, must reproduce stable_sort semantics.
//
// scripts/check.sh --sanitize re-runs this binary under ASan+UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "sched/bcast.hpp"
#include "sim/validator.hpp"
#include "support/prng.hpp"

namespace postal {
namespace {

struct Case {
  PostalParams params;
  Schedule schedule;  // shuffled: not in time order
  ValidatorOptions options;
};

Schedule stable_sort_by_t(const Schedule& s) {
  std::vector<SendEvent> events = s.events();
  std::stable_sort(events.begin(), events.end(),
                   [](const SendEvent& a, const SendEvent& b) { return a.t < b.t; });
  Schedule out;
  for (SendEvent& e : events) out.add(std::move(e));
  return out;
}

// A seeded schedule with a mix of legal and broken sends: a BCAST
// schedule, some sends moved by whole or fractional ticks (port clashes,
// causality breaks), some duplicated (same-time ties), a few random extra
// sends, optionally one far-away send (a tick span of 2^40), optional
// declared crashes -- then shuffled.
Case random_case(Xoshiro256& rng, bool fifo) {
  const std::uint64_t n = rng.uniform(3, 40);
  const std::uint64_t uq = rng.uniform(1, 3);
  const auto q = static_cast<std::int64_t>(uq);
  const auto p = static_cast<std::int64_t>(rng.uniform(uq, 4 * uq));
  Case c{PostalParams(n, Rational(p, q)), Schedule(), ValidatorOptions()};
  const auto proc = [&] { return static_cast<ProcId>(rng.uniform(0, n - 1)); };
  const auto other = [&](ProcId src) {
    ProcId dst = proc();
    while (dst == src) dst = proc();
    return dst;
  };
  // A time k/q with 0 <= k <= units * q.
  const auto grid_time = [&](std::uint64_t units) {
    return Rational(static_cast<std::int64_t>(rng.uniform(0, units * uq)), q);
  };

  std::vector<SendEvent> events = bcast_schedule(c.params).events();
  for (SendEvent& e : events) {
    if (rng.uniform(0, 5) == 0) {
      // Fractional moves at 1/(2q) also make the probe fold a finer grid.
      const Rational step(static_cast<std::int64_t>(rng.uniform(1, 4)),
                          rng.uniform(0, 1) == 0 ? q : 2 * q);
      e.t = rng.uniform(0, 1) == 0 || e.t < step ? e.t + step : e.t - step;
    }
  }
  const std::size_t base = events.size();
  for (std::size_t k = 0; k < base / 4 + 1; ++k) {
    events.push_back(events[rng.uniform(0, base - 1)]);
  }
  for (std::uint64_t k = rng.uniform(0, 4); k > 0; --k) {
    const ProcId src = proc();
    events.push_back(SendEvent{src, other(src), 0, grid_time(12)});
  }
  if (rng.uniform(0, 3) == 0) {
    const ProcId src = proc();
    events.push_back(SendEvent{src, other(src), 0, Rational(std::int64_t{1} << 40)});
  }
  for (std::size_t i = events.size(); i > 1; --i) {
    std::swap(events[i - 1], events[rng.uniform(0, i - 1)]);
  }
  for (SendEvent& e : events) c.schedule.add(std::move(e));

  c.options.fifo_receive = fifo;
  c.options.require_coverage = rng.uniform(0, 1) == 0;
  for (std::uint64_t k = rng.uniform(0, 3); k > 0; --k) {
    c.options.crashes.push_back(CrashFault{proc(), grid_time(8)});
  }
  return c;
}

void expect_same_report(const SimReport& got, const SimReport& want) {
  EXPECT_EQ(got.ok, want.ok);
  EXPECT_EQ(got.violations, want.violations);
  EXPECT_EQ(got.trace.deliveries(), want.trace.deliveries());
  EXPECT_EQ(got.makespan, want.makespan);
  EXPECT_EQ(got.order_preserving, want.order_preserving);
  EXPECT_EQ(got.tick_domain, want.tick_domain);
}

TEST(ValidatorOrder, ShuffledEqualsStableSortedOnBothPaths) {
  Xoshiro256 rng(20261016);
  std::size_t broken = 0;
  std::size_t unsorted = 0;
  for (int trial = 0; trial < 160; ++trial) {
    const Case c = random_case(rng, trial % 2 == 1);
    const Schedule sorted = stable_sort_by_t(c.schedule);
    if (sorted.events() != c.schedule.events()) ++unsorted;
    std::vector<SimReport> by_path;
    for (const TimePath path : {TimePath::kAuto, TimePath::kRational}) {
      SCOPED_TRACE("trial " + std::to_string(trial) +
                   (path == TimePath::kAuto ? " kAuto" : " kRational"));
      ValidatorOptions options = c.options;
      options.time_path = path;
      by_path.push_back(validate_schedule(c.schedule, c.params, options));
      expect_same_report(by_path.back(), validate_schedule(sorted, c.params, options));
      if (!by_path.back().ok) ++broken;
    }
    // The tick path judges the shuffled schedule as the Rational one does.
    SCOPED_TRACE("trial " + std::to_string(trial) + " kAuto vs kRational");
    by_path[1].tick_domain = by_path[0].tick_domain;
    expect_same_report(by_path[0], by_path[1]);
  }
  // The corpus must actually exercise the sorting and violation paths.
  EXPECT_GT(unsorted, 150u);
  EXPECT_GT(broken, 100u);
}

}  // namespace
}  // namespace postal
