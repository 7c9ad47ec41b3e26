#include "sched/schedule.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <ostream>
#include <tuple>

#include "support/counting_sort.hpp"
#include "support/error.hpp"

namespace postal {

namespace {

/// Finest grid Schedule::sort folds event times onto; schedules needing a
/// finer one keep the comparison sort.
constexpr std::int64_t kSortGridCap = std::int64_t{1} << 20;
/// Below this size a comparison sort costs less than the buckets.
constexpr std::size_t kBucketSortMinSize = 64;

bool event_less(const SendEvent& a, const SendEvent& b) {
  return std::tie(a.t, a.src, a.dst, a.msg) < std::tie(b.t, b.src, b.dst, b.msg);
}

/// The order inside one tick bucket, whose events share t.
bool same_tick_less(const SendEvent& a, const SendEvent& b) {
  return std::tie(a.src, a.dst, a.msg) < std::tie(b.src, b.dst, b.msg);
}

/// Order one tick bucket. Generators emit a tick either ascending or, like
/// BCAST's depth-first recursion, in strictly descending src order; both
/// are recognised in a linear scan before a comparison sort.
void order_bucket(std::vector<SendEvent>::iterator first,
                  std::vector<SendEvent>::iterator last) {
  if (last - first < 2 || std::is_sorted(first, last, same_tick_less)) return;
  const auto not_descending = [](const SendEvent& a, const SendEvent& b) {
    return !same_tick_less(b, a);
  };
  if (std::adjacent_find(first, last, not_descending) == last) {
    std::reverse(first, last);
  } else {
    std::sort(first, last, same_tick_less);
  }
}

/// Schedule::sort's fast path: fold every time onto one 1/q grid (q <=
/// kSortGridCap), counting-sort by tick, then order each tick's bucket.
/// Returns false, leaving `events` untouched, when the grid or the tick
/// span is too wide.
bool bucket_sort(std::vector<SendEvent>& events) {
  const std::size_t size = events.size();
  if (size < kBucketSortMinSize) return false;
  std::int64_t q = 1;
  std::int64_t last_den = 1;
  for (const SendEvent& e : events) {
    const std::int64_t d = e.t.den();
    if (d == 1 || d == last_den || d == q) continue;
    last_den = d;
    if (q % d == 0) continue;
    const std::int64_t step = d / std::gcd(q, d);
    if (q > kSortGridCap / step) return false;
    q *= step;
  }
  // Ticks per unit of an event's denominator (times are >= 0, see add).
  const auto scale = [q](std::int64_t d) { return d == 1 ? q : d == q ? 1 : q / d; };
  Tick lo = std::numeric_limits<Tick>::max();
  Tick hi = 0;
  for (const SendEvent& e : events) {
    Tick tick = 0;
    if (__builtin_mul_overflow(e.t.num(), scale(e.t.den()), &tick)) return false;
    lo = std::min(lo, tick);
    hi = std::max(hi, tick);
  }
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span > counting_span_cap(size)) return false;

  std::vector<SendEvent> sorted(size);
  std::vector<std::size_t> ends;
  counting_pass(
      static_cast<std::size_t>(span), ends,
      [&](const auto& f) {
        for (SendEvent& e : events) f(e);
      },
      [&](const SendEvent& e) {
        return static_cast<std::size_t>(e.t.num() * scale(e.t.den()) - lo);
      },
      [&](std::size_t slot, SendEvent& e) { sorted[slot] = std::move(e); });
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    order_bucket(sorted.begin() + static_cast<std::ptrdiff_t>(begin),
                 sorted.begin() + static_cast<std::ptrdiff_t>(end));
    begin = end;
  }
  events = std::move(sorted);
  return true;
}

}  // namespace

std::ostream& operator<<(std::ostream& os, const SendEvent& e) {
  return os << "p" << e.src << " -> p" << e.dst << " : M" << (e.msg + 1)
            << " @ t=" << e.t;
}

void Schedule::add(ProcId src, ProcId dst, MsgId msg, Rational t) {
  add(SendEvent{src, dst, msg, std::move(t)});
}

void Schedule::add(SendEvent event) {
  POSTAL_REQUIRE(event.src != event.dst, "Schedule: a processor cannot send to itself");
  POSTAL_REQUIRE(event.t >= Rational(0), "Schedule: send times must be >= 0");
  events_.push_back(std::move(event));
}

void Schedule::append_shifted(const Schedule& other, const Rational& dt,
                              MsgId msg_offset) {
  events_.reserve(events_.size() + other.events_.size());
  for (const SendEvent& e : other.events_) {
    add(e.src, e.dst, e.msg + msg_offset, e.t + dt);
  }
}

void Schedule::sort() {
  if (!bucket_sort(events_)) std::stable_sort(events_.begin(), events_.end(), event_less);
}

Schedule Schedule::from_tick_log(TickLog log, std::int64_t q, std::uint64_t n) {
  std::vector<TickLog> logs;
  logs.push_back(std::move(log));
  return from_tick_log(std::move(logs), q, n);
}

Schedule Schedule::from_tick_log(std::vector<TickLog> logs, std::int64_t q,
                                 std::uint64_t n) {
  POSTAL_REQUIRE(q >= 1, "Schedule::from_tick_log: grid denominator must be >= 1");
  std::size_t size = 0;
  Tick lo = std::numeric_limits<Tick>::max();
  Tick hi = 0;
  for (const TickLog& log : logs) {
    size += log.size();
    for (const TickSend& e : log) {
      POSTAL_CHECK(e.tick >= 0 && e.src < n);
      lo = std::min(lo, e.tick);
      hi = std::max(hi, e.tick);
    }
  }
  Schedule out;
  if (size == 0) return out;

  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  const std::uint64_t cap = counting_span_cap(size);
  if (span > cap || n > cap || size > std::numeric_limits<std::uint32_t>::max()) {
    // Too wide to count, e.g. a send after a long timer: compare instead.
    std::vector<SendEvent>& events = out.events_;
    events.reserve(size);
    for (const TickLog& log : logs) {
      for (const TickSend& e : log) {
        events.push_back(SendEvent{e.src, e.dst, e.msg, Rational(e.tick, q)});
      }
    }
    logs.clear();
    std::sort(events.begin(), events.end(), event_less);
    for (std::size_t i = 1; i < size; ++i) {
      POSTAL_CHECK(events[i].t != events[i - 1].t || events[i].src != events[i - 1].src);
    }
    return out;
  }

  // A stable counting pass by src, then one by tick that writes the
  // schedule itself: one Rational per distinct tick, and a tick's sources
  // arrive in ascending order, so a repeat is always its bucket's last.
  TickLog by_src(size);
  std::vector<std::uint32_t> ends;
  counting_pass(
      static_cast<std::size_t>(n), ends,
      [&](const auto& f) {
        for (const TickLog& log : logs) {
          for (const TickSend& e : log) f(e);
        }
      },
      [](const TickSend& e) { return static_cast<std::size_t>(e.src); },
      [&](std::uint32_t slot, const TickSend& e) { by_src[slot] = e; });
  logs.clear();
  struct TickBucket {
    Rational t;
    std::int64_t last_src = -1;
  };
  std::vector<TickBucket> buckets(static_cast<std::size_t>(span));
  out.events_.resize(size);
  counting_pass(
      static_cast<std::size_t>(span), ends,
      [&](const auto& f) {
        for (const TickSend& e : by_src) f(e);
      },
      [lo](const TickSend& e) { return static_cast<std::size_t>(e.tick - lo); },
      [&](std::uint32_t slot, const TickSend& e) {
        TickBucket& b = buckets[static_cast<std::size_t>(e.tick - lo)];
        if (b.last_src < 0) b.t = Rational(e.tick, q);
        POSTAL_CHECK(b.last_src != e.src);
        b.last_src = e.src;
        out.events_[slot] = SendEvent{e.src, e.dst, e.msg, b.t};
      });
  return out;
}

Rational Schedule::last_send_start() const {
  Rational latest(0);
  for (const SendEvent& e : events_) latest = rmax(latest, e.t);
  return latest;
}

Rational Schedule::makespan(const Rational& lambda) const {
  if (events_.empty()) return Rational(0);
  return last_send_start() + lambda;
}

std::vector<std::uint64_t> Schedule::sends_per_proc(std::uint64_t n) const {
  std::vector<std::uint64_t> counts(n, 0);
  for (const SendEvent& e : events_) {
    POSTAL_REQUIRE(e.src < n && e.dst < n,
                   "Schedule::sends_per_proc: event references processor >= n");
    ++counts[e.src];
  }
  return counts;
}

std::uint32_t Schedule::message_count() const {
  std::uint32_t max_id = 0;
  bool any = false;
  for (const SendEvent& e : events_) {
    max_id = std::max(max_id, e.msg);
    any = true;
  }
  return any ? max_id + 1 : 0;
}

std::ostream& operator<<(std::ostream& os, const Schedule& s) {
  for (const SendEvent& e : s.events()) os << e << "\n";
  return os;
}

}  // namespace postal
