#include "sched/schedule.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <ostream>
#include <tuple>
#include <utility>

#include "support/counting_sort.hpp"
#include "support/error.hpp"

namespace postal {

namespace {

/// Below this size a comparison sort costs less than the buckets.
constexpr std::size_t kBucketSortMinSize = 64;

__extension__ using int128 = __int128;

bool record_less(const TickSend& a, const TickSend& b) {
  return std::tie(a.tick, a.src, a.dst, a.msg) < std::tie(b.tick, b.src, b.dst, b.msg);
}

/// The order inside one tick bucket, whose records share a tick.
bool same_tick_less(const TickSend& a, const TickSend& b) {
  return std::tie(a.src, a.dst, a.msg) < std::tie(b.src, b.dst, b.msg);
}

/// Order one tick bucket. Generators emit a tick either ascending or, like
/// BCAST's depth-first recursion, in strictly descending src order; both
/// are recognised in a linear scan before a comparison sort.
void order_bucket(std::vector<TickSend>::iterator first,
                  std::vector<TickSend>::iterator last) {
  if (last - first < 2 || std::is_sorted(first, last, same_tick_less)) return;
  const auto not_descending = [](const TickSend& a, const TickSend& b) {
    return !same_tick_less(b, a);
  };
  if (std::adjacent_find(first, last, not_descending) == last) {
    std::reverse(first, last);
  } else {
    std::sort(first, last, same_tick_less);
  }
}

/// Smallest and largest tick of `records` (non-empty).
std::pair<Tick, Tick> tick_range(const std::vector<TickSend>& records) {
  Tick lo = std::numeric_limits<Tick>::max();
  Tick hi = 0;
  for (const TickSend& r : records) {
    lo = std::min(lo, r.tick);
    hi = std::max(hi, r.tick);
  }
  return {lo, hi};
}

}  // namespace

std::ostream& operator<<(std::ostream& os, const SendEvent& e) {
  return os << "p" << e.src << " -> p" << e.dst << " : M" << (e.msg + 1)
            << " @ t=" << e.t;
}

SendEventView::operator std::vector<SendEvent>() const {
  std::vector<SendEvent> out;
  out.reserve(size());
  for (const SendEvent& e : *this) out.push_back(e);
  return out;
}

bool operator==(const SendEventView& a, const SendEventView& b) {
  if (a.q_ == b.q_) return *a.records_ == *b.records_;
  const auto same = [qa = a.q_, qb = b.q_](const TickSend& x, const TickSend& y) {
    return x.src == y.src && x.dst == y.dst && x.msg == y.msg &&
           same_time(x.tick, qa, y.tick, qb);
  };
  return std::equal(a.records_->begin(), a.records_->end(), b.records_->begin(),
                    b.records_->end(), same);
}

bool operator==(const SendEventView& a, const std::vector<SendEvent>& b) {
  return std::equal(a.records_->begin(), a.records_->end(), b.begin(), b.end(),
                    [q = a.q_](const TickSend& x, const SendEvent& y) {
                      return x.src == y.src && x.dst == y.dst && x.msg == y.msg &&
                             same_time(x.tick, q, y.t.num(), y.t.den());
                    });
}

void Schedule::add(ProcId src, ProcId dst, MsgId msg, const Rational& t) {
  constexpr const char* kSite = "Schedule::add";
  POSTAL_REQUIRE(src != dst, "Schedule: a processor cannot send to itself");
  POSTAL_REQUIRE(t.num() >= 0, "Schedule: send times must be >= 0");
  const Tick per = q_ % t.den() == 0 ? q_ / t.den() : refine(t.den(), kSite);
  Tick tick = 0;
  if (__builtin_mul_overflow(t.num(), per, &tick)) {
    throw_grid_overflow(kSite, "tick count exceeds int64");
  }
  records_.push_back(TickSend{tick, src, dst, msg});
}

void Schedule::add(const SendEvent& event) {
  add(event.src, event.dst, event.msg, event.t);
}

Tick Schedule::refine(std::int64_t q, const char* site) {
  POSTAL_REQUIRE(q >= 1, "Schedule::refine: grid denominator must be >= 1");
  // The rule of Machine::rescale: the new grid is lcm(q_, q), a multiple of
  // the old one, so every tick scales by the exact integer factor k. Checked
  // before anything changes, so a throw leaves the schedule as it was.
  const std::int64_t k = q / std::gcd(q_, q);
  if (k != 1) {
    std::int64_t grid = 0;
    if (__builtin_mul_overflow(q_, k, &grid)) {
      throw_grid_overflow(site, "common time denominator exceeds int64");
    }
    if (!records_.empty() &&
        static_cast<int128>(tick_range(records_).second) * k >
            std::numeric_limits<Tick>::max()) {
      throw_grid_overflow(site, "rescaled tick exceeds int64");
    }
    for (TickSend& r : records_) r.tick *= k;
    q_ = grid;
  }
  return q_ / q;
}

void Schedule::append_shifted(const Schedule& other, const Rational& dt,
                              MsgId msg_offset) {
  constexpr const char* kSite = "Schedule::append_shifted";
  if (&other == this) {
    const Schedule copy = other;
    append_shifted(copy, dt, msg_offset);
    return;
  }
  refine(other.q_, kSite);
  refine(dt.den(), kSite);
  const Tick per_other = q_ / other.q_;
  Tick shift = 0;
  if (__builtin_mul_overflow(dt.num(), q_ / dt.den(), &shift)) {
    throw_grid_overflow(kSite, "tick count exceeds int64");
  }
  records_.reserve(records_.size() + other.records_.size());
  for (const TickSend& e : other.records_) {
    Tick tick = 0;
    if (__builtin_mul_overflow(e.tick, per_other, &tick) ||
        __builtin_add_overflow(tick, shift, &tick)) {
      throw_grid_overflow(kSite, "tick count exceeds int64");
    }
    POSTAL_REQUIRE(tick >= 0, "Schedule: send times must be >= 0");
    records_.push_back(TickSend{tick, e.src, e.dst, e.msg + msg_offset});
  }
}

void Schedule::sort() {
  // A counting pass by tick, then one order_bucket per tick; small
  // schedules and spans too wide to count take a comparison sort.
  const std::size_t size = records_.size();
  if (size >= kBucketSortMinSize) {
    const auto [lo, hi] = tick_range(records_);
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span <= counting_span_cap(size)) {
      std::vector<TickSend> sorted(size);
      std::vector<std::size_t> ends;
      counting_pass(
          static_cast<std::size_t>(span), ends,
          [&](const auto& f) {
            for (const TickSend& e : records_) f(e);
          },
          [lo](const TickSend& e) { return static_cast<std::size_t>(e.tick - lo); },
          [&](std::size_t slot, const TickSend& e) { sorted[slot] = e; });
      std::size_t begin = 0;
      for (const std::size_t end : ends) {
        order_bucket(sorted.begin() + static_cast<std::ptrdiff_t>(begin),
                     sorted.begin() + static_cast<std::ptrdiff_t>(end));
        begin = end;
      }
      records_ = std::move(sorted);
      return;
    }
  }
  std::sort(records_.begin(), records_.end(), record_less);
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
  out.q_ = q;
  if (size == 0) return out;

  std::vector<TickSend>& records = out.records_;
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  const std::uint64_t cap = counting_span_cap(size);
  if (span > cap || n > cap || size > std::numeric_limits<std::uint32_t>::max()) {
    // Too wide to count, e.g. a send after a long timer: compare instead.
    records.reserve(size);
    for (const TickLog& log : logs) records.insert(records.end(), log.begin(), log.end());
    logs.clear();
    std::sort(records.begin(), records.end(), record_less);
  } else {
    // A stable counting pass by src, then one by tick that writes the
    // schedule itself: (tick, src) order, which is (t, src, dst, msg)
    // order since a port sends once per tick.
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
    records.resize(size);
    counting_pass(
        static_cast<std::size_t>(span), ends,
        [&](const auto& f) {
          for (const TickSend& e : by_src) f(e);
        },
        [lo](const TickSend& e) { return static_cast<std::size_t>(e.tick - lo); },
        [&](std::uint32_t slot, const TickSend& e) { records[slot] = e; });
  }
  // A repeated (tick, src) sorts next to its twin.
  for (std::size_t i = 1; i < size; ++i) {
    POSTAL_CHECK(records[i].tick != records[i - 1].tick ||
                 records[i].src != records[i - 1].src);
  }
  return out;
}

Rational Schedule::last_send_start() const {
  if (records_.empty()) return Rational(0);
  return Rational(tick_range(records_).second, q_);
}

Rational Schedule::makespan(const Rational& lambda) const {
  if (records_.empty()) return Rational(0);
  return last_send_start() + lambda;
}

std::vector<std::uint64_t> Schedule::sends_per_proc(std::uint64_t n) const {
  std::vector<std::uint64_t> counts(n, 0);
  for (const TickSend& e : records_) {
    POSTAL_REQUIRE(e.src < n && e.dst < n,
                   "Schedule::sends_per_proc: event references processor >= n");
    ++counts[e.src];
  }
  return counts;
}

std::uint32_t Schedule::message_count() const {
  if (records_.empty()) return 0;
  MsgId max_id = 0;
  for (const TickSend& e : records_) max_id = std::max(max_id, e.msg);
  return max_id + 1;
}

std::ostream& operator<<(std::ostream& os, const Schedule& s) {
  for (const SendEvent& e : s.events()) os << e << "\n";
  return os;
}

std::vector<std::size_t> tick_visit_order(const std::vector<TickSend>& records) {
  const auto by_tick = [](const TickSend& a, const TickSend& b) {
    return a.tick < b.tick;
  };
  if (std::is_sorted(records.begin(), records.end(), by_tick)) return {};
  std::vector<std::size_t> order(records.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&records](std::size_t a, std::size_t b) {
    return records[a].tick < records[b].tick;
  });
  return order;
}

}  // namespace postal
