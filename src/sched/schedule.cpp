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

Schedule Schedule::from_tick_log(TickLog log, std::int64_t q, std::uint64_t n,
                                 std::uint64_t* sends_per_src) {
  RankBlockAssembly assembly({{log.data(), log.size(), 0, n}}, q, n, sends_per_src);
  assembly.order(0);
  assembly.place();
  assembly.scatter(0);
  return assembly.take();
}

RankBlockAssembly::RankBlockAssembly(std::vector<Segment> segments, std::int64_t q,
                                     std::uint64_t n, std::uint64_t* sends_per_src)
    : segments_(std::move(segments)), sends_per_src_(sends_per_src) {
  POSTAL_REQUIRE(q >= 1, "Schedule::from_tick_log: grid denominator must be >= 1");
  base_.resize(segments_.size());
  plans_.resize(segments_.size());
  std::size_t total = 0;
  std::uint64_t ranks_seen = 0;
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    const Segment& seg = segments_[s];
    POSTAL_CHECK(seg.lo >= ranks_seen && seg.lo <= seg.hi && seg.hi <= n);
    ranks_seen = seg.hi;
    base_[s] = total;
    total += seg.size;
  }
  cap_ = counting_span_cap(total);
  compare_ = n > cap_ || total > std::numeric_limits<std::uint32_t>::max();
  out_.q_ = q;
  out_.records_.resize(total);
}

void RankBlockAssembly::order(std::size_t s) {
  constexpr unsigned kBlockShift = 15;
  static_assert(kAssemblyBlockRanks == std::uint64_t{1} << kBlockShift);
  const Segment& seg = segments_[s];
  Plan& plan = plans_[s];
  TickSend* const first = seg.sends;
  TickSend* const last = seg.sends + seg.size;
  plan.origin = seg.lo - seg.lo % kAssemblyBlockRanks;
  plan.shift = kBlockShift;
  const std::size_t aligned =
      seg.hi > seg.lo
          ? static_cast<std::size_t>((seg.hi - 1 - plan.origin) >> kBlockShift) + 1
          : 0;
  std::vector<std::size_t> starts(aligned + 1, 0);
  Tick lo = std::numeric_limits<Tick>::max();
  Tick hi = 0;
  for (const TickSend* e = first; e != last; ++e) {
    POSTAL_CHECK(e->tick >= 0 && e->src >= seg.lo && e->src < seg.hi);
    POSTAL_REQUIRE(e->src != e->dst, "Schedule: a processor cannot send to itself");
    ++starts[((e->src - plan.origin) >> kBlockShift) + 1];
    lo = std::min(lo, e->tick);
    hi = std::max(hi, e->tick);
  }
  if (compare_ || seg.size == 0) {
    count_sends(seg);
    return;
  }
  // place() sums every segment's (tick, block) table: a segment may spend
  // its share of the cap, cut into aligned blocks if they fit in it, as
  // one block if only that fits, and not at all otherwise.
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  const std::uint64_t share = cap_ / segments_.size();
  if (span > share) {
    plan.too_wide = true;
    count_sends(seg);
    return;
  }
  if (aligned * span > share) {
    plan.origin = seg.lo;
    plan.shift = 32;  // every src - origin < 2^32: one block
    starts = {0, seg.size};
  } else {
    for (std::size_t k = 1; k < starts.size(); ++k) starts[k] += starts[k - 1];
  }
  plan.blocks = starts.size() - 1;
  plan.tick_lo = lo;
  plan.span = static_cast<std::size_t>(span);
  plan.counts.assign(plan.blocks * plan.span, 0);

  // Group the segment by block into its slice of the output (scatter()
  // overwrites it only after every segment is ordered), then order each
  // block by src through a cache-sized scratch back into the segment.
  const TickSend* grouped = first;
  if (plan.blocks > 1) {
    TickSend* const slice = out_.records_.data() + base_[s];
    std::vector<std::size_t> next(starts.begin(), starts.end() - 1);
    for (const TickSend* e = first; e != last; ++e) {
      slice[next[(e->src - plan.origin) >> plan.shift]++] = *e;
    }
    grouped = slice;
  }
  std::size_t widest = 0;
  for (std::size_t k = 0; k < plan.blocks; ++k) {
    widest = std::max(widest, starts[k + 1] - starts[k]);
  }
  TickLog scratch(widest);
  std::vector<std::uint32_t> ends;
  for (std::size_t k = 0; k < plan.blocks; ++k) {
    const std::uint64_t rank_lo =
        std::max(seg.lo, plan.origin + (std::uint64_t{k} << plan.shift));
    const std::uint64_t rank_hi =
        std::min(seg.hi, plan.origin + (std::uint64_t{k + 1} << plan.shift));
    std::uint32_t* const counts = plan.counts.data() + k * plan.span;
    const TickSend* const block_first = grouped + starts[k];
    const TickSend* const block_last = grouped + starts[k + 1];
    counting_pass(
        static_cast<std::size_t>(rank_hi - rank_lo), ends,
        [&](const auto& f) {
          for (const TickSend* e = block_first; e != block_last; ++e) f(*e);
        },
        [rank_lo](const TickSend& e) {
          return static_cast<std::size_t>(e.src - rank_lo);
        },
        [&](std::uint32_t slot, const TickSend& e) {
          scratch[slot] = e;
          ++counts[e.tick - lo];
        });
    // The pass's bucket ends are the block's per-src send counts, in rank
    // order: one sequential write per rank.
    if (sends_per_src_ != nullptr) {
      std::uint32_t before = 0;
      for (std::uint64_t r = rank_lo; r < rank_hi; ++r) {
        const std::uint32_t end = ends[r - rank_lo];
        sends_per_src_[r] = end - before;
        before = end;
      }
    }
    std::copy(scratch.begin(),
              scratch.begin() + static_cast<std::ptrdiff_t>(block_last - block_first),
              first + starts[k]);
  }
}

void RankBlockAssembly::count_sends(const Segment& seg) {
  if (sends_per_src_ == nullptr) return;
  for (const TickSend* e = seg.sends; e != seg.sends + seg.size; ++e) ++sends_per_src_[e->src];
}

void RankBlockAssembly::place() {
  if (compare_) return;
  Tick lo = std::numeric_limits<Tick>::max();
  Tick hi = -1;
  for (const Plan& plan : plans_) {
    if (plan.too_wide) {
      compare_ = true;
      return;
    }
    if (plan.span == 0) continue;
    lo = std::min(lo, plan.tick_lo);
    hi = std::max(hi, plan.tick_lo + static_cast<Tick>(plan.span) - 1);
  }
  if (hi < lo) return;
  if (static_cast<std::uint64_t>(hi - lo) + 1 > cap_ / plans_.size()) {
    compare_ = true;
    return;
  }
  // Tick-major, then segment and block: both hold ascending rank ranges,
  // so this is (tick, src) order.
  std::uint32_t offset = 0;
  for (Tick t = lo; t <= hi; ++t) {
    for (Plan& plan : plans_) {
      const Tick at = t - plan.tick_lo;
      if (at < 0 || at >= static_cast<Tick>(plan.span)) continue;
      for (std::size_t k = 0; k < plan.blocks; ++k) {
        std::uint32_t& c = plan.counts[k * plan.span + static_cast<std::size_t>(at)];
        const std::uint32_t count = c;
        c = offset;
        offset += count;
      }
    }
  }
}

void RankBlockAssembly::scatter(std::size_t s) {
  const Segment& seg = segments_[s];
  TickSend* const out = out_.records_.data();
  if (compare_) {
    std::copy(seg.sends, seg.sends + seg.size, out + base_[s]);
    return;
  }
  if (seg.size == 0) return;
  Plan& plan = plans_[s];
  // Each block is in src order, so a repeated (tick, src) follows its twin
  // among the block's sends at that tick; blocks hold disjoint ranks.
  constexpr ProcId kNone = std::numeric_limits<ProcId>::max();
  std::vector<ProcId> last_src(plan.span, kNone);
  for (const TickSend* e = seg.sends; e != seg.sends + seg.size; ++e) {
    const auto at = static_cast<std::size_t>(e->tick - plan.tick_lo);
    POSTAL_CHECK(last_src[at] != e->src);
    last_src[at] = e->src;
    const auto k = static_cast<std::size_t>((e->src - plan.origin) >> plan.shift);
    out[plan.counts[k * plan.span + at]++] = *e;
  }
}

Schedule RankBlockAssembly::take() {
  std::vector<TickSend>& records = out_.records_;
  if (compare_) {
    // Too wide to count, e.g. a send after a long timer: compare instead.
    // A repeated (tick, src) sorts next to its twin.
    std::sort(records.begin(), records.end(), record_less);
    for (std::size_t i = 1; i < records.size(); ++i) {
      POSTAL_CHECK(records[i].tick != records[i - 1].tick ||
                   records[i].src != records[i - 1].src);
    }
  }
  segments_.clear();
  plans_.clear();
  return std::move(out_);
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

}  // namespace postal
