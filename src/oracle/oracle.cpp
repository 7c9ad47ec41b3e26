#include "oracle/oracle.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace postal::oracle {

namespace {

// Overflow-checked tick add. Descent times are bounded by f_lambda(n)
// ticks -- the index range of GenFib's own memo table -- so this can only
// fire on an internal bug, never on a constructible input.
[[nodiscard]] Tick add_ticks(Tick a, Tick b) {
  Tick out = 0;
  if (__builtin_add_overflow(a, b, &out)) {
    throw OverflowError("ScheduleOracle: tick time overflow in descent");
  }
  return out;
}

}  // namespace

ScheduleOracle::ScheduleOracle(std::uint64_t n, Rational lambda,
                               par::GenFibCache* cache)
    : n_(n),
      lambda_(std::move(lambda)),
      q_(lambda_.den()),
      lambda_ticks_(lambda_.num()) {
  POSTAL_REQUIRE(n >= 1, "ScheduleOracle: n must be >= 1");
  POSTAL_REQUIRE(lambda_ >= Rational(1), "ScheduleOracle: lambda must be >= 1");
  table_ = (cache != nullptr ? *cache : par::GenFibCache::global()).F_table(lambda_, n_);
  F_ = table_->data();
  // The table may run past f_lambda(n) (it is shared and grows
  // geometrically); searches stop at f_lambda(n), the last index any
  // count <= n can need.
  makespan_ticks_ = static_cast<Tick>(
      std::lower_bound(table_->begin(), table_->end(), n_) - table_->begin());
}

Tick ScheduleOracle::f_ticks(std::uint64_t count) const {
  return static_cast<Tick>(std::lower_bound(F_, F_ + makespan_ticks_ + 1, count) - F_);
}

Rational ScheduleOracle::makespan() const { return tick_time(makespan_ticks_); }

ScheduleOracle::Cursor ScheduleOracle::locate(Rank rank) const {
  POSTAL_REQUIRE(rank < n_, "ScheduleOracle: rank out of range");
  Cursor c;
  c.count = n_;
  Tick now = 0;  // the current holder's next send start
  while (c.base != rank) {
    // rank lies strictly inside [base, base + count), so count >= 2 and
    // the holder splits: it keeps [base, base + j) and informs base + j.
    const std::uint64_t j = split(c.count);
    const Rank child = c.base + j;
    if (rank >= child) {
      // Descend into the recipient's range [base + j, base + count).
      c.parent = c.base;
      c.parent_send = now;
      c.base = child;
      c.count -= j;
      c.inform = add_ticks(now, lambda_ticks_);
      now = c.inform;
      ++c.depth;
    } else {
      // Stay with the holder, whose range shrinks to [base, base + j) and
      // whose next send starts one unit later.
      c.count = j;
      now = add_ticks(now, q_);
    }
  }
  return c;
}

Rational ScheduleOracle::inform_time(Rank rank) const {
  return tick_time(locate(rank).inform);
}

Rank ScheduleOracle::parent(Rank rank) const { return locate(rank).parent; }

RankInfo ScheduleOracle::info(Rank rank) const {
  const Cursor c = locate(rank);
  RankInfo out;
  out.rank = rank;
  out.parent = c.parent;
  out.inform_time = tick_time(c.inform);
  out.parent_send = tick_time(c.parent_send);
  out.subtree = c.count;
  out.depth = c.depth;
  // The out-degree is the length of the split chain count > j(count) >
  // j(j(count)) > ... > 1: one send per link.
  std::uint64_t remaining = c.count;
  while (remaining >= 2) {
    remaining = split(remaining);
    ++out.out_degree;
  }
  return out;
}

std::uint64_t ScheduleOracle::out_degree(Rank rank) const {
  return info(rank).out_degree;
}

Rational ScheduleOracle::send_slot(Rank rank, std::uint64_t slot) const {
  const RankInfo i = info(rank);
  POSTAL_REQUIRE(slot < i.out_degree,
                 "ScheduleOracle::send_slot: slot beyond the rank's out-degree");
  return tick_time(
      add_ticks(locate(rank).inform, static_cast<Tick>(slot) * q_));
}

std::optional<Rank> ScheduleOracle::child_at(Rank rank,
                                             std::uint64_t slot) const {
  const Cursor c = locate(rank);
  std::uint64_t remaining = c.count;
  for (std::uint64_t k = 0; remaining >= 2; ++k) {
    const std::uint64_t j = split(remaining);
    if (k == slot) return c.base + j;
    remaining = j;
  }
  return std::nullopt;
}

Rank ScheduleOracle::last_informed_rank() const {
  if (n_ == 1) return 0;
  Rank base = 0;
  std::uint64_t count = n_;
  Tick inform = 0;
  Tick now = 0;
  while (count >= 2) {
    const std::uint64_t j = split(count);
    // Completion of each branch if descended into: the holder's remaining
    // sub-broadcast on j ranks first sends at now + 1; the recipient's on
    // count - j ranks first sends at its inform time now + lambda. A
    // size-1 branch completes at its member's inform time.
    const Tick holder_done =
        j >= 2 ? add_ticks(add_ticks(now, q_), f_ticks(j)) : inform;
    const Tick recipient_done =
        add_ticks(add_ticks(now, lambda_ticks_), f_ticks(count - j));
    if (recipient_done >= holder_done) {
      base += j;
      count -= j;
      inform = add_ticks(now, lambda_ticks_);
      now = inform;
    } else {
      count = j;
      now = add_ticks(now, q_);
    }
  }
  // Theorem 6: the deepest completion is exactly f_lambda(n).
  POSTAL_CHECK(inform == makespan_ticks_);
  return base;
}

ScheduleOracle::ChildRange ScheduleOracle::children(Rank rank) const {
  const Cursor c = locate(rank);
  return ChildRange(this, c.base, c.count, c.inform);
}

Child ScheduleOracle::ChildRange::iterator::operator*() const {
  POSTAL_CHECK(oracle_ != nullptr && remaining_ >= 2);
  const std::uint64_t j = oracle_->split(remaining_);
  Child out;
  out.rank = base_ + j;
  out.send_time = oracle_->tick_time(now_);
  out.subtree = remaining_ - j;
  return out;
}

ScheduleOracle::ChildRange::iterator&
ScheduleOracle::ChildRange::iterator::operator++() {
  POSTAL_CHECK(oracle_ != nullptr && remaining_ >= 2);
  remaining_ = oracle_->split(remaining_);
  now_ = add_ticks(now_, oracle_->q_);
  return *this;
}

std::vector<StreamEvent> ScheduleOracle::events(Rank lo, Rank hi) const {
  POSTAL_REQUIRE(lo <= hi && hi <= n_,
                 "ScheduleOracle::events: need lo <= hi <= n");
  std::vector<StreamEvent> out;
  const Rank first = lo < 1 ? 1 : lo;
  if (first >= hi) return out;
  out.reserve(static_cast<std::size_t>(hi - first));
  for (Rank r = first; r < hi; ++r) {
    const Cursor c = locate(r);
    out.push_back(StreamEvent{c.parent, r, tick_time(c.parent_send)});
  }
  return out;
}

}  // namespace postal::oracle
