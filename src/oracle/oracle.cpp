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
  // geometrically); f_lambda(n) is the last index any count <= n needs.
  makespan_ticks_ = table_->f_index(n_);
}

Rational ScheduleOracle::makespan() const { return tick_time(makespan_ticks_); }

ScheduleOracle::Holder ScheduleOracle::hand_off(Holder& h, std::uint64_t slot,
                                                Tick now) const {
  // The holder keeps [base, base + j) and informs base + j, handing it
  // [base + j, base + count); the send arrives lambda after it starts.
  const std::uint64_t j = split(h.count);
  Holder child;
  child.frame = RankFrame{h.frame.rank + j, h.frame.rank,   slot,
                          h.frame.inform,   now, add_ticks(now, lambda_ticks_)};
  child.count = h.count - j;
  child.depth = h.depth + 1;
  h.count = j;
  return child;
}

template <class Defer>
ScheduleOracle::Holder ScheduleOracle::descend(Rank rank, Defer&& defer) const {
  POSTAL_REQUIRE(rank < n_, "ScheduleOracle: rank out of range");
  Holder h;
  h.count = n_;
  std::uint64_t slot = 0;  // the holder's next send slot ...
  Tick now = 0;            // ... and its start
  while (h.frame.rank != rank) {
    // rank lies strictly inside [base, base + count), so count >= 2 and
    // the holder splits.
    const Holder child = hand_off(h, slot, now);
    if (rank >= child.frame.rank) {
      // Descend into the recipient's range.
      h = child;
      slot = 0;
      now = h.frame.inform;
    } else {
      // Stay with the holder, whose next send starts one unit later; the
      // recipient's range lies wholly above rank.
      defer(child);
      ++slot;
      now = add_ticks(now, q_);
    }
  }
  return h;
}

ScheduleOracle::Holder ScheduleOracle::locate(Rank rank) const {
  return descend(rank, [](const Holder&) {});
}

Rational ScheduleOracle::inform_time(Rank rank) const {
  return tick_time(locate(rank).frame.inform);
}

Rank ScheduleOracle::parent(Rank rank) const { return locate(rank).frame.parent; }

RankInfo ScheduleOracle::info(Rank rank) const {
  const Holder c = locate(rank);
  RankInfo out;
  out.rank = rank;
  out.parent = c.frame.parent;
  out.inform_time = tick_time(c.frame.inform);
  out.parent_send = tick_time(c.frame.send);
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
      add_ticks(locate(rank).frame.inform, static_cast<Tick>(slot) * q_));
}

std::optional<Rank> ScheduleOracle::child_at(Rank rank,
                                             std::uint64_t slot) const {
  const Holder c = locate(rank);
  std::uint64_t remaining = c.count;
  for (std::uint64_t k = 0; remaining >= 2; ++k) {
    const std::uint64_t j = split(remaining);
    if (k == slot) return rank + j;
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
  const Holder c = locate(rank);
  return ChildRange(this, rank, c.count, c.frame.inform);
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
  Walk walk(*this);
  for (const RankFrame* f = &walk.seek(first);; f = &walk.next()) {
    out.push_back(StreamEvent{f->parent, f->rank, tick_time(f->send)});
    if (f->rank + 1 == hi) break;
  }
  return out;
}

std::unique_ptr<RankCursor> ScheduleOracle::rank_cursor() const {
  return std::make_unique<Walk>(*this);
}

const RankFrame& ScheduleOracle::Walk::seek(std::uint64_t rank) {
  pending_.clear();
  current_ = oracle_.descend(rank,
                             [this](const Holder& child) { pending_.push_back(child); });
  return current_.frame;
}

const RankFrame& ScheduleOracle::Walk::next() {
  // The current rank's children in send order; the last one, rank + 1
  // when it has any, ends up on top.
  Tick now = current_.frame.inform;
  for (std::uint64_t slot = 0; current_.count >= 2; ++slot) {
    pending_.push_back(oracle_.hand_off(current_, slot, now));
    now = add_ticks(now, oracle_.q_);
  }
  POSTAL_REQUIRE(!pending_.empty(), "ScheduleOracle::Walk: next() past rank n - 1");
  current_ = pending_.back();
  pending_.pop_back();
  return current_.frame;
}

}  // namespace postal::oracle
