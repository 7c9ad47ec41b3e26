// The implicit schedule oracle: Algorithm BCAST's answers without the
// schedule (docs/ORACLE.md).
//
// Every generator in src/sched materializes its schedule as an event list,
// which caps the largest system the repo can reason about at whatever fits
// in memory (~10^7 processors). But the paper's closed forms define the
// optimal broadcast tree *implicitly*: with j = F_lambda(f_lambda(n) - 1)
// (Theorem 6), the holder of a contiguous rank range [base, base + count)
// keeps [base, base + j) and hands [base + j, base + count) to the
// processor it informs next. A rank's parent, inform time, and send slots
// are therefore computable by *descending* that split recursion from
// (0, n) -- O(f_lambda(n)) arithmetic steps and O(1) memory per query,
// with no event list anywhere. This is the same per-rank closed-form shape
// collective libraries in the LogP tradition use to serve huge
// communicators without global coordination.
//
// Exactness discipline: the descent carries times as int64 grid ticks
// (multiples of 1/q, support/ticks) with overflow-checked adds -- an
// inform time's tick index is bounded by f_lambda(n) * q, the size of
// GenFib's own memo table, so the checks cannot fire for any constructible
// lambda -- and converts to exact Rational only at the API boundary.
// Split values come from one flat array: at construction the oracle takes
// the immutable F_lambda grid table covering f_lambda(n) from the
// process-wide (or caller-owned) par::GenFibCache -- its only cache
// access -- and every later split j(m) = F[f_index(m) - q] is a lookup in
// that table's bit-width buckets (model/genfib.hpp's FIndexBuckets) plus
// an index, with no lock and no hashing.
//
// One descent serves every query. Point queries run it without memory;
// the rank walk (Walk) runs it once and keeps the children the descent
// stepped past -- exactly the ranks an ascending walk still has to visit
// -- on a stack, so it then moves from rank r to r + 1 in amortized O(1):
// each holder's split chain is expanded once and its children popped in
// ascending rank order. events() and the streaming validator walk ranks
// this way.
//
// The oracle is certified two ways (tests/oracle/): a differential gate
// proves it reproduces the materialized sched::bcast schedule
// event-for-event on every (n, lambda) the old path can hold, and the
// streaming validator (sim/stream_validator.hpp) re-checks oracle-emitted
// event chunks against the postal-model clauses at any n.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "par/genfib_cache.hpp"
#include "sim/stream_validator.hpp"
#include "support/rational.hpp"
#include "support/ticks.hpp"

namespace postal::oracle {

/// A processor rank in [0, n). 64-bit on purpose: the oracle serves
/// systems far larger than the ProcId-indexed materialized path.
using Rank = std::uint64_t;

/// Everything one descent learns about a rank.
struct RankInfo {
  Rank rank = 0;
  Rank parent = 0;            ///< the rank that informs it; == rank for p0
  Rational inform_time;       ///< arrival of its single receive; 0 for p0
  Rational parent_send;       ///< start of the send informing it; 0 for p0
  std::uint64_t subtree = 1;  ///< processors in its BCAST range (incl. itself)
  std::uint64_t depth = 0;    ///< receive hops from the origin
  std::uint64_t out_degree = 0;  ///< sends it performs
};

/// One child edge yielded by the lazy children generator.
struct Child {
  Rank rank = 0;              ///< the recipient
  Rational send_time;         ///< when the parent starts this send
  std::uint64_t subtree = 1;  ///< processors handed to the recipient
};

/// Per-rank queries against the optimal broadcast schedule of
/// MPS(n, lambda), without materializing it.
///
/// Thread-safe: all state is immutable after construction. The constructor
/// makes the oracle's one GenFibCache access (which synchronizes
/// internally) and keeps a shared reference to lambda's F table; queries
/// only read that table and take no lock. The cache publishes tables
/// copy-on-grow, so an oracle constructed later with a larger n -- on any
/// thread -- gets a new, longer table and never changes the one an
/// earlier oracle is reading. Copies share the table.
class ScheduleOracle final : public RankScheduleSource {
 public:
  /// Throws InvalidArgument unless n >= 1 and lambda >= 1 (and n is
  /// below GenFib's saturation cap). `cache` = nullptr uses
  /// par::GenFibCache::global(); the oracle does not keep the pointer.
  ScheduleOracle(std::uint64_t n, Rational lambda,
                 par::GenFibCache* cache = nullptr);

  [[nodiscard]] std::uint64_t n() const noexcept override { return n_; }
  [[nodiscard]] Rational lambda() const override { return lambda_; }

  /// The exact completion time f_lambda(n) (0 for n == 1).
  [[nodiscard]] Rational makespan() const;

  /// When `rank` is fully informed (0 for the origin).
  [[nodiscard]] Rational inform_time(Rank rank) const;

  /// The rank that informs `rank`. The origin is its own parent by
  /// convention (use depth == 0 to distinguish it).
  [[nodiscard]] Rank parent(Rank rank) const;

  /// Parent, inform time, subtree size, depth, and out-degree in one
  /// descent.
  [[nodiscard]] RankInfo info(Rank rank) const;

  /// Number of sends `rank` performs.
  [[nodiscard]] std::uint64_t out_degree(Rank rank) const;

  /// Start time of `rank`'s send number `slot` (its sends start at
  /// inform_time, inform_time + 1, ...). Throws InvalidArgument unless
  /// slot < out_degree(rank).
  [[nodiscard]] Rational send_slot(Rank rank, std::uint64_t slot) const;

  /// The rank addressed by `rank`'s send in `slot`, or nullopt past its
  /// out-degree.
  [[nodiscard]] std::optional<Rank> child_at(Rank rank,
                                             std::uint64_t slot) const;

  /// A rank whose inform time equals the makespan -- the witness that the
  /// implicit schedule attains f_lambda(n) exactly, found by descending
  /// into whichever branch of the split recursion completes last. Returns
  /// 0 for n == 1; throws LogicError if the witness's inform time ever
  /// disagreed with f_lambda(n) (that would disprove Theorem 6).
  [[nodiscard]] Rank last_informed_rank() const;

  /// Bounded lazy generator over `rank`'s children in send order. The
  /// range is input-iterable, O(1) memory, and at most
  /// out_degree(rank) <= f_lambda(n)/1 items long.
  class ChildRange;
  [[nodiscard]] ChildRange children(Rank rank) const;

  /// The receive events of ranks [max(lo, 1), hi), one per rank in rank
  /// order -- the chunk shape StreamingValidator certifies. Emitted by one
  /// Walk: one descent, then amortized O(1) per rank. O(hi - lo) memory
  /// for the result; throws InvalidArgument unless lo <= hi <= n.
  [[nodiscard]] std::vector<StreamEvent> events(Rank lo, Rank hi) const;

  /// A walk over the receives of ranks 1 .. n-1 in rank order, on the tick
  /// grid of lambda's denominator. Its state is one descent's pending
  /// children: O(f_lambda(n)) frames, whatever the number of ranks walked.
  /// The oracle must outlive it.
  class Walk;

  // RankScheduleSource (the streaming validator's closed-form source).
  [[nodiscard]] Rational rank_inform_time(std::uint64_t rank) const override {
    return inform_time(rank);
  }
  [[nodiscard]] std::optional<std::uint64_t> rank_child_at(
      std::uint64_t rank, std::uint64_t slot) const override {
    return child_at(rank, slot);
  }
  [[nodiscard]] Rational schedule_makespan() const override {
    return makespan();
  }
  /// A Walk over this oracle.
  [[nodiscard]] std::unique_ptr<RankCursor> rank_cursor() const override;

 private:
  /// A rank at the moment it became the holder of its range.
  struct Holder {
    RankFrame frame;          ///< its receive; the origin's is all zero
    std::uint64_t count = 1;  ///< size of the range it holds
    std::uint64_t depth = 0;  ///< receive hops from the origin
  };

  /// The descent from (0, n) to `rank`. Each child the descent steps past
  /// -- one whose rank exceeds `rank` -- goes to `defer`, in decreasing
  /// rank order. locate() defers nothing; Walk::seek keeps them.
  template <class Defer>
  [[nodiscard]] Holder descend(Rank rank, Defer&& defer) const;
  [[nodiscard]] Holder locate(Rank rank) const;
  /// The rank `h` informs by its send in `slot`, starting at `now`, while
  /// it holds h.count >= 2 ranks; h.count shrinks to the part it keeps.
  [[nodiscard]] Holder hand_off(Holder& h, std::uint64_t slot, Tick now) const;
  /// f_lambda(count) as grid ticks, for 1 <= count <= n: the first index
  /// whose F value reaches count (0 for count == 1).
  [[nodiscard]] Tick f_ticks(std::uint64_t count) const {
    return table_->f_index(count);
  }
  /// The BCAST split j = F_lambda(f_lambda(count) - 1) for 2 <= count <= n.
  [[nodiscard]] std::uint64_t split(std::uint64_t count) const {
    return F_[static_cast<std::size_t>(f_ticks(count) - q_)];
  }
  [[nodiscard]] Rational tick_time(Tick t) const { return Rational(t, q_); }

  std::uint64_t n_;
  Rational lambda_;
  std::int64_t q_;     ///< grid resolution: times are multiples of 1/q
  Tick lambda_ticks_;  ///< lambda as grid ticks (= its numerator)
  std::shared_ptr<const par::GenFibCache::FTable> table_;  ///< shared, immutable
  const std::uint64_t* F_ = nullptr;  ///< table_->data(): F_[k] = F_lambda(k/q)
  Tick makespan_ticks_ = 0;           ///< f_lambda(n) in ticks: first k, F_[k] >= n

  friend class ChildRange;
  friend class Walk;
};

/// See ScheduleOracle::rank_cursor. seek() is one descent; next() expands
/// the current rank's split chain (its children, pushed in send order, so
/// the smallest rank is on top) and pops the top. Every rank is pushed and
/// popped once, so a walk over k consecutive ranks costs one descent plus
/// O(k) splits.
class ScheduleOracle::Walk final : public RankCursor {
 public:
  explicit Walk(const ScheduleOracle& oracle) : oracle_(oracle) {}

  const RankFrame& seek(std::uint64_t rank) override;
  const RankFrame& next() override;

 private:
  const ScheduleOracle& oracle_;
  Holder current_;
  std::vector<Holder> pending_;  ///< ranks still to visit; top = smallest
};

/// Input range over a rank's children; see ScheduleOracle::children.
class ScheduleOracle::ChildRange {
 public:
  class iterator {
   public:
    using value_type = Child;
    using difference_type = std::ptrdiff_t;

    iterator() = default;

    [[nodiscard]] Child operator*() const;
    iterator& operator++();
    void operator++(int) { ++*this; }

    friend bool operator==(const iterator& a, const iterator& b) {
      const bool a_end = a.oracle_ == nullptr || a.remaining_ < 2;
      const bool b_end = b.oracle_ == nullptr || b.remaining_ < 2;
      if (a_end || b_end) return a_end == b_end;
      return a.base_ == b.base_ && a.remaining_ == b.remaining_ &&
             a.now_ == b.now_;
    }

   private:
    friend class ChildRange;
    iterator(const ScheduleOracle* oracle, Rank base, std::uint64_t remaining,
             Tick now)
        : oracle_(oracle), base_(base), remaining_(remaining), now_(now) {}

    const ScheduleOracle* oracle_ = nullptr;
    Rank base_ = 0;
    std::uint64_t remaining_ = 1;  ///< < 2 means exhausted
    Tick now_ = 0;                 ///< start time of the current send
  };

  [[nodiscard]] iterator begin() const {
    return iterator(oracle_, base_, count_, start_);
  }
  [[nodiscard]] iterator end() const { return iterator(); }

 private:
  friend class ScheduleOracle;
  ChildRange(const ScheduleOracle* oracle, Rank base, std::uint64_t count,
             Tick start)
      : oracle_(oracle), base_(base), count_(count), start_(start) {}

  const ScheduleOracle* oracle_;
  Rank base_;
  std::uint64_t count_;
  Tick start_;
};

}  // namespace postal::oracle
