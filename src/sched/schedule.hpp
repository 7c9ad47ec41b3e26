// Schedule intermediate representation.
//
// Every broadcasting algorithm in this library is represented as a
// *schedule*: the set of atomic send events it performs. A schedule is the
// common currency between the algorithm generators (src/sched), the
// postal-model validator/simulator (src/sim), and the benches. The
// simulator, not the generator, is the authority on whether a schedule is
// legal in MPS(n, lambda) and on its makespan.
//
// A Schedule stores time the way the engines run it: one grid denominator
// q and, per send, a 24-byte TickSend whose tick counts multiples of 1/q
// (support/ticks.hpp). add(..., Rational) folds each time onto the grid;
// an off-grid time rescales every record onto lcm(q, q') exactly, and a
// grid or tick that cannot fit int64 raises OverflowError naming the entry
// point. Rational time is built only at the events() view, which yields
// SendEvent values, so every rendered time and string is the one a
// Rational schedule would produce. Hot consumers read records() and q().
#pragma once

#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <vector>

#include "model/params.hpp"
#include "support/rational.hpp"
#include "support/ticks.hpp"

namespace postal {

/// One atomic send: processor `src` starts transmitting message `msg` to
/// processor `dst` at time `t` (occupying src's output port on [t, t+1) and
/// dst's input port on [t+lambda-1, t+lambda)).
struct SendEvent {
  ProcId src = 0;
  ProcId dst = 0;
  MsgId msg = 0;
  Rational t;

  friend bool operator==(const SendEvent&, const SendEvent&) = default;
};

std::ostream& operator<<(std::ostream& os, const SendEvent& e);

/// One send as a Schedule stores it and an engine logs it: `src` starts
/// `msg` to `dst` at tick `tick` of a 1/q grid (time = tick / q).
struct TickSend {
  Tick tick = 0;
  ProcId src = 0;
  ProcId dst = 0;
  MsgId msg = 0;

  friend bool operator==(const TickSend&, const TickSend&) = default;
};
static_assert(sizeof(TickSend) == 24, "a send record is 24 bytes");

using TickLog = std::vector<TickSend>;

/// Read-only Rational view of a schedule's send records, in record order.
/// Elements are SendEvent values built on access; records() exposes the
/// stored ticks. Equality is value equality of the SendEvents, so
/// schedules on different grids compare equal when their times do.
class SendEventView {
 public:
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = SendEvent;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = SendEvent;

    const_iterator(const TickSend* at, std::int64_t q) : at_(at), q_(q) {}

    SendEvent operator*() const {
      return SendEvent{at_->src, at_->dst, at_->msg, Rational(at_->tick, q_)};
    }
    const_iterator& operator++() {
      ++at_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++at_;
      return before;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.at_ == b.at_;
    }

   private:
    const TickSend* at_;
    std::int64_t q_;
  };
  using iterator = const_iterator;
  using value_type = SendEvent;
  using size_type = std::size_t;

  SendEventView(const std::vector<TickSend>& records, std::int64_t q) noexcept
      : records_(&records), q_(q) {}

  [[nodiscard]] std::size_t size() const noexcept { return records_->size(); }
  [[nodiscard]] bool empty() const noexcept { return records_->empty(); }
  [[nodiscard]] SendEvent operator[](std::size_t i) const {
    return *const_iterator(records_->data() + i, q_);
  }
  [[nodiscard]] SendEvent front() const { return (*this)[0]; }
  [[nodiscard]] SendEvent back() const { return (*this)[size() - 1]; }
  [[nodiscard]] const_iterator begin() const noexcept { return {records_->data(), q_}; }
  [[nodiscard]] const_iterator end() const noexcept {
    return {records_->data() + records_->size(), q_};
  }

  /// The stored records; times in ticks of the grid q().
  [[nodiscard]] const std::vector<TickSend>& records() const noexcept {
    return *records_;
  }
  [[nodiscard]] std::int64_t q() const noexcept { return q_; }

  /// The events as a vector, for callers that edit or reorder a copy.
  operator std::vector<SendEvent>() const;  // NOLINT(google-explicit-constructor)

  /// Same sends with the same Rational times, in the same order. Equal
  /// grids compare the records directly.
  friend bool operator==(const SendEventView& a, const SendEventView& b);
  friend bool operator==(const SendEventView& a, const std::vector<SendEvent>& b);

 private:
  const std::vector<TickSend>* records_;
  std::int64_t q_;
};

/// An ordered collection of send events plus bookkeeping helpers.
class Schedule {
 public:
  Schedule() = default;

  /// Append one send event, folding its time onto the grid (an off-grid
  /// time rescales every record first).
  void add(ProcId src, ProcId dst, MsgId msg, const Rational& t);
  void add(const SendEvent& event);

  /// Append one send at tick `tick` of the grid 1/q(), for emitters that
  /// already run on the grid (refine() first).
  void add_tick(ProcId src, ProcId dst, MsgId msg, Tick tick) {
    POSTAL_REQUIRE(src != dst, "Schedule: a processor cannot send to itself");
    POSTAL_REQUIRE(tick >= 0, "Schedule: send times must be >= 0");
    records_.push_back(TickSend{tick, src, dst, msg});
  }

  /// Move every record onto the grid lcm(q(), q) and return the ticks of
  /// the new grid per tick of 1/q. OverflowError names `site` when the
  /// grid or a rescaled tick does not fit int64.
  Tick refine(std::int64_t q, const char* site);

  /// Make room for `sends` records.
  void reserve(std::size_t sends) { records_.reserve(sends); }

  /// Append every event of `other`, shifted forward by `dt` and with
  /// message ids offset by `msg_offset`. Used by REPEAT's iteration overlap.
  void append_shifted(const Schedule& other, const Rational& dt, MsgId msg_offset);

  /// Order events by (t, src, dst, msg). The key is the whole event, so
  /// the result is unique: equal keys are equal events.
  void sort();

  /// The schedule of an engine run, in (t, src, dst, msg) order, sized
  /// exactly and on the run's grid q: `log` holds its sends on the 1/q
  /// grid, every src < n. One port sends once per unit, so (tick, src)
  /// identifies a send; a repeated pair is a logic error, and a self-send
  /// an InvalidArgument, as in add(). One RankBlockAssembly segment, run
  /// serially; the log's storage holds the ordered blocks.
  /// With `sends_per_src` (n zeroed counts), also counts each src's sends
  /// into it.
  [[nodiscard]] static Schedule from_tick_log(TickLog log, std::int64_t q,
                                              std::uint64_t n,
                                              std::uint64_t* sends_per_src = nullptr);

  /// The sends as SendEvent values, in schedule order.
  [[nodiscard]] SendEventView events() const noexcept { return {records_, q_}; }
  /// The stored sends; times in ticks of the grid 1/q().
  [[nodiscard]] const std::vector<TickSend>& records() const noexcept { return records_; }
  [[nodiscard]] std::int64_t q() const noexcept { return q_; }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }

  /// Latest send start, or 0 for an empty schedule.
  [[nodiscard]] Rational last_send_start() const;

  /// Latest arrival time (last send start + lambda), or 0 if empty. This is
  /// the running time T of the algorithm *if* the schedule's last event is
  /// on the critical path; the simulator computes the authoritative value.
  [[nodiscard]] Rational makespan(const Rational& lambda) const;

  /// Number of sends performed by each processor (index = ProcId), sized n.
  [[nodiscard]] std::vector<std::uint64_t> sends_per_proc(std::uint64_t n) const;

  /// Number of distinct message ids referenced (max id + 1), 0 if empty.
  [[nodiscard]] std::uint32_t message_count() const;

 private:
  friend class RankBlockAssembly;

  std::vector<TickSend> records_;
  std::int64_t q_ = 1;
};

std::ostream& operator<<(std::ostream& os, const Schedule& s);

/// Ranks per block of a RankBlockAssembly: a block's src count array
/// (128 KB) and its sends (~768 KB at one send per rank) stay in a core's
/// cache while the block is ordered.
inline constexpr std::uint64_t kAssemblyBlockRanks = std::uint64_t{1} << 15;

/// Builds one Schedule from engine sends grouped in contiguous source-rank
/// segments, in (tick, src) order -- which is (t, src, dst, msg) order,
/// since a port sends once per tick -- with no global sort
/// (docs/PERFORMANCE.md). Each segment is cut into kAssemblyBlockRanks-
/// aligned rank blocks. Three phases, each over every segment:
///
///   order(s)   lane-safe: checks segment s's sends, groups them by block
///              and orders each block by src with a block-sized count
///              array, in the segment's own storage, counting each block's
///              ticks on the way;
///   place()    serial: one prefix sum over (tick, block) turns the counts
///              into each (tick, block) run's first slot;
///   scatter(s) lane-safe: writes segment s straight into those slots.
///
/// order() and scatter() of distinct segments touch disjoint memory, so
/// callers may run them on separate lanes (ParMachine does, one shard a
/// segment; Schedule::from_tick_log runs one segment serially). A segment
/// whose (tick, block) table would pass counting_span_cap(size) is ordered
/// as one block; an input the counting path cannot afford at all -- more
/// ranks than that cap, or a tick span past it -- is concatenated and
/// comparison-sorted instead.
class RankBlockAssembly {
 public:
  /// Sends whose src lies in [lo, hi), in any order. order() reorders them.
  struct Segment {
    TickSend* sends = nullptr;
    std::size_t size = 0;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
  };

  /// `segments` must hold ascending, disjoint rank ranges within [0, n).
  /// With `sends_per_src` (n zeroed counts), order(s) also writes each src
  /// of segment s its send count, from the block passes' bucket ends, so
  /// distinct segments' counts stay lane-safe.
  RankBlockAssembly(std::vector<Segment> segments, std::int64_t q, std::uint64_t n,
                    std::uint64_t* sends_per_src = nullptr);

  [[nodiscard]] std::size_t segments() const noexcept { return segments_.size(); }

  void order(std::size_t s);
  void place();
  void scatter(std::size_t s);

  /// The schedule, after every scatter(). Leaves the assembly empty.
  [[nodiscard]] Schedule take();

 private:
  /// How order() cut one segment, and its (tick, block) counts.
  struct Plan {
    std::uint64_t origin = 0;  ///< first rank of block 0's range
    unsigned shift = 0;        ///< src's block is (src - origin) >> shift
    std::size_t blocks = 0;
    Tick tick_lo = 0;
    std::size_t span = 0;      ///< ticks counted from tick_lo (0: none)
    bool too_wide = false;     ///< the segment's ticks could not be counted
    /// [block * span + tick - tick_lo]; write cursors after place().
    std::vector<std::uint32_t> counts;
  };

  /// Count segment seg's sends per src one by one, for the paths that
  /// order no blocks.
  void count_sends(const Segment& seg);

  std::vector<Segment> segments_;
  std::vector<std::size_t> base_;  ///< first output slot of each segment
  std::vector<Plan> plans_;
  bool compare_ = false;           ///< take the comparison path
  std::uint64_t cap_ = 0;          ///< counting_span_cap(total size)
  std::uint64_t* sends_per_src_ = nullptr;
  Schedule out_;
};

}  // namespace postal
