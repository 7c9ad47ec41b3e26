// Streaming schedule validation: certify an event stream chunk-by-chunk
// in O(chunk) memory (docs/ORACLE.md).
//
// The materialized validator (sim/validator.hpp) holds every event, every
// delivery, and per-processor port state at once -- the right authority
// for schedules that fit in memory, and the wrong shape for the implicit
// oracle (src/oracle), whose schedules for n up to 10^12 never exist as a
// list. The streaming validator closes that gap for *single-message
// broadcast-tree* streams: events arrive ordered by receiver rank (each
// rank other than the origin receives exactly once, so receiver order is
// a total order), and every postal-model clause is checked per event with
// O(1) retained state:
//
//  * coverage            -- receivers must arrive as the contiguous run
//                           [first, last); a gap or duplicate is flagged
//                           immediately and the run's end is checked at
//                           finish();
//  * causality           -- a sender must be informed no later than the
//                           send start; the sender's inform time comes
//                           from the RankScheduleSource closed form, not
//                           from a table of past events;
//  * send-port exclusivity -- every send of a rank starts a whole number
//                           of time units after its inform time (the slot)
//                           and each (sender, slot) pair is hit at most
//                           once because the addressed child is unique per
//                           slot, so the [t, t+1) windows are disjoint;
//  * receive-port exclusivity -- each rank receives exactly once (coverage
//                           ordering), so the [t+lambda-1, t+lambda)
//                           windows are trivially disjoint;
//  * completion          -- no arrival may exceed the certified makespan,
//                           and a full-range stream must attain it.
//
// Retained state: the source's rank cursor (RankCursor), whose stack is
// bounded by one root-to-rank descent -- O(f_lambda(n)) frames -- and not
// by the range length, plus O(1) counters and the capped violation list.
// Events in receiver order are checked against the cursor's frame for the
// expected rank with integer compares on the tick grid (support/ticks);
// an event that disagrees with its frame -- or any event when the source
// has no cursor -- is re-checked through the per-rank queries below,
// which produce every violation string.
//
// What this buys and what it assumes: the per-rank closed forms
// (RankScheduleSource, implemented by oracle::ScheduleOracle) are
// *cross-checked* against the stream, so a corrupted event -- wrong time,
// wrong sender, wrong receiver, duplicate, gap -- is caught; the closed
// forms themselves are certified by the differential gate against the
// materialized validator on every size the old path can hold
// (tests/oracle/oracle_differential_test.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "support/rational.hpp"
#include "support/ticks.hpp"

namespace postal {

/// One send event in a rank stream: `src` starts sending to `dst` at `t`.
/// Ranks are 64-bit on purpose: streams describe systems far larger than
/// the ProcId-indexed Schedule can materialize.
struct StreamEvent {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  Rational t;

  friend bool operator==(const StreamEvent&, const StreamEvent&) = default;
};

/// One rank's receive in a broadcast tree, on the tick grid of lambda's
/// denominator q (support/ticks).
struct RankFrame {
  std::uint64_t rank = 0;    ///< the receiver
  std::uint64_t parent = 0;  ///< the rank whose send informs it
  std::uint64_t slot = 0;    ///< that send's unit slot at the parent
  Tick parent_inform = 0;    ///< when the parent was informed
  Tick send = 0;             ///< the send's start: parent_inform + slot * q
  Tick inform = 0;           ///< its arrival: send + lambda
};

/// A walk over a broadcast tree's receives in increasing rank order.
class RankCursor {
 public:
  virtual ~RankCursor() = default;

  /// Move to `rank` (1 <= rank < n) and return its frame. The reference
  /// stays valid until the next seek() or next().
  virtual const RankFrame& seek(std::uint64_t rank) = 0;

  /// Move to the rank after the current one (which must be below n - 1)
  /// and return its frame.
  virtual const RankFrame& next() = 0;
};

/// The per-rank closed-form answers a streaming validation certifies the
/// event stream against. Implemented by oracle::ScheduleOracle; the
/// interface lives here so postal_sim does not depend on postal_oracle.
class RankScheduleSource {
 public:
  virtual ~RankScheduleSource() = default;

  /// Number of processors in the system.
  [[nodiscard]] virtual std::uint64_t n() const = 0;

  /// The latency parameter lambda.
  [[nodiscard]] virtual Rational lambda() const = 0;

  /// When `rank` is fully informed: the arrival time of its single
  /// receive, 0 for the origin.
  [[nodiscard]] virtual Rational rank_inform_time(std::uint64_t rank) const = 0;

  /// The rank addressed by `rank`'s send in unit slot `slot` (the send
  /// starting at inform time + slot), or nullopt when `rank` performs
  /// fewer than slot+1 sends.
  [[nodiscard]] virtual std::optional<std::uint64_t> rank_child_at(
      std::uint64_t rank, std::uint64_t slot) const = 0;

  /// The certified completion time of the whole schedule.
  [[nodiscard]] virtual Rational schedule_makespan() const = 0;

  /// A cursor over the same answers in rank order, or nullptr when the
  /// source has none; the validator then checks every event through the
  /// per-rank queries above. A source with a cursor keeps its makespan on
  /// the tick grid of lambda's denominator.
  [[nodiscard]] virtual std::unique_ptr<RankCursor> rank_cursor() const {
    return nullptr;
  }
};

/// Result of a streaming validation.
struct StreamReport {
  bool ok = false;                      ///< no violations, run complete
  std::vector<std::string> violations;  ///< capped; see truncated flag
  bool truncated = false;               ///< violations beyond the cap dropped
  std::uint64_t events_checked = 0;     ///< events accepted and verified
  Rational last_arrival;                ///< latest arrival seen (0 if none)

  /// Joined violation text for test failure messages.
  [[nodiscard]] std::string summary() const;
};

/// Chunk-by-chunk certifier for a receiver-ordered event stream.
///
/// Feed any number of chunks (possibly empty, any chunk sizes) whose
/// concatenation lists, in increasing receiver order, the receive event of
/// every rank in [first, last); then call finish() exactly once. Memory is
/// the source cursor's stack -- O(f_lambda(n)), independent of the range
/// length -- plus the violation list, which is capped at kMaxViolations.
class StreamingValidator {
 public:
  /// Certify the receiver range [max(first, 1), last). Throws
  /// InvalidArgument unless first <= last <= source.n(). The full-schedule
  /// certificate (completion == makespan) is only asserted when the range
  /// covers every non-origin rank.
  StreamingValidator(const RankScheduleSource& source, std::uint64_t first,
                     std::uint64_t last);

  /// Certify the whole schedule: receiver range [1, n).
  explicit StreamingValidator(const RankScheduleSource& source);

  /// At most this many violation strings are retained (the report's
  /// truncated flag records that more occurred).
  static constexpr std::size_t kMaxViolations = 64;

  /// Verify one chunk of consecutive events. Throws LogicError if called
  /// after finish().
  void feed(const StreamEvent* events, std::size_t count);
  void feed(const std::vector<StreamEvent>& chunk);

  /// Close the stream: check the run reached `last` and, for a full-range
  /// stream, that the latest arrival equals the certified makespan.
  /// Idempotent-hostile on purpose: throws LogicError on a second call.
  [[nodiscard]] StreamReport finish();

 private:
  void violation(std::string text);
  /// Accept `e` if it is the receive the cursor holds for next_; false
  /// leaves every check to check().
  [[nodiscard]] bool accept_from_cursor(const StreamEvent& e);
  /// Check `e` through the source's per-rank queries, recording each
  /// violation it commits.
  void check(const StreamEvent& e);

  const RankScheduleSource& source_;
  std::uint64_t next_;        ///< next receiver rank expected
  std::uint64_t last_;        ///< one past the final receiver certified
  bool full_range_;           ///< stream covers every non-origin rank
  bool finished_ = false;
  Rational lambda_;
  Rational makespan_;
  std::unique_ptr<RankCursor> cursor_;  ///< nullptr: check() every event
  const RankFrame* frame_ = nullptr;    ///< the cursor's frame, once it moved
  std::int64_t q_ = 1;                  ///< tick resolution: lambda's denominator
  Tick lambda_ticks_ = 0;
  Tick makespan_ticks_ = 0;
  Tick last_arrival_ticks_ = 0;  ///< latest arrival accepted from the cursor
  StreamReport report_;
};

}  // namespace postal
