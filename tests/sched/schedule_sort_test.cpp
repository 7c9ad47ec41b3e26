// Schedule::sort and Schedule::from_tick_log against the comparison sort
// they replace: a std::stable_sort on (t, src, dst, msg). Seeded inputs
// reach every branch -- the counting pass by tick, the per-tick bucket
// order (ascending kept, strictly descending reversed, anything else
// sorted), and the comparison sorts on ticks for small inputs and for
// spans past the counting cap (fine grids among them). A time the grid
// cannot hold in int64 raises OverflowError when it is added.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "model/genfib.hpp"
#include "sched/bcast.hpp"
#include "sched/schedule.hpp"
#include "support/counting_sort.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace postal {
namespace {

/// The order Schedule::sort promises, by the algorithm it replaced.
std::vector<SendEvent> reference_sorted(std::vector<SendEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const SendEvent& a, const SendEvent& b) {
                     return std::tie(a.t, a.src, a.dst, a.msg) <
                            std::tie(b.t, b.src, b.dst, b.msg);
                   });
  return events;
}

Schedule schedule_of(const std::vector<SendEvent>& events) {
  Schedule s;
  for (const SendEvent& e : events) s.add(e);
  return s;
}

/// Sort `events` through Schedule::sort and compare element for element.
void expect_sorts_like_reference(const std::vector<SendEvent>& events) {
  Schedule s = schedule_of(events);
  s.sort();
  const std::vector<SendEvent> expected = reference_sorted(events);
  ASSERT_EQ(s.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(s.events()[i], expected[i]) << "first difference at index " << i;
  }
}

/// `count` events at ticks [first_tick, first_tick + span) of a 1/q grid,
/// with src/dst drawn from [0, procs) and msg from [0, msgs).
std::vector<SendEvent> random_events(Xoshiro256& rng, std::size_t count, std::int64_t q,
                                     std::uint64_t first_tick, std::uint64_t span,
                                     std::uint32_t procs, std::uint32_t msgs) {
  std::vector<SendEvent> events;
  events.reserve(count);
  while (events.size() < count) {
    const ProcId src = static_cast<ProcId>(rng.uniform(0, procs - 1));
    const ProcId dst = static_cast<ProcId>(rng.uniform(0, procs - 1));
    if (src == dst) continue;
    const auto tick = static_cast<std::int64_t>(first_tick + rng.uniform(0, span - 1));
    events.push_back(SendEvent{src, dst, static_cast<MsgId>(rng.uniform(0, msgs - 1)),
                               Rational(tick, q)});
  }
  return events;
}

TEST(CountingPass, PlacesStablyAndReportsBucketEnds) {
  const std::vector<std::pair<std::size_t, int>> in{
      {2, 0}, {0, 1}, {2, 2}, {4, 3}, {0, 4}, {2, 5}};
  std::vector<std::pair<std::size_t, int>> out(in.size());
  std::vector<std::uint32_t> ends;
  counting_pass(
      6, ends,
      [&](const auto& f) {
        for (const auto& e : in) f(e);
      },
      [](const auto& e) { return e.first; },
      [&](std::uint32_t slot, const auto& e) { out[slot] = e; });
  const std::vector<std::pair<std::size_t, int>> expected{
      {0, 1}, {0, 4}, {2, 0}, {2, 2}, {2, 5}, {4, 3}};
  EXPECT_EQ(out, expected);
  EXPECT_EQ(ends, (std::vector<std::uint32_t>{2, 2, 5, 5, 6, 6}));
}

TEST(ScheduleSort, OnGridBoundedSpanMatchesStableSort) {
  Xoshiro256 rng(11);
  for (const std::int64_t q : {1, 2, 3, 1024}) {
    for (const std::size_t count : {100u, 1000u, 20000u}) {
      expect_sorts_like_reference(random_events(rng, count, q, 0, count / 4 + 1, 500, 3));
    }
  }
}

TEST(ScheduleSort, LargeFirstTickIsOffsetNotCounted) {
  // A bounded span far from zero: buckets start at the smallest tick.
  Xoshiro256 rng(12);
  expect_sorts_like_reference(
      random_events(rng, 5000, 7, std::uint64_t{1} << 40, 300, 100, 2));
}

TEST(ScheduleSort, ExactDuplicatesAndTickTies) {
  Xoshiro256 rng(13);
  // Few distinct keys: exact duplicates abound.
  expect_sorts_like_reference(random_events(rng, 4000, 2, 0, 3, 3, 2));
  // (t, src) ties that differ only in dst or only in msg.
  std::vector<SendEvent> ties;
  for (std::uint32_t i = 0; i < 300; ++i) {
    const Rational t(static_cast<std::int64_t>(i % 5), 2);
    ties.push_back(SendEvent{7, 1 + i % 4, 3, t});
    ties.push_back(SendEvent{7, 2, i % 6, t});
    ties.push_back(SendEvent{7, 2, i % 6, t});
  }
  expect_sorts_like_reference(ties);
}

TEST(ScheduleSort, MixedDenominatorsFoldToOneGrid) {
  // Denominators 1, 2, 3, 4, 6 and 12 fold onto q = 12; canonical
  // Rationals mean each time appears with its reduced denominator.
  Xoshiro256 rng(14);
  std::vector<SendEvent> events;
  for (const std::int64_t q : {1, 2, 3, 4, 6, 12}) {
    const std::vector<SendEvent> part = random_events(rng, 400, q, 0, 60, 50, 2);
    events.insert(events.end(), part.begin(), part.end());
  }
  Xoshiro256 shuffle(15);
  std::shuffle(events.begin(), events.end(), shuffle);
  expect_sorts_like_reference(events);
}

TEST(ScheduleSort, DenominatorsBeyondTheGridCapFallBack) {
  // lcm(1009, 1013, 1019, 1021) ~ 10^12 is the schedule's grid: the tick
  // span is far past the counting cap, so the comparison sort on ticks
  // orders these, including values no coarser grid tells apart.
  Xoshiro256 rng(16);
  std::vector<SendEvent> events;
  for (const std::int64_t q : {1009, 1013, 1019, 1021}) {
    const std::vector<SendEvent> part = random_events(rng, 300, q, 0, 5000, 40, 2);
    events.insert(events.end(), part.begin(), part.end());
  }
  std::shuffle(events.begin(), events.end(), rng);
  expect_sorts_like_reference(events);
}

TEST(ScheduleSort, TickOverflowRaises) {
  // Integers near INT64_MAX next to thirds: on the grid q = 3 their tick
  // counts overflow int64, so the add raises, whichever comes first, and
  // leaves the schedule as it was.
  Xoshiro256 rng(17);
  const std::vector<SendEvent> thirds = random_events(rng, 200, 3, 0, 90, 20, 1);
  const std::int64_t big = std::numeric_limits<std::int64_t>::max() / 2;
  Schedule s = schedule_of(thirds);
  const Schedule before = s;
  try {
    s.add(0, 1, 0, Rational(big));
    ADD_FAILURE() << "an add past int64 ticks did not throw";
  } catch (const OverflowError& e) {
    EXPECT_NE(std::string(e.what()).find("Schedule::add"), std::string::npos) << e.what();
  }
  EXPECT_EQ(s.events(), before.events());
  EXPECT_EQ(s.q(), 3);

  Schedule bigs;
  for (std::uint32_t i = 0; i < 20; ++i) bigs.add(i, i + 1, 0, Rational(big - i % 3));
  const Schedule whole = bigs;
  POSTAL_EXPECT_THROW(bigs.add(thirds.front()), OverflowError);
  EXPECT_EQ(bigs.events(), whole.events());
  EXPECT_EQ(bigs.q(), 1);
}

TEST(ScheduleSort, SpanBeyondTheCountingCap) {
  Xoshiro256 rng(18);
  const std::size_t count = 500;
  const std::uint64_t span = counting_span_cap(count) + 1;
  std::vector<SendEvent> events = random_events(rng, count, 2, 0, span, 60, 2);
  // Pin both ends so the span really exceeds the cap.
  events.push_back(SendEvent{0, 1, 0, Rational(0)});
  events.push_back(SendEvent{1, 0, 0, Rational(static_cast<std::int64_t>(span), 2)});
  expect_sorts_like_reference(events);
  // Just inside the cap the counting pass runs.
  expect_sorts_like_reference(random_events(rng, count, 2, 0, counting_span_cap(count), 60, 2));
}

TEST(ScheduleSort, AscendingDescendingAndMixedBuckets) {
  // One tick per bucket shape: ascending (with equal neighbours), strictly
  // descending, non-strictly descending, and mixed; emitted tick-major in
  // a scrambled tick order.
  std::vector<std::vector<SendEvent>> buckets(4);
  for (std::uint32_t i = 0; i < 40; ++i) {
    buckets[0].push_back(SendEvent{i / 2, 1000 + i / 4, 0, Rational(3)});
    buckets[1].push_back(SendEvent{100 - i, 1000, i % 2, Rational(1)});
    buckets[2].push_back(SendEvent{100 - i / 2, 1000, 0, Rational(5, 2)});
    buckets[3].push_back(SendEvent{(i * 37) % 41, 1000 + i % 3, i % 2, Rational(1, 2)});
  }
  std::vector<SendEvent> events;
  for (const std::size_t b : {2u, 0u, 3u, 1u}) {
    events.insert(events.end(), buckets[b].begin(), buckets[b].end());
  }
  expect_sorts_like_reference(events);
  // The same shapes interleaved across ticks.
  std::vector<SendEvent> interleaved;
  for (std::size_t i = 0; i < 40; ++i) {
    for (const std::vector<SendEvent>& b : buckets) interleaved.push_back(b[i]);
  }
  expect_sorts_like_reference(interleaved);
}

TEST(ScheduleSort, SizesAroundTheBucketThreshold) {
  Xoshiro256 rng(19);
  for (std::size_t count = 0; count <= 130; ++count) {
    expect_sorts_like_reference(random_events(rng, count, 2, 0, 20, 30, 2));
  }
}

TEST(ScheduleSort, BcastEmissionMatchesStableSort) {
  // BCAST's depth-first emitter writes each tick in strictly descending
  // src order: the reversal path carries this whole schedule.
  for (const Rational& lambda : {Rational(5, 2), Rational(1), Rational(7, 3)}) {
    GenFib fib(lambda);
    Schedule emitted;
    bcast_emit(emitted, fib, 0, 20000, Rational(0), 0);
    expect_sorts_like_reference(emitted.events());
  }
}

// --- Schedule::from_tick_log ------------------------------------------------

/// A log of `count` sends with distinct (tick, src) on ranks [0, n),
/// ticks in [0, span), in a scrambled order.
TickLog random_log(Xoshiro256& rng, std::size_t count, std::uint64_t n, std::uint64_t span) {
  TickLog log;
  std::vector<std::pair<Tick, ProcId>> used;
  while (log.size() < count) {
    const auto src = static_cast<ProcId>(rng.uniform(0, n - 1));
    const auto dst = static_cast<ProcId>(rng.uniform(0, n - 1));
    const auto tick = static_cast<Tick>(rng.uniform(0, span - 1));
    if (src == dst) continue;
    if (std::find(used.begin(), used.end(), std::make_pair(tick, src)) != used.end()) {
      continue;
    }
    used.emplace_back(tick, src);
    log.push_back(TickSend{tick, src, dst, static_cast<MsgId>(rng.uniform(0, 3))});
  }
  return log;
}

Schedule added_and_sorted(const TickLog& log, std::int64_t q) {
  Schedule s;
  for (const TickSend& e : log) s.add(e.src, e.dst, e.msg, Rational(e.tick, q));
  s.sort();
  return s;
}

TEST(ScheduleTickLog, MatchesAddAndSort) {
  Xoshiro256 rng(21);
  for (const std::int64_t q : {1, 2, 6}) {
    for (const std::size_t count : {1u, 2u, 50u, 700u}) {
      const TickLog log = random_log(rng, count, 64, count / 3 + 2);
      EXPECT_EQ(Schedule::from_tick_log(log, q, 64).events(),
                added_and_sorted(log, q).events());
    }
  }
}

/// `log` split at the rank `bounds` (ascending, ending at n) into one
/// RankBlockAssembly segment each, assembled with every lane-safe phase
/// run over the segments in reverse order.
Schedule assemble_blocks(const TickLog& log, std::int64_t q, std::uint64_t n,
                         const std::vector<ProcId>& bounds, std::vector<TickLog>& parts) {
  parts.assign(bounds.size(), TickLog{});
  for (const TickSend& e : log) {
    const auto at = std::upper_bound(bounds.begin(), bounds.end(), e.src);
    parts[static_cast<std::size_t>(at - bounds.begin())].push_back(e);
  }
  std::vector<RankBlockAssembly::Segment> segments;
  ProcId lo = 0;
  for (std::size_t s = 0; s < bounds.size(); ++s) {
    segments.push_back({parts[s].data(), parts[s].size(), lo, bounds[s]});
    lo = bounds[s];
  }
  RankBlockAssembly assembly(std::move(segments), q, n);
  for (std::size_t s = assembly.segments(); s-- > 0;) assembly.order(s);
  assembly.place();
  for (std::size_t s = assembly.segments(); s-- > 0;) assembly.scatter(s);
  return assembly.take();
}

/// A log of `count` sends on ranks [0, n) with distinct (tick, src), ticks
/// in [0, span), in a scrambled order; for n far above `count`.
TickLog sparse_log(Xoshiro256& rng, std::size_t count, std::uint64_t n,
                   std::uint64_t span) {
  TickLog log;
  std::vector<std::pair<Tick, ProcId>> used;
  while (log.size() < count) {
    const auto src = static_cast<ProcId>(rng.uniform(0, n - 1));
    const auto tick = static_cast<Tick>(rng.uniform(0, span - 1));
    if (std::find(used.begin(), used.end(), std::make_pair(tick, src)) != used.end()) {
      continue;
    }
    used.emplace_back(tick, src);
    const auto dst = static_cast<ProcId>((src + 1 + rng.uniform(0, n - 2)) % n);
    log.push_back(TickSend{tick, src, dst, static_cast<MsgId>(rng.uniform(0, 3))});
  }
  return log;
}

/// What from_tick_log promises, by std::sort on (tick, src, dst, msg).
std::vector<TickSend> std_sorted(TickLog log) {
  std::sort(log.begin(), log.end(), [](const TickSend& a, const TickSend& b) {
    return std::tie(a.tick, a.src, a.dst, a.msg) < std::tie(b.tick, b.src, b.dst, b.msg);
  });
  return log;
}

TEST(ScheduleTickLog, EmptyLogsGiveAnEmptySchedule) {
  EXPECT_TRUE(Schedule::from_tick_log(TickLog{}, 2, 8).empty());
  EXPECT_TRUE(Schedule::from_tick_log(TickLog{}, 2, 0).empty());
  EXPECT_TRUE(Schedule::from_tick_log(TickLog{}, 2, 3 * kAssemblyBlockRanks).empty());
  std::vector<TickLog> parts;
  EXPECT_TRUE(assemble_blocks(TickLog{}, 2, 8, {2, 5, 8}, parts).empty());
}

TEST(ScheduleTickLog, SplitLogsMatchOneLog) {
  // Blocks of any widths, empty ones among them, give the one-block result.
  Xoshiro256 rng(22);
  const TickLog log = random_log(rng, 600, 40, 90);
  const Schedule one = Schedule::from_tick_log(log, 2, 40);
  std::vector<TickLog> parts;
  for (const std::vector<ProcId>& bounds :
       {std::vector<ProcId>{40}, {13, 27, 40}, {0, 1, 1, 39, 40}, {20, 20, 40, 40}}) {
    const Schedule split = assemble_blocks(log, 2, 40, bounds, parts);
    EXPECT_EQ(split.records(), one.records());
    EXPECT_EQ(split.q(), one.q());
  }
}

TEST(ScheduleTickLog, BlockedAssemblyMatchesStdSortAroundTheBlockSize) {
  // from_tick_log's rank blocks against std::sort, at rank counts on and
  // around the block width: one send per rank and tick-dense, and sparse
  // logs that leave most blocks empty.
  constexpr std::uint64_t kB = kAssemblyBlockRanks;
  Xoshiro256 rng(25);
  for (const std::uint64_t n : {std::uint64_t{1}, kB - 1, kB, kB + 1, 3 * kB + 7}) {
    if (n >= 2) {
      TickLog dense;
      for (ProcId p = 0; p < n; ++p) {
        const auto dst = static_cast<ProcId>((p + 1 + rng.uniform(0, n - 2)) % n);
        dense.push_back(TickSend{static_cast<Tick>(rng.uniform(0, 40)), p, dst, 0});
      }
      for (std::size_t i = dense.size(); i > 1; --i) {
        std::swap(dense[i - 1], dense[static_cast<std::size_t>(rng.uniform(0, i - 1))]);
      }
      const Schedule s = Schedule::from_tick_log(dense, 2, n);
      EXPECT_EQ(s.records(), std_sorted(dense)) << "dense n = " << n;
      EXPECT_EQ(s.q(), 2);
    }
    if (n >= 2) {
      // A few sends in the last block only, and a few spread thin.
      TickLog tail;
      for (ProcId p = static_cast<ProcId>(n - 1); tail.size() < 5 && p > 0; --p) {
        tail.push_back(TickSend{static_cast<Tick>(p % 7), p, 0, 1});
      }
      EXPECT_EQ(Schedule::from_tick_log(tail, 3, n).records(), std_sorted(tail))
          << "tail n = " << n;
      const TickLog thin = sparse_log(rng, 300, n, 50);
      EXPECT_EQ(Schedule::from_tick_log(thin, 3, n).records(), std_sorted(thin))
          << "thin n = " << n;
    }
  }
  // Enough sends to count, from blocks 0 and 2 only: blocks 1 and 3 are
  // empty on the counting path.
  const std::uint64_t n = 3 * kB + 7;
  TickLog gapped;
  for (ProcId p = 0; p < n; ++p) {
    if (p / kB == 1 || p / kB == 3) continue;
    gapped.push_back(TickSend{static_cast<Tick>(rng.uniform(0, 30)), p,
                              static_cast<ProcId>(kB + p % kB), 0});
  }
  for (std::size_t i = gapped.size(); i > 1; --i) {
    std::swap(gapped[i - 1], gapped[static_cast<std::size_t>(rng.uniform(0, i - 1))]);
  }
  EXPECT_EQ(Schedule::from_tick_log(gapped, 1, n).records(), std_sorted(gapped));
}

TEST(ScheduleTickLog, WideSpansAcrossBlocksTakeTheComparisonPath) {
  // A span the (tick, block) table cannot afford, with every rank sending:
  // from_tick_log falls back to one block, and a span past the cap even for
  // one block to the comparison sort. Both match std::sort.
  constexpr std::uint64_t kB = kAssemblyBlockRanks;
  Xoshiro256 rng(26);
  const std::uint64_t n = 3 * kB + 7;
  for (const std::uint64_t span : {std::uint64_t{100'000}, std::uint64_t{1} << 40}) {
    TickLog log;
    for (ProcId p = 0; p < n; ++p) {
      log.push_back(TickSend{static_cast<Tick>(rng.uniform(0, span - 1)), p,
                             static_cast<ProcId>((p + 1) % n), 0});
    }
    EXPECT_EQ(Schedule::from_tick_log(log, 2, n).records(), std_sorted(log))
        << "span " << span;
  }
}

TEST(ScheduleTickLog, RescaledLogGivesTheSameSchedule) {
  // Machine rescales its log by k = q'/q when an off-grid timer arrives;
  // the schedule's times are values, so they must not change.
  Xoshiro256 rng(23);
  const TickLog log = random_log(rng, 500, 30, 80);
  TickLog rescaled = log;
  for (TickSend& e : rescaled) e.tick *= 3;
  const Schedule before = Schedule::from_tick_log(log, 2, 30);
  EXPECT_EQ(Schedule::from_tick_log(rescaled, 6, 30).events(), before.events());
  EXPECT_EQ(Schedule::from_tick_log(rescaled, 6, 30).events(),
            added_and_sorted(rescaled, 6).events());
}

TEST(ScheduleTickLog, WideSpansAndManyRanksTakeTheComparisonPath) {
  Xoshiro256 rng(24);
  // Tick span past the counting cap.
  const TickLog wide = random_log(rng, 300, 20, counting_span_cap(300) * 4);
  EXPECT_EQ(Schedule::from_tick_log(wide, 2, 20).events(),
            added_and_sorted(wide, 2).events());
  // More ranks than the cap: the src pass would not pay for its counts.
  const std::uint64_t n = counting_span_cap(300) + 5;
  const TickLog sparse = random_log(rng, 300, n, 40);
  EXPECT_EQ(Schedule::from_tick_log(sparse, 3, n).events(),
            added_and_sorted(sparse, 3).events());
}

TEST(ScheduleTickLog, RejectsARepeatedTickAndSource) {
  // One port cannot start two sends at one tick, on either path.
  const TickLog dup{{4, 1, 2, 0}, {0, 3, 1, 0}, {4, 1, 3, 0}};
  POSTAL_EXPECT_THROW(Schedule::from_tick_log(dup, 2, 8), LogicError);
  TickLog wide = dup;
  wide.push_back(TickSend{Tick{1} << 40, 0, 1, 0});
  POSTAL_EXPECT_THROW(Schedule::from_tick_log(wide, 2, 8), LogicError);
}

TEST(ScheduleTickLog, RejectsSelfSendsLikeAdd) {
  // Every constructor of a Schedule refuses src == dst: add(), add_tick()
  // and an engine log, on every assembly path.
  POSTAL_EXPECT_THROW(Schedule::from_tick_log(TickLog{{0, 3, 3, 0}}, 2, 8),
                      InvalidArgument);
  const TickLog second_block{{0, 1, 2, 0}, {1, 40'000, 40'000, 0}};
  POSTAL_EXPECT_THROW(Schedule::from_tick_log(second_block, 2, 2 * kAssemblyBlockRanks),
                      InvalidArgument);
  POSTAL_EXPECT_THROW(
      Schedule::from_tick_log(TickLog{{0, 1, 2, 0}, {Tick{1} << 40, 5, 5, 0}}, 2, 8),
      InvalidArgument);
}

TEST(ScheduleTickLog, RejectsOutOfRangeEntries) {
  POSTAL_EXPECT_THROW(Schedule::from_tick_log(TickLog{{0, 8, 1, 0}}, 2, 8), LogicError);
  POSTAL_EXPECT_THROW(Schedule::from_tick_log(TickLog{{-1, 0, 1, 0}}, 2, 8), LogicError);
  POSTAL_EXPECT_THROW(Schedule::from_tick_log(TickLog{{0, 0, 1, 0}}, 0, 8),
                      InvalidArgument);
}

}  // namespace
}  // namespace postal
