// Tests for the schedule IR.
#include "sched/schedule.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "test_util.hpp"

namespace postal {
namespace {

TEST(Schedule, StartsEmpty) {
  const Schedule s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.makespan(Rational(2)), Rational(0));
  EXPECT_EQ(s.message_count(), 0u);
}

TEST(Schedule, AddAndQuery) {
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  s.add(0, 2, 0, Rational(1));
  s.add(1, 3, 1, Rational(5, 2));
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.last_send_start(), Rational(5, 2));
  EXPECT_EQ(s.makespan(Rational(5, 2)), Rational(5));
  EXPECT_EQ(s.message_count(), 2u);
}

TEST(Schedule, RejectsSelfSend) {
  Schedule s;
  EXPECT_THROW(s.add(3, 3, 0, Rational(0)), InvalidArgument);
}

TEST(Schedule, RejectsNegativeTime) {
  Schedule s;
  EXPECT_THROW(s.add(0, 1, 0, Rational(-1)), InvalidArgument);
}

TEST(Schedule, SortIsByTimeThenIds) {
  Schedule s;
  s.add(2, 3, 0, Rational(1));
  s.add(0, 1, 0, Rational(0));
  s.add(1, 2, 0, Rational(1));
  s.sort();
  EXPECT_EQ(s.events()[0].src, 0u);
  EXPECT_EQ(s.events()[1].src, 1u);
  EXPECT_EQ(s.events()[2].src, 2u);
}

TEST(Schedule, AppendShiftedOffsetsTimeAndMsg) {
  Schedule base;
  base.add(0, 1, 0, Rational(0));
  base.add(1, 2, 0, Rational(3, 2));
  Schedule s;
  s.append_shifted(base, Rational(10), 5);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.events()[0].t, Rational(10));
  EXPECT_EQ(s.events()[0].msg, 5u);
  EXPECT_EQ(s.events()[1].t, Rational(23, 2));
  EXPECT_EQ(s.events()[1].msg, 5u);
}

TEST(Schedule, SendsPerProcCounts) {
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  s.add(0, 2, 0, Rational(1));
  s.add(2, 1, 0, Rational(4));
  const auto counts = s.sends_per_proc(3);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 1u);
}

TEST(Schedule, SendsPerProcRejectsOutOfRange) {
  Schedule s;
  s.add(0, 7, 0, Rational(0));
  POSTAL_EXPECT_THROW(s.sends_per_proc(3), InvalidArgument);
}

TEST(SendEvent, StreamsHumanReadable) {
  std::ostringstream oss;
  oss << SendEvent{0, 9, 0, Rational(5, 2)};
  EXPECT_EQ(oss.str(), "p0 -> p9 : M1 @ t=5/2");
}

TEST(Schedule, StreamsAllEvents) {
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  s.add(1, 2, 1, Rational(2));
  std::ostringstream oss;
  oss << s;
  EXPECT_NE(oss.str().find("p0 -> p1 : M1 @ t=0"), std::string::npos);
  EXPECT_NE(oss.str().find("p1 -> p2 : M2 @ t=2"), std::string::npos);
}

// --- Records on one grid -----------------------------------------------------

TEST(ScheduleGrid, OffGridAddRescalesAndKeepsInsertionOrder) {
  Schedule s;
  s.add(0, 1, 0, Rational(3));
  s.add(1, 2, 0, Rational(1, 2));
  EXPECT_EQ(s.q(), 2);
  s.add(2, 3, 1, Rational(2, 3));  // lcm(2, 3): every record moves to sixths
  EXPECT_EQ(s.q(), 6);
  const std::vector<TickSend> want{{18, 0, 1, 0}, {3, 1, 2, 0}, {4, 2, 3, 1}};
  EXPECT_EQ(s.records(), want);
  const std::vector<SendEvent> events{{0, 1, 0, Rational(3)},
                                      {1, 2, 0, Rational(1, 2)},
                                      {2, 3, 1, Rational(2, 3)}};
  EXPECT_EQ(s.events(), events);
  // A time already on the grid leaves it alone.
  s.add(3, 4, 0, Rational(5, 3));
  EXPECT_EQ(s.q(), 6);
  EXPECT_EQ(s.records().back(), (TickSend{10, 3, 4, 0}));
}

TEST(ScheduleGrid, AppendShiftedWorksAcrossGrids) {
  Schedule thirds;
  thirds.add(0, 1, 0, Rational(1, 3));
  thirds.add(1, 2, 0, Rational(2));
  Schedule s;
  s.add(5, 6, 0, Rational(1, 2));
  s.append_shifted(thirds, Rational(1, 4), 2);
  EXPECT_EQ(s.q(), 12);
  const std::vector<SendEvent> want{{5, 6, 0, Rational(1, 2)},
                                    {0, 1, 2, Rational(7, 12)},
                                    {1, 2, 2, Rational(9, 4)}};
  EXPECT_EQ(s.events(), want);
  // The source keeps its own grid.
  EXPECT_EQ(thirds.q(), 3);
  // Appending a schedule to itself doubles it.
  Schedule twice = thirds;
  twice.append_shifted(twice, Rational(10), 1);
  ASSERT_EQ(twice.size(), 4u);
  EXPECT_EQ(twice.events()[2], (SendEvent{0, 1, 1, Rational(31, 3)}));
  EXPECT_EQ(twice.events()[3], (SendEvent{1, 2, 1, Rational(12)}));
  // A shift that moves a send before 0 is rejected.
  Schedule back;
  POSTAL_EXPECT_THROW(back.append_shifted(thirds, Rational(-1, 2), 0), InvalidArgument);
}

TEST(ScheduleGrid, SortAfterARescale) {
  Schedule s;
  for (std::uint32_t i = 0; i < 100; ++i) {
    s.add(i % 7, 7 + i % 5, 0, Rational(static_cast<std::int64_t>(100 - i)));
  }
  s.add(3, 9, 1, Rational(1, 7));  // rescales 100 integer records by 7
  s.sort();
  EXPECT_EQ(s.q(), 7);
  EXPECT_EQ(s.events().front(), (SendEvent{3, 9, 1, Rational(1, 7)}));
  EXPECT_EQ(s.events()[1], (SendEvent{1, 11, 0, Rational(1)}));
  EXPECT_EQ(s.events().back(), (SendEvent{0, 7, 0, Rational(100)}));
  const std::vector<TickSend>& r = s.records();
  for (std::size_t i = 1; i < r.size(); ++i) EXPECT_LE(r[i - 1].tick, r[i].tick);
}

TEST(ScheduleGrid, ViewAndVectorCompareEqual) {
  Schedule halves;
  halves.add(0, 1, 0, Rational(1, 2));
  halves.add(1, 2, 0, Rational(3));
  Schedule sixths = halves;
  sixths.add(2, 3, 0, Rational(1, 3));
  Schedule fine;
  fine.add(2, 3, 0, Rational(1, 6));
  fine = Schedule();
  fine.refine(6, "test");
  fine.add(0, 1, 0, Rational(1, 2));
  fine.add(1, 2, 0, Rational(3));
  // Value equality across grids: 3/6 == 1/2 and 18/6 == 3.
  EXPECT_EQ(fine.q(), 6);
  EXPECT_EQ(fine.events(), halves.events());
  EXPECT_NE(fine.records(), halves.records());
  EXPECT_NE(sixths.events(), halves.events());
  const std::vector<SendEvent> events = halves.events();
  EXPECT_EQ(halves.events(), events);
  EXPECT_EQ(events, fine.events());
  EXPECT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1], halves.events().back());
  std::vector<SendEvent> moved = events;
  moved[0].t = Rational(1);
  EXPECT_NE(halves.events(), moved);
  moved.pop_back();
  EXPECT_NE(halves.events(), std::vector<SendEvent>(moved));
}

TEST(ScheduleGrid, AddPastInt64RaisesNamingTheEntryPoint) {
  const std::int64_t big = std::numeric_limits<std::int64_t>::max() / 2;
  Schedule s;
  s.add(0, 1, 0, Rational(big));
  const auto expect_overflow = [](const auto& call, const std::string& site) {
    try {
      call();
      ADD_FAILURE() << site << " did not throw";
    } catch (const OverflowError& e) {
      EXPECT_NE(std::string(e.what()).find(site), std::string::npos) << e.what();
    }
  };
  // The rescale by 3 would overflow the big record's tick.
  expect_overflow([&] { s.add(1, 2, 0, Rational(1, 3)); }, "Schedule::add");
  EXPECT_EQ(s.q(), 1);
  EXPECT_EQ(s.size(), 1u);
  // A grid with no int64 denominator.
  Schedule g;
  g.add(0, 1, 0, Rational(1, (std::int64_t{1} << 40) + 15));
  expect_overflow([&] { g.add(1, 2, 0, Rational(1, (std::int64_t{1} << 40) + 9)); },
                  "Schedule::add");
  const Rational far(std::numeric_limits<std::int64_t>::max() - 1);
  expect_overflow([&] { s.append_shifted(s, far, 0); },
                  "Schedule::append_shifted");
  EXPECT_EQ(s.size(), 1u);
}

}  // namespace
}  // namespace postal
