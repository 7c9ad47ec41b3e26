// The (time, seq) tie-break contract of both event queues.
//
// EventQueue documents that pops are ordered by (time, seq): strictly
// earliest time first, FIFO among same-time events. These tests pin that
// contract directly, then verify the tick-keyed queue
// (sim/tick_queue.hpp) against the *same* contract --
// including randomized differential workloads where both queues, fed
// identical pushes, must pop identical payload sequences.
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hpp"
#include "sim/tick_queue.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace postal {
namespace {

TEST(EventQueue, PopsEarliestTimeFirst) {
  EventQueue<int> q;
  q.push(Rational(5, 2), 1);
  q.push(Rational(1), 2);
  q.push(Rational(7, 3), 3);
  EXPECT_EQ(q.next_time(), Rational(1));
  EXPECT_EQ(q.pop().second, 2);
  EXPECT_EQ(q.pop().second, 3);  // 7/3 < 5/2
  EXPECT_EQ(q.pop().second, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FifoAmongEqualTimes) {
  // std::priority_queue guarantees nothing for equal keys; the seq stamp
  // must force first-pushed-first.
  EventQueue<int> q;
  for (int i = 0; i < 64; ++i) q.push(Rational(3, 2), i);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(q.pop().second, i) << "FIFO order broken at " << i;
  }
}

TEST(EventQueue, InterleavedPushPopKeepsGlobalOrder) {
  EventQueue<int> q;
  q.push(Rational(1), 10);
  q.push(Rational(2), 20);
  EXPECT_EQ(q.pop().second, 10);
  q.push(Rational(2), 21);  // same time as 20, pushed later
  q.push(Rational(3, 2), 15);
  EXPECT_EQ(q.pop().second, 15);
  EXPECT_EQ(q.pop().second, 20);
  EXPECT_EQ(q.pop().second, 21);
}

TEST(TickEventQueue, PopsEarliestTickFirst) {
  TickEventQueue<int> q;
  std::uint64_t seq = 0;
  q.push(50, seq++, 1);
  q.push(10, seq++, 2);
  q.push(23, seq++, 3);
  EXPECT_EQ(q.next_time(), 10);
  EXPECT_EQ(q.pop(), (std::pair<Tick, int>{10, 2}));
  EXPECT_EQ(q.pop(), (std::pair<Tick, int>{23, 3}));
  EXPECT_EQ(q.pop(), (std::pair<Tick, int>{50, 1}));
  EXPECT_TRUE(q.empty());
}

TEST(TickEventQueue, FifoAmongEqualTicks) {
  TickEventQueue<int> q;
  std::uint64_t seq = 0;
  for (int i = 0; i < 64; ++i) q.push(17, seq++, i);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(q.pop().second, i) << "FIFO order broken at " << i;
  }
}

TEST(TickEventQueue, FarHorizonEventsReturnInOrder) {
  // Events beyond the ring window overflow into the far heap and must
  // come back in (tick, seq) order when the window jumps to them.
  TickEventQueue<int> q;
  std::uint64_t seq = 0;
  q.push(0, seq++, 0);
  q.push(5'000, seq++, 1);
  q.push(2'000, seq++, 2);
  q.push(1'000'000'000'000, seq++, 3);
  q.push(5'000, seq++, 4);  // same far tick, later seq
  EXPECT_EQ(q.pop(), (std::pair<Tick, int>{0, 0}));
  EXPECT_EQ(q.pop(), (std::pair<Tick, int>{2'000, 2}));
  EXPECT_EQ(q.pop(), (std::pair<Tick, int>{5'000, 1}));
  EXPECT_EQ(q.pop(), (std::pair<Tick, int>{5'000, 4}));
  EXPECT_EQ(q.pop(), (std::pair<Tick, int>{1'000'000'000'000, 3}));
  EXPECT_TRUE(q.empty());
}

TEST(TickEventQueue, RejectsNonMonotonePushes) {
  TickEventQueue<int> q;
  q.push(10, 0, 1);
  EXPECT_EQ(q.pop().first, 10);
  POSTAL_EXPECT_THROW(q.push(5, 1, 2), LogicError);  // before the cursor
  q.push(10, 1, 3);  // at the cursor is fine
  EXPECT_EQ(q.pop().second, 3);
}

TEST(TickEventQueue, ClearKeepsCapacityAndWorks) {
  TickEventQueue<int> q;
  std::uint64_t seq = 0;
  for (Tick t = 0; t < 100; ++t) q.push(t * 7, seq++, static_cast<int>(t));
  for (int i = 0; i < 40; ++i) static_cast<void>(q.pop());
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  // Time restarts at zero after clear (it is a per-run structure).
  q.push(0, 0, 123);
  q.push(2'000'000, 1, 456);
  EXPECT_EQ(q.pop(), (std::pair<Tick, int>{0, 123}));
  EXPECT_EQ(q.pop(), (std::pair<Tick, int>{2'000'000, 456}));
}

TEST(TickEventQueue, DrainHandsBackEverythingInPopOrder) {
  TickEventQueue<int> q;
  std::uint64_t seq = 0;
  q.push(30, seq++, 3);
  q.push(10, seq++, 1);
  q.push(10, seq++, 2);
  q.push(99'999, seq++, 4);
  std::vector<Tick> ticks;
  std::vector<std::uint64_t> seqs;
  std::vector<int> payloads;
  q.drain([&](Tick t, std::uint64_t s, int&& v) {
    ticks.push_back(t);
    seqs.push_back(s);
    payloads.push_back(v);
  });
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(ticks, (std::vector<Tick>{10, 10, 30, 99'999}));
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 0, 3}));
  EXPECT_EQ(payloads, (std::vector<int>{1, 2, 3, 4}));
}

TEST(TickEventQueue, PeekTimeDoesNotCommitTheCursor) {
  TickEventQueue<int> q;
  std::uint64_t seq = 0;
  q.push(5, seq++, 1);
  q.push(2'000, seq++, 2);
  EXPECT_EQ(q.peek_time(), 5);
  EXPECT_EQ(q.pop(), (std::pair<Tick, int>{5, 1}));
  // peek sees 2000 but must not move the cursor there: a later push at 100
  // (>= the popped tick, < the peeked one) stays legal. This is exactly
  // ParMachine's barrier pattern -- peek to stop at the window horizon,
  // then push mailbox traffic below the peeked tick.
  EXPECT_EQ(q.peek_time(), 2'000);
  q.push(100, seq++, 3);
  EXPECT_EQ(q.pop(), (std::pair<Tick, int>{100, 3}));
  EXPECT_EQ(q.pop(), (std::pair<Tick, int>{2'000, 2}));
  // next_time() commits: after it, the same kind of push throws.
  q.push(9'000, seq++, 4);
  EXPECT_EQ(q.next_time(), 9'000);
  POSTAL_EXPECT_THROW(q.push(8'000, seq++, 5), LogicError);
}

TEST(TickEventQueue, PeekTimeReadsTheFarHeapWhenTheRingIsEmpty) {
  TickEventQueue<int> q;
  q.push(3'000'000, 0, 7);  // far beyond the 1024-tick ring window
  EXPECT_EQ(q.peek_time(), 3'000'000);
  EXPECT_EQ(q.pop(), (std::pair<Tick, int>{3'000'000, 7}));
}

TEST(TickEventQueue, DrainCurrentTickHandsOutOneTickInFifoOrder) {
  TickEventQueue<int> q;
  std::uint64_t seq = 0;
  q.push(40, seq++, 4);
  q.push(7, seq++, 1);
  q.push(7, seq++, 2);
  std::vector<std::pair<std::uint64_t, int>> got;
  const Tick t = q.drain_current_tick([&](std::uint64_t s, int&& v) {
    got.emplace_back(s, v);
    // A same-tick push from inside the drain joins the tail of the batch,
    // exactly as repeated pop() calls would order it.
    if (v == 1) q.push(7, seq++, 3);
  });
  EXPECT_EQ(t, 7);
  EXPECT_EQ(got, (std::vector<std::pair<std::uint64_t, int>>{
                     {1, 1}, {2, 2}, {3, 3}}));
  EXPECT_EQ(q.pop(), (std::pair<Tick, int>{40, 4}));
  EXPECT_TRUE(q.empty());
}

TEST(TickEventQueue, WindowLoopStraddlesTheRingBoundaryAtABarrierTick) {
  // ParMachine's window loop (peek_time + drain_current_tick until the
  // horizon, then barrier pushes) run across the 1024-bucket ring boundary
  // with the lambda-barrier tick falling just past the wrap: in-window
  // events sit on both sides of tick 1024 (the far side starts in the far
  // heap and is ring-refilled mid-window), and the barrier then pushes at
  // ticks a committed cursor would have rejected.
  constexpr Tick kRing = 1024;  // mirrors TickEventQueue's ring size
  constexpr Tick kLambda = 40;
  const Tick window_start = kRing - kLambda / 2;
  const Tick window_end = window_start + kLambda;  // 1044: past the wrap
  TickEventQueue<Tick> q;
  std::uint64_t seq = 0;
  std::vector<Tick> in_window = {window_start, kRing - 1, kRing, kRing + 1,
                                 window_end - 1};
  for (const Tick t : in_window) q.push(t, seq++, t);
  q.push(window_end, seq++, window_end);  // first at-the-barrier tick
  q.push(kRing * 3, seq++, kRing * 3);    // stays in the far heap

  std::vector<Tick> popped;
  while (!q.empty()) {
    if (q.peek_time() >= window_end) break;
    q.drain_current_tick(
        [&](std::uint64_t, Tick&& v) { popped.push_back(v); });
  }
  std::sort(in_window.begin(), in_window.end());
  EXPECT_EQ(popped, in_window);

  // Barrier traffic: same-tick FIFO behind the pre-existing entry, plus a
  // tick between the horizon and the far-heap resident.
  q.push(window_end, seq++, window_end + 1);
  q.push(window_end + 3, seq++, window_end + 3);
  EXPECT_EQ(q.pop(), (std::pair<Tick, Tick>{window_end, window_end}));
  EXPECT_EQ(q.pop(), (std::pair<Tick, Tick>{window_end, window_end + 1}));
  EXPECT_EQ(q.pop(), (std::pair<Tick, Tick>{window_end + 3, window_end + 3}));
  EXPECT_EQ(q.pop(), (std::pair<Tick, Tick>{kRing * 3, kRing * 3}));
  EXPECT_TRUE(q.empty());
}

// The differential contract check: identical monotone workloads through
// both queues must pop identical payload sequences. Times are carried as
// ticks on one side and as t/3 Rationals on the other (same total order).
TEST(QueueDifferential, RandomizedWorkloadsPopIdentically) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL);
    EventQueue<std::uint64_t> ref;
    TickEventQueue<std::uint64_t> tick;
    std::uint64_t seq = 0;
    Tick now = 0;
    std::uint64_t next_payload = 0;
    std::vector<std::uint64_t> ref_order;
    std::vector<std::uint64_t> tick_order;
    for (int step = 0; step < 4000; ++step) {
      const bool do_push = ref.empty() || rng.uniform(0, 99) < 55;
      if (do_push) {
        // Mostly near-future, occasionally far beyond the ring window.
        const std::uint64_t r = rng.uniform(0, 99);
        const Tick delta = r < 90 ? static_cast<Tick>(rng.uniform(0, 2000))
                                  : static_cast<Tick>(rng.uniform(0, 5'000'000));
        const Tick t = now + delta;
        const std::uint64_t payload = next_payload++;
        ref.push(Rational(t, 3), payload);
        tick.push(t, seq++, payload);
      } else {
        const auto [rt, rv] = ref.pop();
        const auto [tt, tv] = tick.pop();
        EXPECT_EQ(rt, Rational(tt, 3)) << "seed " << seed << " step " << step;
        ref_order.push_back(rv);
        tick_order.push_back(tv);
        now = tt;
      }
    }
    while (!ref.empty()) {
      ref_order.push_back(ref.pop().second);
      ASSERT_FALSE(tick.empty());
      tick_order.push_back(tick.pop().second);
    }
    EXPECT_TRUE(tick.empty());
    EXPECT_EQ(ref_order, tick_order) << "seed " << seed;
  }
}

}  // namespace
}  // namespace postal
