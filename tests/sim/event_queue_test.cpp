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
#include <optional>
#include <string>
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

// The second differential: single pops checked against ahead(), batched
// drain_current_tick() walks whose callback pushes at the drained tick
// (growing, and so reallocating, the bucket mid-walk), and far-heap
// refills across the 1024-tick ring wrap with many events per far tick.
// Payloads are heap-allocated strings: a read of a moved-from slot sees an
// empty string (and a read of a reallocated one trips ASan).
TEST(QueueDifferential, DrainBatchesLookAheadAndFarRefillsMatchTheReference) {
  constexpr std::size_t kPeek = 10;  // ahead(0..kPeek) checked around each pop
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Xoshiro256 rng(seed * 0xD1B54A32D192ED03ULL);
    EventQueue<std::string> ref;
    TickEventQueue<std::string> tick;
    std::uint64_t seq = 0;
    std::uint64_t next_payload = 0;
    Tick now = 0;
    Tick far_anchor = 3'000;  // a far tick many pushes share
    std::size_t ahead_hits = 0;
    std::size_t grown_batches = 0;
    const auto label = [&next_payload] {
      return "payload-" + std::to_string(next_payload++) + "-beyond-the-sso-buffer";
    };
    const auto push_both = [&](Tick t) {
      std::string v = label();
      ref.push(Rational(t, 3), v);
      tick.push(t, seq++, std::move(v));
    };
    for (int step = 0; step < 3000; ++step) {
      const std::uint64_t r = rng.uniform(0, 99);
      if (ref.empty() || r < 50) {
        const std::uint64_t kind = rng.uniform(0, 99);
        Tick t = now;
        if (kind < 35) {
          t += static_cast<Tick>(rng.uniform(0, 4));  // dense buckets
        } else if (kind < 65) {
          t += static_cast<Tick>(rng.uniform(0, 2'000));
        } else if (kind < 80) {
          t += static_cast<Tick>(rng.uniform(1'000, 1'100));  // just past the ring
        } else if (kind < 95) {
          if (far_anchor <= now) {
            far_anchor = now + 1'500 + static_cast<Tick>(rng.uniform(0, 600));
          }
          t = far_anchor + static_cast<Tick>(rng.uniform(0, 2));  // same-tick far runs
        } else {
          t += static_cast<Tick>(rng.uniform(0, 5'000'000));
        }
        push_both(t);
      } else if (r < 75) {
        // One pop, with ahead(k) against the pops that follow it: commit the
        // cursor to the next tick, snapshot ahead(0..kPeek), then pop without
        // pushing. ahead(k) is the k-th next pop while it stays at that
        // tick, and nullptr past the bucket's end.
        const Tick at = tick.next_time();
        std::vector<std::optional<std::string>> peek;
        for (std::size_t k = 0; k <= kPeek; ++k) {
          const std::string* p = tick.ahead(k);
          peek.push_back(p == nullptr ? std::nullopt : std::optional<std::string>(*p));
        }
        bool same_tick = true;
        for (std::size_t k = 0; k <= kPeek; ++k) {
          if (ref.empty()) {
            EXPECT_FALSE(peek[k].has_value()) << "seed " << seed << " k " << k;
            continue;
          }
          const auto [rt, rv] = ref.pop();
          const auto [tt, tv] = tick.pop();
          ASSERT_EQ(rt, Rational(tt, 3)) << "seed " << seed << " step " << step;
          ASSERT_EQ(rv, tv) << "seed " << seed << " step " << step;
          same_tick = same_tick && tt == at;
          if (same_tick) {
            ASSERT_TRUE(peek[k].has_value()) << "seed " << seed << " k " << k;
            EXPECT_EQ(*peek[k], tv) << "seed " << seed << " k " << k;
            ++ahead_hits;
          } else {
            EXPECT_FALSE(peek[k].has_value()) << "seed " << seed << " k " << k;
          }
          now = tt;
        }
      } else {
        // One batched drain of the next tick. Callbacks push back at that
        // tick; the first one pushes a burst, and now and then a burst past
        // the capacity a bucket keeps (4096 slots), so the bucket
        // reallocates while the walk holds an index into it. Each callback
        // snapshots ahead(0..kPeek) before its own pushes.
        struct Visit {
          std::string payload;
          std::size_t pushed_before;  ///< same-tick pushes made before fn ran
          std::vector<std::optional<std::string>> peek;
        };
        const Tick at = tick.next_time();
        const bool big = grown_batches < 2 && rng.uniform(0, 24) == 0;
        const std::size_t burst =
            big ? 4'096 + 64 : static_cast<std::size_t>(rng.uniform(1, 40));
        std::vector<Visit> visits;
        std::size_t pushed = 0;
        const Tick drained = tick.drain_current_tick([&](std::uint64_t, std::string&& v) {
          Visit visit{std::move(v), pushed, {}};
          for (std::size_t k = 0; k <= kPeek; ++k) {
            const std::string* p = tick.ahead(k);
            visit.peek.push_back(p == nullptr ? std::nullopt
                                              : std::optional<std::string>(*p));
          }
          visits.push_back(std::move(visit));
          std::size_t extra = visits.size() == 1 ? burst : 0;
          if (visits.size() > 1 && pushed < 2 * burst && rng.uniform(0, 99) < 20) {
            extra = 1;
          }
          for (std::size_t i = 0; i < extra; ++i) {
            push_both(at);
            ++pushed;
          }
        });
        ASSERT_EQ(drained, at) << "seed " << seed << " step " << step;
        for (const Visit& visit : visits) {
          ASSERT_FALSE(ref.empty()) << "seed " << seed << " step " << step;
          const auto [rt, rv] = ref.pop();
          ASSERT_EQ(rt, Rational(at, 3)) << "seed " << seed << " step " << step;
          ASSERT_EQ(rv, visit.payload) << "seed " << seed << " step " << step;
        }
        EXPECT_TRUE(ref.empty() || Rational(at, 3) < ref.next_time())
            << "seed " << seed << " step " << step << ": drain left events at its tick";
        // When visit j ran the bucket held the batch's initial events plus
        // the pushes made so far, and the walk stood just past event j.
        const std::size_t initial = visits.size() - pushed;
        for (std::size_t j = 0; j < visits.size(); ++j) {
          const std::size_t known = initial + visits[j].pushed_before;
          for (std::size_t k = 0; k <= kPeek; ++k) {
            const std::size_t idx = j + 1 + k;
            if (idx < known) {
              ASSERT_TRUE(visits[j].peek[k].has_value()) << "seed " << seed << " j " << j;
              EXPECT_EQ(*visits[j].peek[k], visits[idx].payload) << "seed " << seed;
              ++ahead_hits;
            } else {
              EXPECT_FALSE(visits[j].peek[k].has_value())
                  << "seed " << seed << " j " << j;
            }
          }
        }
        if (big) ++grown_batches;
        now = at;
      }
    }
    while (!ref.empty()) {
      ASSERT_FALSE(tick.empty());
      const auto [rt, rv] = ref.pop();
      const auto [tt, tv] = tick.pop();
      EXPECT_EQ(rt, Rational(tt, 3)) << "seed " << seed;
      EXPECT_EQ(rv, tv) << "seed " << seed;
    }
    EXPECT_TRUE(tick.empty());
    EXPECT_GT(ahead_hits, 0u) << "seed " << seed;
    EXPECT_GT(grown_batches, 0u) << "seed " << seed;
  }
}

// --- Chunked buckets ------------------------------------------------------

constexpr std::size_t kChunk = TickEventQueue<int>::kChunkSlots;

TEST(TickEventQueue, FifoAndAheadCrossChunkBoundaries) {
  TickEventQueue<int> q;
  const int count = static_cast<int>(3 * kChunk + 5);
  for (int i = 0; i < count; ++i) q.push(7, static_cast<std::uint64_t>(i), i);
  EXPECT_EQ(q.pending_at(7), static_cast<std::size_t>(count));
  EXPECT_EQ(q.next_time(), 7);
  ASSERT_NE(q.ahead(kChunk), nullptr);
  EXPECT_EQ(*q.ahead(kChunk - 1), static_cast<int>(kChunk - 1));
  EXPECT_EQ(*q.ahead(kChunk), static_cast<int>(kChunk));
  EXPECT_EQ(*q.ahead(static_cast<std::size_t>(count - 1)), count - 1);
  EXPECT_EQ(q.ahead(static_cast<std::size_t>(count)), nullptr);
  for (int i = 0; i < count; ++i) {
    // Around each boundary the look-ahead reads into the next chunk.
    for (std::size_t k = 0; k <= kLookAhead; ++k) {
      const int* p = q.ahead(k);
      if (i + static_cast<int>(k) < count) {
        ASSERT_NE(p, nullptr) << i << " " << k;
        EXPECT_EQ(*p, i + static_cast<int>(k)) << i << " " << k;
      } else {
        EXPECT_EQ(p, nullptr) << i << " " << k;
      }
    }
    ASSERT_EQ(q.pop(), (std::pair<Tick, int>{7, i}));
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending_at(7), 0u);
}

TEST(TickEventQueue, SameTickPushesDuringDrainCrossAChunk) {
  // The bucket starts two slots short of a chunk; every visit pushes one
  // more event at the drained tick, so the walk runs onto chunks that were
  // appended after it started, and each visit's ahead() sees the pushes
  // made so far.
  TickEventQueue<int> q;
  const int initial = static_cast<int>(kChunk - 2);
  for (int i = 0; i < initial; ++i) q.push(4, static_cast<std::uint64_t>(i), i);
  q.push(9, 1'000'000, -1);
  std::uint64_t seq = static_cast<std::uint64_t>(initial);
  int next_payload = initial;
  const int extra = static_cast<int>(2 * kChunk);
  std::vector<int> seen;
  const Tick drained = q.drain_current_tick([&](std::uint64_t s, int&& v) {
    EXPECT_EQ(s, static_cast<std::uint64_t>(v));
    seen.push_back(v);
    const int* next = q.ahead(0);
    const int expected_next = v + 1;
    if (expected_next < next_payload) {
      ASSERT_NE(next, nullptr) << v;
      EXPECT_EQ(*next, expected_next);
    } else {
      EXPECT_EQ(next, nullptr) << v;
    }
    if (next_payload < initial + extra) {
      q.push(4, seq++, next_payload++);
    }
  });
  EXPECT_EQ(drained, 4);
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(initial + extra));
  for (int i = 0; i < initial + extra; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop(), (std::pair<Tick, int>{9, -1}));
}

TEST(TickEventQueue, FarHeapRefillsIntoChunks) {
  // Three chunks' worth of events at one far tick, interleaved with a
  // second far tick: the refill appends them to chunked buckets in (tick,
  // seq) order.
  TickEventQueue<int> q;
  q.push(0, 0, -1);
  std::uint64_t seq = 1;
  const int count = static_cast<int>(3 * kChunk);
  for (int i = 0; i < count; ++i) {
    q.push(i % 3 == 0 ? 5'001 : 5'000, seq++, i);
  }
  EXPECT_EQ(q.pending_at(5'000), static_cast<std::size_t>(count - count / 3));
  EXPECT_EQ(q.pending_at(5'001), static_cast<std::size_t>(count / 3));
  EXPECT_EQ(q.pop(), (std::pair<Tick, int>{0, -1}));
  EXPECT_EQ(q.next_time(), 5'000);
  EXPECT_EQ(q.pending_at(5'000), static_cast<std::size_t>(count - count / 3));
  std::vector<int> at_5000;
  std::vector<int> at_5001;
  while (!q.empty()) {
    const auto [t, v] = q.pop();
    (t == 5'000 ? at_5000 : at_5001).push_back(v);
  }
  ASSERT_EQ(at_5000.size() + at_5001.size(), static_cast<std::size_t>(count));
  EXPECT_TRUE(std::is_sorted(at_5000.begin(), at_5000.end()));
  EXPECT_TRUE(std::is_sorted(at_5001.begin(), at_5001.end()));
  for (const int v : at_5001) EXPECT_EQ(v % 3, 0);
}

TEST(TickEventQueue, ClearKeepsOnlyTheConstantReserve) {
  TickEventQueue<int> q;
  const std::size_t bare = q.footprint_bytes();
  q.push(0, 0, 0);
  const std::size_t chunk = q.footprint_bytes() - bare;
  EXPECT_GT(chunk, kChunk * sizeof(int));
  static_cast<void>(q.pop());
  // A run whose peak holds 40 chunks: pops hand them back to the free list,
  // so the queue keeps them until clear().
  std::uint64_t seq = 1;
  for (Tick t = 0; t < 10; ++t) {
    for (std::size_t i = 0; i < 4 * kChunk; ++i) q.push(t, seq++, 1);
  }
  EXPECT_EQ(q.footprint_bytes(), bare + 40 * chunk);
  while (!q.empty()) static_cast<void>(q.pop());
  EXPECT_EQ(q.footprint_bytes(), bare + 40 * chunk);
  q.clear();
  const std::size_t reserve = bare + TickEventQueue<int>::kKeepChunks * chunk;
  EXPECT_EQ(q.footprint_bytes(), reserve);
  // A run within the reserve allocates nothing; clearing again keeps it.
  for (std::size_t i = 0; i < TickEventQueue<int>::kKeepChunks * kChunk; ++i) {
    q.push(3, seq++, 2);
  }
  EXPECT_EQ(q.footprint_bytes(), reserve);
  q.clear();
  EXPECT_EQ(q.footprint_bytes(), reserve);
  EXPECT_TRUE(q.empty());
}

// The randomized differential again, with pushes crowded onto a few ticks
// so that buckets hold many chunks, and batched drains among the pops.
TEST(QueueDifferential, BucketsFarLargerThanAChunkPopIdentically) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Xoshiro256 rng(seed * 0xA24BAED4963EE407ULL);
    EventQueue<std::uint64_t> ref;
    TickEventQueue<std::uint64_t> tick;
    std::uint64_t seq = 0;
    Tick now = 0;
    std::uint64_t next_payload = 0;
    std::size_t widest = 0;
    for (int step = 0; step < 6'000; ++step) {
      const std::uint64_t r = rng.uniform(0, 99);
      if (ref.empty() || r < 60) {
        // A burst of several chunks at one tick, now and then past the ring.
        const std::uint64_t kind = rng.uniform(0, 99);
        const Tick t = now + (kind < 95 ? static_cast<Tick>(rng.uniform(0, 3))
                                        : static_cast<Tick>(rng.uniform(900, 1'200)));
        const std::uint64_t burst =
            rng.uniform(0, 9) == 0 ? rng.uniform(kChunk, 6 * kChunk) : rng.uniform(1, 8);
        for (std::uint64_t i = 0; i < burst; ++i) {
          ref.push(Rational(t, 3), next_payload);
          tick.push(t, seq++, next_payload++);
        }
        widest = std::max(widest, tick.pending_at(t));
      } else if (r < 95) {
        const auto [rt, rv] = ref.pop();
        const auto [tt, tv] = tick.pop();
        ASSERT_EQ(rt, Rational(tt, 3)) << "seed " << seed << " step " << step;
        ASSERT_EQ(rv, tv) << "seed " << seed << " step " << step;
        now = tt;
      } else {
        const Tick at = tick.drain_current_tick([&](std::uint64_t, std::uint64_t&& v) {
          const auto [rt, rv] = ref.pop();
          ASSERT_EQ(rv, v) << "seed " << seed << " step " << step;
          static_cast<void>(rt);
        });
        now = at;
        EXPECT_TRUE(ref.empty() || Rational(at, 3) < ref.next_time()) << "seed " << seed;
      }
    }
    while (!ref.empty()) {
      ASSERT_FALSE(tick.empty());
      EXPECT_EQ(ref.pop().second, tick.pop().second) << "seed " << seed;
    }
    EXPECT_TRUE(tick.empty());
    EXPECT_GT(widest, 8 * kChunk) << "seed " << seed;
  }
}

}  // namespace
}  // namespace postal
