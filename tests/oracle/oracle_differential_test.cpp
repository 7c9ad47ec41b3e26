// The oracle differential gate (docs/ORACLE.md): on every (n, lambda) the
// materialized path can hold, the implicit oracle must reproduce Algorithm
// BCAST *event-for-event* -- same sender, same receiver, same send start
// for every rank -- and its per-rank answers must agree with the tree
// reconstructed from that schedule. This is what licenses trusting the
// oracle's closed forms at n = 10^12, where nothing can double-check them
// but the streaming validator (whose source is the oracle itself) and the
// last-informed witness. Past that range, oracle descents are checked
// against descents walked with GenFib::bcast_split and exact Rational time
// -- independent of the oracle's shared F table and tick arithmetic -- up
// to n = 10^12, including while other oracles grow that table. The two
// primitives under every descent have their own differentials: the
// bucketed f_lambda inverse against std::lower_bound, and the rank walk
// against one locate() per rank.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "model/genfib.hpp"
#include "oracle/oracle.hpp"
#include "par/genfib_cache.hpp"
#include "sched/bcast.hpp"
#include "sched/broadcast_tree.hpp"
#include "sim/stream_validator.hpp"
#include "sim/validator.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"
#include "support/saturating.hpp"

namespace postal {
namespace {

struct RandomPair {
  std::uint64_t n;
  Rational lambda;
};

std::vector<RandomPair> random_pairs(std::uint64_t seed, std::size_t count) {
  Xoshiro256 rng(seed);
  std::vector<RandomPair> pairs;
  pairs.reserve(count);
  while (pairs.size() < count) {
    const std::uint64_t n = rng.uniform(1, 256);
    const std::uint64_t q = rng.uniform(1, 4);
    const std::uint64_t p = rng.uniform(q, 8 * q);  // lambda = p/q in [1, 8]
    pairs.push_back({n, Rational(static_cast<std::int64_t>(p),
                                 static_cast<std::int64_t>(q))});
  }
  return pairs;
}

/// The materialized schedule's events keyed by receiver, the total order
/// the oracle emits.
std::vector<StreamEvent> by_receiver(const Schedule& schedule) {
  std::vector<StreamEvent> events;
  events.reserve(schedule.size());
  for (const SendEvent& e : schedule.events()) {
    events.push_back({e.src, e.dst, e.t});
  }
  std::sort(events.begin(), events.end(),
            [](const StreamEvent& a, const StreamEvent& b) { return a.dst < b.dst; });
  return events;
}

TEST(OracleDifferentialTest, EventForEventOnRandomCorpus) {
  for (const RandomPair& pair : random_pairs(2024, 60)) {
    const PostalParams params(pair.n, pair.lambda);
    const Schedule schedule = bcast_schedule(params);
    const oracle::ScheduleOracle oracle(pair.n, pair.lambda);

    const std::vector<StreamEvent> expect = by_receiver(schedule);
    const std::vector<StreamEvent> got = oracle.events(0, pair.n);
    ASSERT_EQ(got.size(), expect.size())
        << "event count mismatch at n=" << pair.n << " lambda=" << pair.lambda;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expect[i])
          << "event " << i << " mismatch at n=" << pair.n
          << " lambda=" << pair.lambda << ": oracle p" << got[i].src << "->p"
          << got[i].dst << " at " << got[i].t << ", sched p" << expect[i].src
          << "->p" << expect[i].dst << " at " << expect[i].t;
    }
  }
}

TEST(OracleDifferentialTest, PerRankAnswersMatchReconstructedTree) {
  for (const RandomPair& pair : random_pairs(777, 25)) {
    if (pair.n < 2) continue;
    const PostalParams params(pair.n, pair.lambda);
    const Schedule schedule = bcast_schedule(params);
    const BroadcastTree tree = BroadcastTree::from_schedule(schedule, pair.n);
    const oracle::ScheduleOracle oracle(pair.n, pair.lambda);
    for (std::uint64_t r = 0; r < pair.n; ++r) {
      const oracle::RankInfo info = oracle.info(r);
      EXPECT_EQ(info.parent, tree.parent(static_cast<ProcId>(r)));
      EXPECT_EQ(info.out_degree, tree.children(static_cast<ProcId>(r)).size());
    }
  }
}

TEST(OracleDifferentialTest, MakespanMatchesValidator) {
  for (const RandomPair& pair : random_pairs(31415, 20)) {
    const PostalParams params(pair.n, pair.lambda);
    const Schedule schedule = bcast_schedule(params);
    const SimReport report = validate_schedule(schedule, params);
    ASSERT_TRUE(report.ok) << report.summary();
    const oracle::ScheduleOracle oracle(pair.n, pair.lambda);
    EXPECT_EQ(oracle.makespan(), report.makespan)
        << "n=" << pair.n << " lambda=" << pair.lambda;
    const oracle::Rank witness = oracle.last_informed_rank();
    EXPECT_EQ(oracle.inform_time(witness), report.makespan);
  }
}

TEST(OracleDifferentialTest, StreamingAndMaterializedValidatorsAgree) {
  // The streaming validator accepting the oracle stream must coincide with
  // the full validator accepting the materialized schedule.
  for (const RandomPair& pair : random_pairs(999, 15)) {
    const PostalParams params(pair.n, pair.lambda);
    ASSERT_TRUE(validate_schedule(bcast_schedule(params), params).ok);
    const oracle::ScheduleOracle oracle(pair.n, pair.lambda);
    StreamingValidator streaming(oracle);
    streaming.feed(oracle.events(0, pair.n));
    const StreamReport report = streaming.finish();
    EXPECT_TRUE(report.ok) << "n=" << pair.n << " lambda=" << pair.lambda
                           << ": " << report.summary();
  }
}

TEST(OracleDifferentialTest, HugeSystemSmoke) {
  // Beyond the differential range nothing materializes; the witness gate
  // plus a streaming-validated tail chunk still certify the closed forms.
  for (const std::uint64_t n : {1000000000ull, 1000000000000ull}) {
    const oracle::ScheduleOracle oracle(n, Rational(5, 2));
    const oracle::Rank witness = oracle.last_informed_rank();
    EXPECT_EQ(oracle.inform_time(witness), oracle.makespan());
    const std::uint64_t lo = n - 1024;
    StreamingValidator streaming(oracle, lo, n);
    streaming.feed(oracle.events(lo, n));
    const StreamReport report = streaming.finish();
    EXPECT_TRUE(report.ok) << report.summary();
    EXPECT_EQ(report.events_checked, 1024u);
  }
}

/// What one descent from the range (0, n) learns about `rank`, walked with
/// GenFib::bcast_split and exact Rational time.
struct ReferenceRank {
  oracle::Rank parent = 0;
  Rational inform;
  Rational parent_send;
  std::uint64_t subtree = 0;
  std::uint64_t depth = 0;
  std::vector<oracle::Rank> children;  ///< in send order
};

ReferenceRank reference_descent(GenFib& fib, std::uint64_t n, oracle::Rank rank) {
  ReferenceRank out;
  oracle::Rank base = 0;
  std::uint64_t count = n;
  Rational now(0);
  while (base != rank) {
    const std::uint64_t j = fib.bcast_split(count);
    if (rank >= base + j) {
      out.parent = base;
      out.parent_send = now;
      base += j;
      count -= j;
      now += fib.lambda();
      out.inform = now;
      ++out.depth;
    } else {
      count = j;
      now += Rational(1);
    }
  }
  out.subtree = count;
  for (std::uint64_t remaining = count; remaining >= 2;) {
    remaining = fib.bcast_split(remaining);
    out.children.push_back(base + remaining);
  }
  return out;
}

/// True iff every per-rank answer of `oracle` for `rank` equals the
/// reference descent's; a difference is reported through gtest.
bool matches_reference(const oracle::ScheduleOracle& oracle, GenFib& fib,
                       oracle::Rank rank) {
  const ReferenceRank ref = reference_descent(fib, oracle.n(), rank);
  const oracle::RankInfo info = oracle.info(rank);
  bool ok = info.parent == ref.parent && info.inform_time == ref.inform &&
            info.parent_send == ref.parent_send && info.subtree == ref.subtree &&
            info.depth == ref.depth && info.out_degree == ref.children.size() &&
            oracle.child_at(rank, ref.children.size()) == std::nullopt;
  for (std::size_t slot = 0; ok && slot < ref.children.size(); ++slot) {
    ok = oracle.child_at(rank, slot) == ref.children[slot];
  }
  if (!ok) {
    ADD_FAILURE() << "oracle descent differs from the bcast_split chain at n="
                  << oracle.n() << " lambda=" << oracle.lambda() << " rank=" << rank
                  << ": parent " << info.parent << " vs " << ref.parent << ", inform "
                  << info.inform_time << " vs " << ref.inform << ", subtree "
                  << info.subtree << " vs " << ref.subtree << ", out-degree "
                  << info.out_degree << " vs " << ref.children.size();
  }
  return ok;
}

/// n log-uniform in [2, 10^12].
std::uint64_t random_size(Xoshiro256& rng) {
  std::uint64_t hi = 10;
  for (std::uint64_t digits = rng.uniform(1, 12); digits > 1; --digits) hi *= 10;
  return rng.uniform(2, hi);
}

TEST(OracleDifferentialTest, DescentsMatchGenFibSplitChains) {
  Xoshiro256 rng(0x5EED5u);
  for (const Rational& lambda : {Rational(1), Rational(2), Rational(5, 2), Rational(7, 3),
                                 Rational(1001, 1000), Rational(4099, 1024)}) {
    GenFib fib(lambda);
    par::GenFibCache cache;
    for (int trial = 0; trial < 8; ++trial) {
      const std::uint64_t n = trial == 0 ? 1000000000000ull : random_size(rng);
      const oracle::ScheduleOracle oracle(n, lambda, &cache);
      EXPECT_EQ(oracle.makespan(), fib.f(n)) << "n=" << n << " lambda=" << lambda;
      std::vector<oracle::Rank> ranks = {0, n - 1, oracle.last_informed_rank()};
      for (int k = 0; k < 16; ++k) ranks.push_back(rng.uniform(0, n - 1));
      for (const oracle::Rank rank : ranks) {
        if (!matches_reference(oracle, fib, rank)) break;
      }
    }
  }
}

TEST(OracleDifferentialTest, EarlierOracleIsUnchangedWhenTheTableGrows) {
  // A small-n oracle takes a short table; a later 10^12-rank oracle on the
  // same cache publishes a longer copy. The first oracle must still answer
  // every rank exactly, from the table it took.
  par::GenFibCache cache;
  const Rational lambda(1001, 1000);
  GenFib fib(lambda);
  const std::uint64_t small_n = 1000;
  const oracle::ScheduleOracle small(small_n, lambda, &cache);
  const par::GenFibCache::Stats before = cache.stats();
  const oracle::ScheduleOracle large(1000000000000ull, lambda, &cache);
  EXPECT_EQ(cache.stats().table_grows, before.table_grows + 1);
  EXPECT_EQ(small.makespan(), fib.f(small_n));
  EXPECT_EQ(large.makespan(), fib.f(large.n()));
  for (oracle::Rank rank = 0; rank < small_n; ++rank) {
    if (!matches_reference(small, fib, rank)) break;
  }
  EXPECT_TRUE(matches_reference(large, fib, large.last_informed_rank()));
  EXPECT_TRUE(matches_reference(large, fib, large.n() - 1));
}

TEST(OracleDifferentialTest, OracleServesQueriesWhileOtherThreadsGrowTheTable) {
  // One thread queries a shared oracle while three others construct
  // oracles of growing n on the same cache, each growth publishing a new
  // table. The reader must see the answers of its own, unchanged table.
  par::GenFibCache cache;
  const Rational lambda(1001, 1000);
  const std::uint64_t n = 100000;
  const oracle::ScheduleOracle shared(n, lambda, &cache);

  GenFib fib(lambda);
  Xoshiro256 rng(0x7AB1Eu);
  std::vector<oracle::Rank> ranks;
  std::vector<ReferenceRank> expect;
  for (int k = 0; k < 32; ++k) {
    ranks.push_back(rng.uniform(0, n - 1));
    expect.push_back(reference_descent(fib, n, ranks.back()));
  }
  const Rational shared_makespan = fib.f(n);
  std::vector<std::uint64_t> sizes;
  std::vector<Rational> makespans;
  for (std::uint64_t size = 2 * n; size <= 1000000000000ull; size = size * 3 / 2) {
    sizes.push_back(size);
    makespans.push_back(fib.f(size));
  }

  constexpr std::size_t kBuilders = 3;
  std::atomic<std::size_t> built{0};
  std::atomic<int> reader_failures{0};
  std::atomic<int> builder_failures{0};
  // Thread bodies count failures (exceptions included) for the main
  // thread to assert on.
  std::thread reader([&] {
    do {
      try {
        for (std::size_t k = 0; k < ranks.size(); ++k) {
          const oracle::RankInfo info = shared.info(ranks[k]);
          const bool ok = info.parent == expect[k].parent &&
                          info.inform_time == expect[k].inform &&
                          info.subtree == expect[k].subtree &&
                          info.out_degree == expect[k].children.size();
          if (!ok) reader_failures.fetch_add(1);
        }
        if (shared.makespan() != shared_makespan) reader_failures.fetch_add(1);
      } catch (...) {
        reader_failures.fetch_add(1);
      }
    } while (built.load() < kBuilders);
  });
  std::vector<std::thread> builders;
  for (std::size_t t = 0; t < kBuilders; ++t) {
    builders.emplace_back([&, t] {
      for (std::size_t i = t; i < sizes.size(); i += kBuilders) {
        try {
          const oracle::ScheduleOracle grown(sizes[i], lambda, &cache);
          if (grown.makespan() != makespans[i] ||
              grown.inform_time(grown.last_informed_rank()) != makespans[i]) {
            builder_failures.fetch_add(1);
          }
        } catch (...) {
          builder_failures.fetch_add(1);
        }
      }
      built.fetch_add(1);
    });
  }
  for (std::thread& b : builders) b.join();
  reader.join();
  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_EQ(builder_failures.load(), 0);
  EXPECT_GT(cache.stats().table_grows, 1u);
}

const std::vector<Rational>& inverse_lambdas() {
  static const std::vector<Rational> lambdas = {
      Rational(1),    Rational(2),          Rational(5, 2),       Rational(7, 3),
      Rational(100),  Rational(1001, 1000), Rational(4099, 1024)};
  return lambdas;
}

/// Queries for the f_lambda inverse: every m <= 2^16, every power of two
/// and its neighbours, and the values just below the saturation cap.
std::vector<std::uint64_t> inverse_queries() {
  std::vector<std::uint64_t> out;
  for (std::uint64_t m = 1; m <= (std::uint64_t{1} << 16); ++m) out.push_back(m);
  for (unsigned b = 1; b < 64; ++b) {
    const std::uint64_t p = std::uint64_t{1} << b;
    for (const std::uint64_t m : {p - 1, p, p + 1}) out.push_back(m);
  }
  for (std::uint64_t d = 1; d <= 4; ++d) out.push_back(kSaturated - d);
  return out;
}

/// Counts queries m (1 <= m <= last value, m < kSaturated) where `got(m)`
/// differs from std::lower_bound over `values`, reporting the first few.
template <class Got>
int inverse_mismatches(const std::vector<std::uint64_t>& values,
                       const std::vector<std::uint64_t>& queries, Got&& got,
                       const Rational& lambda) {
  int bad = 0;
  for (const std::uint64_t m : queries) {
    if (m == 0 || m >= kSaturated || m > values.back()) continue;
    const auto expect = static_cast<std::int64_t>(
        std::lower_bound(values.begin(), values.end(), m) - values.begin());
    const std::int64_t actual = got(m);
    if (actual != expect && ++bad <= 5) {
      ADD_FAILURE() << "lambda=" << lambda << " m=" << m << ": bucketed " << actual
                    << ", lower_bound " << expect;
    }
  }
  return bad;
}

/// Every table value and its two neighbours.
std::vector<std::uint64_t> value_queries(const std::vector<std::uint64_t>& values) {
  std::vector<std::uint64_t> out;
  for (const std::uint64_t v : values) {
    for (const std::uint64_t m : {v - 1, v, v + 1}) out.push_back(m);
  }
  return out;
}

TEST(FInverseDifferentialTest, GenFibBucketsMatchLowerBoundAsTheMemoGrows) {
  const std::vector<std::uint64_t> queries = inverse_queries();
  for (const Rational& lambda : inverse_lambdas()) {
    GenFib fib(lambda);
    // Ascending queries grow the memo step by step; each is checked on the
    // memo as it stands right after its own growth.
    int bad = 0;
    for (const std::uint64_t m : queries) {
      const std::int64_t got = fib.f_index(m);
      bad += inverse_mismatches(fib.grid_values(), {m},
                                [got](std::uint64_t) { return got; }, lambda);
    }
    // The memo now reaches saturation: re-check every query, and every
    // table value +- 1, on the grown table.
    const std::vector<std::uint64_t> values = fib.grid_values();
    EXPECT_EQ(values.back(), kSaturated) << "lambda=" << lambda;
    auto f_index = [&fib](std::uint64_t m) { return fib.f_index(m); };
    bad += inverse_mismatches(values, queries, f_index, lambda);
    bad += inverse_mismatches(values, value_queries(values), f_index, lambda);
    EXPECT_EQ(bad, 0) << "lambda=" << lambda;
  }
}

TEST(FInverseDifferentialTest, CacheTableBucketsMatchLowerBoundAfterCopyOnGrow) {
  const std::vector<std::uint64_t> queries = inverse_queries();
  for (const Rational& lambda : inverse_lambdas()) {
    par::GenFibCache cache;
    const auto small = cache.F_table(lambda, 1000);
    const auto grown = cache.F_table(lambda, kSaturated - 1);
    EXPECT_EQ(cache.stats().table_grows, 2u) << "lambda=" << lambda;
    for (const auto& table : {small, grown}) {
      const std::vector<std::uint64_t> values(table->begin(), table->end());
      auto f_index = [&table](std::uint64_t m) { return table->f_index(m); };
      int bad = inverse_mismatches(values, queries, f_index, lambda);
      bad += inverse_mismatches(values, value_queries(values), f_index, lambda);
      EXPECT_EQ(bad, 0) << "lambda=" << lambda << " table size " << values.size();
    }
  }
}

/// True iff `frame` is what locate() -- through the oracle's point queries
/// -- says about `rank`: parent, inform tick, send tick and slot.
bool frame_matches_locate(const oracle::ScheduleOracle& oracle, const RankFrame& frame,
                          oracle::Rank rank) {
  const std::int64_t q = oracle.lambda().den();
  const oracle::RankInfo info = oracle.info(rank);
  const bool ok = frame.rank == rank && frame.parent == info.parent &&
                  Rational(frame.inform, q) == info.inform_time &&
                  Rational(frame.send, q) == info.parent_send &&
                  Rational(frame.parent_inform, q) == oracle.inform_time(info.parent) &&
                  frame.send == frame.parent_inform + static_cast<Tick>(frame.slot) * q &&
                  oracle.child_at(info.parent, frame.slot) == rank;
  if (!ok) {
    ADD_FAILURE() << "walk frame differs from locate() at n=" << oracle.n()
                  << " lambda=" << oracle.lambda() << " rank=" << rank << ": parent "
                  << frame.parent << " vs " << info.parent << ", inform "
                  << Rational(frame.inform, q) << " vs " << info.inform_time
                  << ", send " << Rational(frame.send, q) << " vs "
                  << info.parent_send << ", slot " << frame.slot;
  }
  return ok;
}

/// Walks [lo, hi) with one seek and hi - lo - 1 next() calls; false at the
/// first frame that differs from locate().
bool walk_matches_locate(const oracle::ScheduleOracle& oracle, oracle::Rank lo,
                         oracle::Rank hi) {
  const std::unique_ptr<RankCursor> walk = oracle.rank_cursor();
  const RankFrame* frame = &walk->seek(lo);
  for (oracle::Rank r = lo;; frame = &walk->next()) {
    if (!frame_matches_locate(oracle, *frame, r)) return false;
    if (++r == hi) return true;
  }
}

TEST(RankWalkDifferentialTest, WalkMatchesLocateRankByRank) {
  Xoshiro256 rng(0xC0450Eu);
  for (const Rational& lambda : inverse_lambdas()) {
    // Every rank of small systems.
    for (const std::uint64_t n : {2ull, 3ull, 14ull, 64ull, 257ull}) {
      const oracle::ScheduleOracle oracle(n, lambda);
      EXPECT_TRUE(walk_matches_locate(oracle, 1, n)) << "n=" << n;
    }
    // Seeded ranges of seeded sizes up to 10^12, plus the head, the tail
    // and the last-informed rank of a 10^12-rank system.
    for (int trial = 0; trial < 6; ++trial) {
      const std::uint64_t n = random_size(rng);
      const oracle::ScheduleOracle oracle(n, lambda);
      const std::uint64_t lo = rng.uniform(1, n - 1);
      const std::uint64_t hi = std::min<std::uint64_t>(n, lo + rng.uniform(1, 600));
      EXPECT_TRUE(walk_matches_locate(oracle, lo, hi)) << "n=" << n << " lo=" << lo;
    }
    const std::uint64_t huge = 1000000000000ull;
    const oracle::ScheduleOracle oracle(huge, lambda);
    const oracle::Rank witness = oracle.last_informed_rank();
    EXPECT_TRUE(walk_matches_locate(oracle, 1, 400));
    EXPECT_TRUE(walk_matches_locate(oracle, huge - 400, huge));
    EXPECT_TRUE(walk_matches_locate(oracle, witness > 200 ? witness - 200 : 1,
                                    std::min(huge, witness + 200)));
  }
}

TEST(RankWalkDifferentialTest, WalkStopsAtTheLastRank) {
  const oracle::ScheduleOracle oracle(14, Rational(5, 2));
  const std::unique_ptr<RankCursor> walk = oracle.rank_cursor();
  EXPECT_EQ(walk->seek(13).rank, 13u);
  EXPECT_THROW((void)walk->next(), InvalidArgument);
  EXPECT_THROW((void)walk->seek(14), InvalidArgument);
}

}  // namespace
}  // namespace postal
