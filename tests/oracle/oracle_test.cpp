// Unit tests for the implicit schedule oracle (src/oracle, docs/ORACLE.md):
// hand-checked answers on the paper's Figure 1 instance, agreement with the
// materialized BroadcastTree on small systems, the lazy children generator,
// send-slot arithmetic, the last-informed witness, edge cases (n = 1, the
// origin, out-of-range ranks), and the O(1)-memory claim's teeth: per-rank
// queries at n = 10^12 where no event list could exist.
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "model/genfib.hpp"
#include "oracle/oracle.hpp"
#include "par/genfib_cache.hpp"
#include "sched/broadcast_tree.hpp"
#include "support/error.hpp"

namespace postal {
namespace {

TEST(OracleTest, Figure1MakespanAndWitness) {
  const oracle::ScheduleOracle oracle(14, Rational(5, 2));
  EXPECT_EQ(oracle.makespan(), Rational(15, 2));
  const oracle::Rank witness = oracle.last_informed_rank();
  EXPECT_EQ(oracle.inform_time(witness), Rational(15, 2));
}

TEST(OracleTest, OriginInfo) {
  const oracle::ScheduleOracle oracle(14, Rational(5, 2));
  const oracle::RankInfo info = oracle.info(0);
  EXPECT_EQ(info.rank, 0u);
  EXPECT_EQ(info.parent, 0u);  // the origin is its own parent
  EXPECT_EQ(info.inform_time, Rational(0));
  EXPECT_EQ(info.depth, 0u);
  EXPECT_EQ(info.subtree, 14u);
  EXPECT_GE(info.out_degree, 1u);
}

TEST(OracleTest, MatchesBroadcastTreeOnSmallSystems) {
  for (const auto& [n, lambda] :
       std::vector<std::pair<std::uint64_t, Rational>>{{14, Rational(5, 2)},
                                                       {64, Rational(1)},
                                                       {37, Rational(7, 3)},
                                                       {100, Rational(4)}}) {
    const oracle::ScheduleOracle oracle(n, lambda);
    const BroadcastTree tree = BroadcastTree::fibonacci(n, lambda);
    EXPECT_EQ(oracle.makespan(), tree.completion_time(lambda));
    for (std::uint64_t r = 0; r < n; ++r) {
      const oracle::RankInfo info = oracle.info(r);
      EXPECT_EQ(info.parent, tree.parent(static_cast<ProcId>(r)))
          << "parent mismatch at rank " << r << ", n=" << n;
      EXPECT_EQ(info.out_degree, tree.children(static_cast<ProcId>(r)).size())
          << "out-degree mismatch at rank " << r << ", n=" << n;
      // The children generator yields the tree's child list in send order.
      std::vector<std::uint64_t> kids;
      for (const oracle::Child& c : oracle.children(r)) kids.push_back(c.rank);
      const std::vector<ProcId>& expect = tree.children(static_cast<ProcId>(r));
      ASSERT_EQ(kids.size(), expect.size());
      for (std::size_t i = 0; i < kids.size(); ++i) {
        EXPECT_EQ(kids[i], static_cast<std::uint64_t>(expect[i]));
      }
    }
  }
}

TEST(OracleTest, SendSlotsAreConsecutiveUnits) {
  const oracle::ScheduleOracle oracle(64, Rational(5, 2));
  for (std::uint64_t r : {0ull, 1ull, 5ull, 33ull}) {
    const oracle::RankInfo info = oracle.info(r);
    for (std::uint64_t k = 0; k < info.out_degree; ++k) {
      EXPECT_EQ(oracle.send_slot(r, k),
                info.inform_time + Rational(static_cast<std::int64_t>(k)));
    }
    EXPECT_THROW((void)oracle.send_slot(r, info.out_degree), InvalidArgument);
    EXPECT_EQ(oracle.child_at(r, info.out_degree), std::nullopt);
  }
}

TEST(OracleTest, ChildAtAgreesWithGenerator) {
  const oracle::ScheduleOracle oracle(100, Rational(3));
  std::uint64_t slot = 0;
  for (const oracle::Child& c : oracle.children(0)) {
    const std::optional<oracle::Rank> got = oracle.child_at(0, slot);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, c.rank);
    EXPECT_EQ(oracle.send_slot(0, slot), c.send_time);
    ++slot;
  }
  EXPECT_EQ(slot, oracle.out_degree(0));
}

TEST(OracleTest, SingleProcessor) {
  const oracle::ScheduleOracle oracle(1, Rational(2));
  EXPECT_EQ(oracle.makespan(), Rational(0));
  EXPECT_EQ(oracle.last_informed_rank(), 0u);
  EXPECT_EQ(oracle.out_degree(0), 0u);
  EXPECT_EQ(oracle.children(0).begin(), oracle.children(0).end());
  EXPECT_TRUE(oracle.events(0, 1).empty());
}

TEST(OracleTest, OutOfRangeRankThrows) {
  const oracle::ScheduleOracle oracle(14, Rational(5, 2));
  EXPECT_THROW((void)oracle.inform_time(14), InvalidArgument);
  EXPECT_THROW((void)oracle.parent(99), InvalidArgument);
  EXPECT_THROW((void)oracle.events(3, 2), InvalidArgument);
  EXPECT_THROW((void)oracle.events(0, 15), InvalidArgument);
}

TEST(OracleTest, InvalidParamsThrow) {
  EXPECT_THROW(oracle::ScheduleOracle(0, Rational(2)), InvalidArgument);
  EXPECT_THROW(oracle::ScheduleOracle(4, Rational(1, 2)), InvalidArgument);
}

TEST(OracleTest, HugeSystemQueriesStayExact) {
  // n = 10^12: the materialized path would need ~10^13 bytes; the oracle
  // answers per-rank queries by descent. GenFib cross-checks the makespan.
  const std::uint64_t n = 1000000000000ull;
  for (const Rational& lambda : {Rational(1), Rational(5, 2), Rational(4)}) {
    const oracle::ScheduleOracle oracle(n, lambda);
    GenFib fib(lambda);
    EXPECT_EQ(oracle.makespan(), fib.f(n));
    const oracle::Rank witness = oracle.last_informed_rank();
    EXPECT_EQ(oracle.inform_time(witness), oracle.makespan());
    // Parent/child round-trip at an arbitrary deep rank.
    const oracle::Rank r = n - 1;
    const oracle::RankInfo info = oracle.info(r);
    bool found = false;
    std::uint64_t slot = 0;
    for (const oracle::Child& c : oracle.children(info.parent)) {
      if (c.rank == r) {
        EXPECT_EQ(c.send_time, info.parent_send);
        EXPECT_EQ(oracle.child_at(info.parent, slot), r);
        found = true;
        break;
      }
      ++slot;
    }
    EXPECT_TRUE(found) << "rank " << r << " missing from its parent's children";
  }
}

TEST(OracleTest, SubtreeSizesPartitionTheRange) {
  // The split recursion hands disjoint contiguous ranges to children; the
  // subtree sizes of rank 0's children plus itself must sum to n.
  const std::uint64_t n = 987654321ull;
  const oracle::ScheduleOracle oracle(n, Rational(5, 2));
  std::uint64_t total = 1;  // rank 0 itself
  for (const oracle::Child& c : oracle.children(0)) total += c.subtree;
  EXPECT_EQ(total, n);
}

TEST(OracleTest, QueriesMakeNoCacheAccessAfterConstruction) {
  par::GenFibCache cache;
  const oracle::ScheduleOracle oracle(100000, Rational(5, 2), &cache);
  const par::GenFibCache::Stats built = cache.stats();
  // Construction takes lambda's F table: the oracle's one cache access.
  EXPECT_EQ(built.table_hits + built.table_grows, 1u);
  (void)oracle.info(99999);
  (void)oracle.child_at(0, 3);
  (void)oracle.events(1, 1000);
  (void)oracle.makespan();
  (void)oracle.last_informed_rank();
  for (const oracle::Child& c : oracle.children(0)) (void)c;
  const par::GenFibCache::Stats after = cache.stats();
  EXPECT_EQ(after.f_hits, built.f_hits);
  EXPECT_EQ(after.f_misses, built.f_misses);
  EXPECT_EQ(after.table_hits, built.table_hits);
  EXPECT_EQ(after.table_grows, built.table_grows);
  EXPECT_EQ(after.tables, built.tables);
}

}  // namespace
}  // namespace postal
