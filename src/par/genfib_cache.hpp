// Sharded, thread-safe memo cache for the generalized Fibonacci machinery.
//
// GenFib (model/genfib.hpp) is deliberately thread-compatible, not
// thread-safe: every evaluation may extend its internal memo table. The
// sweeps fixed that historically by constructing a fresh GenFib per grid
// point, recomputing the same F_lambda table over and over. GenFibCache
// keeps exactly one GenFib per *exact* Rational lambda -- keys are the
// reduced p/q pair, so lambda = 5/2 and lambda = 2.5 share one table while
// 5/2 and 3/2 never collide -- plus a per-lambda memo of finished f(n)
// answers, plus an immutable snapshot of the F_lambda grid table for
// readers that want to search it without any lock (the schedule oracle).
//
// Concurrency: the lambda -> entry map is sharded by hash(lambda), each
// shard behind its own mutex, so lookups for different lambdas rarely
// contend; evaluation itself holds the entry's own mutex (one writer per
// F_lambda table at a time). Values are bit-identical to a fresh GenFib by
// construction -- the cache only ever *reuses* tables, never approximates.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "model/genfib.hpp"
#include "support/rational.hpp"

#include <atomic>

namespace postal::par {

/// Process-wide (or locally owned) cache of GenFib tables and f(n) answers.
class GenFibCache {
 public:
  static constexpr std::size_t kDefaultShards = 16;

  explicit GenFibCache(std::size_t shards = kDefaultShards);

  /// f_lambda(n), memoized per (lambda, n). Same contract as GenFib::f.
  [[nodiscard]] Rational f(const Rational& lambda, std::uint64_t n);

  /// F_lambda(t). Same contract as GenFib::F (the grid memo is shared).
  [[nodiscard]] std::uint64_t F(const Rational& lambda, const Rational& t);

  /// F_lambda on its grid, frozen: data()[k] = F_lambda(k/q), with the
  /// buckets of its index function, built once when it is published.
  class FTable {
   public:
    explicit FTable(std::vector<std::uint64_t> values);

    [[nodiscard]] const std::uint64_t* data() const noexcept { return values_.data(); }
    [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
    [[nodiscard]] std::uint64_t back() const { return values_.back(); }
    [[nodiscard]] auto begin() const noexcept { return values_.begin(); }
    [[nodiscard]] auto end() const noexcept { return values_.end(); }

    /// f_lambda(m) as a grid index: the first k with data()[k] >= m, for
    /// 1 <= m <= back(). Same answer as a lower_bound, in O(1) expected.
    [[nodiscard]] std::int64_t f_index(std::uint64_t m) const noexcept {
      return static_cast<std::int64_t>(buckets_.lower_bound(data(), size(), m));
    }

   private:
    std::vector<std::uint64_t> values_;
    FIndexBuckets buckets_;
  };

  /// A shared, immutable F_lambda grid table that covers f_lambda(n): its
  /// last value is >= n, so f_index(m) for every m <= n is answered by
  /// its buckets and the BCAST split j(m) = F_lambda(f_lambda(m) - 1) is
  /// an index into it. One table per lambda is shared by every caller. It is
  /// published copy-on-grow: a request for a larger n publishes a new,
  /// longer copy and never touches a table an earlier caller still reads,
  /// so holders search theirs with no lock. Same contract as GenFib::f_index
  /// for n (throws InvalidArgument for n == 0 or n >= kSaturated).
  [[nodiscard]] std::shared_ptr<const FTable> F_table(const Rational& lambda,
                                                      std::uint64_t n);

  /// Cache effectiveness counters (monotone since construction/clear).
  struct Stats {
    std::uint64_t f_hits = 0;    ///< f() answered from the per-lambda memo
    std::uint64_t f_misses = 0;  ///< f() computed (and then memoized)
    std::uint64_t table_hits = 0;   ///< F_table() served a published table
    std::uint64_t table_grows = 0;  ///< F_table() published a longer copy
    std::uint64_t tables = 0;    ///< distinct lambda tables materialized
  };
  [[nodiscard]] Stats stats() const noexcept;

  /// Drop every table, memo, and counter.
  void clear();

  /// The process-wide instance used when callers pass no cache explicitly.
  [[nodiscard]] static GenFibCache& global();

 private:
  struct Entry {
    explicit Entry(const Rational& lambda) : fib(lambda) {}
    std::mutex mu;
    GenFib fib;                                      // guarded by mu
    std::unordered_map<std::uint64_t, Rational> f_memo;  // guarded by mu
    std::shared_ptr<const FTable> table;  // guarded by the shard's mu
  };
  struct Shard {
    std::mutex mu;
    std::unordered_map<Rational, std::shared_ptr<Entry>> entries;
  };

  [[nodiscard]] Shard& shard(const Rational& lambda);
  /// The entry for `lambda`, created if absent. Caller holds s.mu.
  [[nodiscard]] std::shared_ptr<Entry>& entry_locked(Shard& s, const Rational& lambda);
  [[nodiscard]] std::shared_ptr<Entry> entry(const Rational& lambda);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> f_hits_{0};
  std::atomic<std::uint64_t> f_misses_{0};
  std::atomic<std::uint64_t> table_hits_{0};
  std::atomic<std::uint64_t> table_grows_{0};
  std::atomic<std::uint64_t> tables_{0};
};

}  // namespace postal::par
