#include "par/genfib_cache.hpp"

#include <utility>

#include "support/error.hpp"

namespace postal::par {

GenFibCache::FTable::FTable(std::vector<std::uint64_t> values)
    : values_(std::move(values)) {
  for (std::size_t k = 0; k < values_.size(); ++k) buckets_.note(k, values_[k]);
}

GenFibCache::GenFibCache(std::size_t shards) {
  POSTAL_REQUIRE(shards >= 1, "GenFibCache: shards must be >= 1");
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

GenFibCache::Shard& GenFibCache::shard(const Rational& lambda) {
  return *shards_[std::hash<Rational>{}(lambda) % shards_.size()];
}

std::shared_ptr<GenFibCache::Entry>& GenFibCache::entry_locked(Shard& s,
                                                               const Rational& lambda) {
  auto it = s.entries.find(lambda);
  if (it != s.entries.end()) return it->second;
  // Constructing GenFib validates lambda >= 1 and seeds the [0, lambda)
  // prefix; it is cheap enough to do under the shard lock.
  auto fresh = std::make_shared<Entry>(lambda);
  tables_.fetch_add(1, std::memory_order_relaxed);
  return s.entries.emplace(lambda, std::move(fresh)).first->second;
}

std::shared_ptr<GenFibCache::Entry> GenFibCache::entry(const Rational& lambda) {
  Shard& s = shard(lambda);
  const std::lock_guard<std::mutex> lock(s.mu);
  return entry_locked(s, lambda);
}

Rational GenFibCache::f(const Rational& lambda, std::uint64_t n) {
  const std::shared_ptr<Entry> e = entry(lambda);
  const std::lock_guard<std::mutex> lock(e->mu);
  auto it = e->f_memo.find(n);
  if (it != e->f_memo.end()) {
    f_hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  f_misses_.fetch_add(1, std::memory_order_relaxed);
  const Rational value = e->fib.f(n);
  e->f_memo.emplace(n, value);
  return value;
}

std::uint64_t GenFibCache::F(const Rational& lambda, const Rational& t) {
  const std::shared_ptr<Entry> e = entry(lambda);
  const std::lock_guard<std::mutex> lock(e->mu);
  return e->fib.F(t);
}

std::shared_ptr<const GenFibCache::FTable> GenFibCache::F_table(const Rational& lambda,
                                                                std::uint64_t n) {
  POSTAL_REQUIRE(n >= 1 && n < kSaturated,
                 "GenFibCache::F_table: n must be in [1, kSaturated)");
  Shard& s = shard(lambda);
  std::shared_ptr<Entry> e;
  {
    const std::lock_guard<std::mutex> lock(s.mu);
    const std::shared_ptr<Entry>& slot = entry_locked(s, lambda);
    if (slot->table != nullptr && slot->table->back() >= n) {
      table_hits_.fetch_add(1, std::memory_order_relaxed);
      return slot->table;
    }
    e = slot;
  }
  // Grow: extend the GenFib memo past f_lambda(n) and freeze a copy of it.
  // Readers of the previously published table keep their own copy.
  std::shared_ptr<const FTable> grown;
  {
    const std::lock_guard<std::mutex> lock(e->mu);
    (void)e->fib.f_index(n);
    grown = std::make_shared<const FTable>(e->fib.grid_values());
  }
  const std::lock_guard<std::mutex> lock(s.mu);
  // A racing grower may have published a longer table meanwhile; both are
  // prefixes of the same F_lambda, so the longer one covers n as well.
  if (e->table == nullptr || e->table->size() < grown->size()) {
    e->table = std::move(grown);
    table_grows_.fetch_add(1, std::memory_order_relaxed);
  }
  return e->table;
}

GenFibCache::Stats GenFibCache::stats() const noexcept {
  Stats out;
  out.f_hits = f_hits_.load(std::memory_order_relaxed);
  out.f_misses = f_misses_.load(std::memory_order_relaxed);
  out.table_hits = table_hits_.load(std::memory_order_relaxed);
  out.table_grows = table_grows_.load(std::memory_order_relaxed);
  out.tables = tables_.load(std::memory_order_relaxed);
  return out;
}

void GenFibCache::clear() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    shard->entries.clear();
  }
  f_hits_.store(0, std::memory_order_relaxed);
  f_misses_.store(0, std::memory_order_relaxed);
  table_hits_.store(0, std::memory_order_relaxed);
  table_grows_.store(0, std::memory_order_relaxed);
  tables_.store(0, std::memory_order_relaxed);
}

GenFibCache& GenFibCache::global() {
  static GenFibCache instance;
  return instance;
}

}  // namespace postal::par
