#include "brute/optimal_search.hpp"

#include <algorithm>
#include <queue>
#include <vector>

#include "support/error.hpp"
#include "support/ticks.hpp"

namespace postal {

namespace {

// Both routes run on int64 ticks at resolution 1/q (lambda = p/q): every
// T(k) is a multiple of 1/q, and tick <-> Rational is an order-preserving
// bijection on those multiples, so min/max decisions are exact. Every
// value either route produces is bounded by count * (lambda + 1), i.e.
// count * (lambda_ticks + q) ticks, because each of the at most `count`
// steps adds 1 or lambda; only runs whose bound stays far inside int64
// proceed (checked in 128-bit arithmetic), so the inner loops use raw adds
// -- no per-operation checks, no UB. Otherwise OverflowError names `site`.
Tick lambda_ticks_checked(std::uint64_t count, const Rational& lambda,
                          const char* site) {
  const Tick lambda_ticks = lambda.num();  // lambda = num / den, q = den
  __extension__ using int128 = __int128;
  const int128 bound = (static_cast<int128>(count) + 2) *
                       (static_cast<int128>(lambda_ticks) + lambda.den());
  if (bound >= (int128{1} << 62)) {
    throw_grid_overflow(site, "tick bound for n * lambda exceeds int64");
  }
  return lambda_ticks;
}

// First split: the holder keeps j processors (continuing one unit later),
// the recipient takes k - j (starting lambda later). Scan all j.
std::vector<Rational> dp_table_ticks(std::uint64_t n_max, const TickDomain& dom,
                                     Tick lambda_ticks) {
  const Tick one = dom.q();
  std::vector<Tick> T(n_max + 1, 0);
  for (std::uint64_t k = 2; k <= n_max; ++k) {
    Tick best = std::max(one + T[k - 1], lambda_ticks + T[1]);
    for (std::uint64_t j = 1; j + 1 <= k - 1; ++j) {
      const Tick cand = std::max(one + T[j], lambda_ticks + T[k - j]);
      best = std::min(best, cand);
    }
    T[k] = best;
  }
  std::vector<Rational> out(n_max + 1, Rational(0));
  for (std::uint64_t k = 2; k <= n_max; ++k) {
    out[k] = dom.to_rational(T[k]);
  }
  return out;
}

}  // namespace

std::vector<Rational> optimal_broadcast_dp_table(std::uint64_t n_max,
                                                 const Rational& lambda) {
  POSTAL_REQUIRE(n_max >= 1, "optimal_broadcast_dp_table: n_max must be >= 1");
  POSTAL_REQUIRE(lambda >= Rational(1),
                 "optimal_broadcast_dp_table: lambda must be >= 1");
  const Tick lambda_ticks =
      lambda_ticks_checked(n_max, lambda, "optimal_broadcast_dp_table");
  return dp_table_ticks(n_max, TickDomain(lambda.den()), lambda_ticks);
}

Rational optimal_broadcast_dp(std::uint64_t n, const Rational& lambda) {
  POSTAL_REQUIRE(n >= 1, "optimal_broadcast_dp: n must be >= 1");
  POSTAL_REQUIRE(lambda >= Rational(1), "optimal_broadcast_dp: lambda must be >= 1");
  return optimal_broadcast_dp_table(n, lambda)[n];
}

namespace {

// Heap of candidate inform times. Popping a candidate materializes the next
// sibling (same sender, one unit later) and the new processor's own first
// child (lambda after it is informed). Heap order among *equal* keys is
// unspecified, but only the popped values feed the result.
Rational greedy_ticks(std::uint64_t n, const TickDomain& dom, Tick lambda_ticks) {
  const Tick one = dom.q();
  std::priority_queue<Tick, std::vector<Tick>, std::greater<>> heap;
  heap.push(lambda_ticks);  // p_0's first recipient is informed at lambda
  std::uint64_t informed = 1;
  Tick last = 0;
  while (informed < n) {
    POSTAL_CHECK(!heap.empty());
    const Tick t = heap.top();
    heap.pop();
    ++informed;
    last = t;
    heap.push(t + one);           // sender's next send, one unit later
    heap.push(t + lambda_ticks);  // new processor's first own recipient
  }
  return dom.to_rational(last);
}

}  // namespace

Rational optimal_broadcast_greedy(std::uint64_t n, const Rational& lambda) {
  POSTAL_REQUIRE(n >= 1, "optimal_broadcast_greedy: n must be >= 1");
  POSTAL_REQUIRE(lambda >= Rational(1), "optimal_broadcast_greedy: lambda must be >= 1");
  if (n == 1) return Rational(0);
  const Tick lambda_ticks = lambda_ticks_checked(n, lambda, "optimal_broadcast_greedy");
  return greedy_ticks(n, TickDomain(lambda.den()), lambda_ticks);
}

}  // namespace postal
