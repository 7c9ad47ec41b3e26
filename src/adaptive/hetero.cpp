#include "adaptive/hetero.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "sched/bcast.hpp"
#include "support/prng.hpp"
#include "support/ticks.hpp"

namespace postal {

HeteroLatency::HeteroLatency(std::uint64_t n, std::vector<Rational> matrix)
    : n_(n), matrix_(std::move(matrix)) {
  POSTAL_REQUIRE(n_ >= 1, "HeteroLatency: need at least one processor");
  POSTAL_REQUIRE(matrix_.size() == n_ * n_,
                 "HeteroLatency: matrix must be n x n (row-major)");
  for (std::uint64_t a = 0; a < n_; ++a) {
    for (std::uint64_t b = 0; b < n_; ++b) {
      if (a == b) continue;
      POSTAL_REQUIRE(matrix_[a * n_ + b] >= Rational(1),
                     "HeteroLatency: off-diagonal latencies must be >= 1");
    }
  }
}

HeteroLatency HeteroLatency::uniform(std::uint64_t n, const Rational& lambda) {
  return HeteroLatency(n, std::vector<Rational>(n * n, lambda));
}

HeteroLatency HeteroLatency::two_level(std::uint64_t n, std::uint64_t cluster,
                                       const Rational& intra, const Rational& inter) {
  POSTAL_REQUIRE(cluster >= 1, "HeteroLatency::two_level: cluster size must be >= 1");
  std::vector<Rational> matrix(n * n, intra);
  for (std::uint64_t a = 0; a < n; ++a) {
    for (std::uint64_t b = 0; b < n; ++b) {
      if (a / cluster != b / cluster) matrix[a * n + b] = inter;
    }
  }
  return HeteroLatency(n, std::move(matrix));
}

HeteroLatency HeteroLatency::random(std::uint64_t n, const Rational& lo,
                                    const Rational& hi, std::uint64_t seed) {
  POSTAL_REQUIRE(Rational(1) <= lo && lo <= hi,
                 "HeteroLatency::random: need 1 <= lo <= hi");
  // Quarter-grid values in [lo, hi], symmetric.
  const std::int64_t steps = ((hi - lo) * Rational(4)).floor();
  Xoshiro256 rng(seed);
  std::vector<Rational> matrix(n * n, lo);
  for (std::uint64_t a = 0; a < n; ++a) {
    for (std::uint64_t b = a + 1; b < n; ++b) {
      const auto k = static_cast<std::int64_t>(
          rng.uniform(0, static_cast<std::uint64_t>(steps)));
      const Rational value = lo + Rational(k, 4);
      matrix[a * n + b] = value;
      matrix[b * n + a] = value;
    }
  }
  return HeteroLatency(n, std::move(matrix));
}

const Rational& HeteroLatency::lambda(ProcId a, ProcId b) const {
  POSTAL_REQUIRE(a < n_ && b < n_, "HeteroLatency::lambda: id out of range");
  POSTAL_REQUIRE(a != b, "HeteroLatency::lambda: no self-latency");
  return matrix_[a * n_ + b];
}

Rational HeteroLatency::max_lambda() const {
  Rational best(1);
  for (std::uint64_t a = 0; a < n_; ++a) {
    for (std::uint64_t b = 0; b < n_; ++b) {
      if (a != b) best = rmax(best, matrix_[a * n_ + b]);
    }
  }
  return best;
}

HeteroSimReport simulate_hetero(const Schedule& schedule, const HeteroLatency& lat) {
  ModelSpec spec;
  spec.n = lat.n();
  spec.matrix = lat.matrix();
  spec.site = "simulate_hetero";
  return check_model(schedule, spec,
                     {"sender not informed yet", "send-port conflict",
                      "receive-port conflict"});
}

Schedule hetero_greedy_broadcast(const HeteroLatency& lat) {
  constexpr const char* kSite = "hetero_greedy_broadcast";
  const std::uint64_t n = lat.n();
  Schedule schedule;
  if (n == 1) return schedule;

  // The scan runs on the matrix's common grid 1/q: every latency, and so
  // every send and arrival time the planner forms, is a whole number of
  // ticks, and comparing ticks is comparing the exact times.
  const std::vector<Rational>& matrix = lat.matrix();
  std::int64_t q = 1;
  for (std::uint64_t a = 0; a < n; ++a) {
    for (std::uint64_t b = 0; b < n; ++b) {
      const Rational& l = matrix[a * n + b];
      if (a != b && q % l.den() != 0) q = fold_grid(q, l, kSite);
    }
  }
  const TickDomain dom(q);
  std::vector<Tick> latency(n * n, 0);  // diagonal unused
  Tick max_latency = 0;
  for (std::uint64_t a = 0; a < n; ++a) {
    for (std::uint64_t b = 0; b < n; ++b) {
      if (a == b) continue;
      latency[a * n + b] = grid_ticks(dom, matrix[a * n + b], kSite);
      max_latency = std::max(max_latency, latency[a * n + b]);
    }
  }
  // Each of the n - 1 steps moves the latest free time or arrival on by at
  // most one unit or one latency.
  __extension__ using int128 = __int128;
  if (static_cast<int128>(n) * (static_cast<int128>(q) + max_latency) >
      std::numeric_limits<Tick>::max()) {
    throw_grid_overflow(kSite, "tick count exceeds int64");
  }

  // Each sender's targets sorted once by (latency, id), with a cursor past
  // the ranks already informed: a sender's first uninformed target is its
  // earliest arrival, ties to the lower id. So a step costs one look per
  // sender, not one per (sender, target) pair. The sort runs on one packed
  // key per target, latency * n + id, which the check above keeps below
  // n * (q + max latency), inside int64.
  const auto width = static_cast<Tick>(n);
  std::vector<ProcId> targets(n * (n - 1));
  std::vector<Tick> keys(n - 1);
  for (ProcId s = 0; s < n; ++s) {
    const Tick* lat_row = latency.data() + std::uint64_t{s} * n;
    for (ProcId t = 0, k = 0; t < n; ++t) {
      if (t != s) keys[k++] = lat_row[t] * width + t;
    }
    std::sort(keys.begin(), keys.end());
    ProcId* row = targets.data() + std::uint64_t{s} * (n - 1);
    for (std::uint64_t k = 0; k + 1 < n; ++k) {
      row[k] = static_cast<ProcId>(keys[k] % width);
    }
  }
  std::vector<std::uint64_t> cursor(n, 0);

  constexpr Tick kUninformed = -1;
  std::vector<Tick> free_at(n, kUninformed);  // informed -> next free tick
  free_at[0] = 0;
  std::vector<char> informed(n, 0);
  informed[0] = 1;
  std::vector<TickSend> sends;
  sends.reserve(n - 1);
  for (std::uint64_t remaining = n - 1; remaining > 0; --remaining) {
    // Pick the (sender, target) pair with the earliest possible arrival;
    // break ties toward lower ids for determinism.
    Tick best_arrival = kUninformed;
    ProcId best_s = 0;
    ProcId best_q = 0;
    for (ProcId s = 0; s < n; ++s) {
      if (free_at[s] == kUninformed) continue;
      const ProcId* row = targets.data() + std::uint64_t{s} * (n - 1);
      std::uint64_t& next = cursor[s];
      while (informed[row[next]] != 0) ++next;  // an uninformed rank remains
      const Tick arrival = free_at[s] + latency[std::uint64_t{s} * n + row[next]];
      if (best_arrival == kUninformed || arrival < best_arrival) {
        best_arrival = arrival;
        best_s = s;
        best_q = row[next];
      }
    }
    POSTAL_CHECK(best_arrival != kUninformed);
    sends.push_back(TickSend{free_at[best_s], best_s, best_q, 0});
    free_at[best_s] += q;
    free_at[best_q] = best_arrival;
    informed[best_q] = 1;
  }
  // A schedule built from the times themselves sits on the lcm of their
  // reduced denominators: q over the gcd of q and every tick.
  std::int64_t g = q;
  for (const TickSend& e : sends) g = std::gcd(g, e.tick);
  schedule.refine(q / g, kSite);
  schedule.reserve(sends.size());
  for (const TickSend& e : sends) schedule.add_tick(e.src, e.dst, e.msg, e.tick / g);
  schedule.sort();
  return schedule;
}

Schedule hetero_conservative_broadcast(const HeteroLatency& lat) {
  // Plan a plain generalized Fibonacci tree at the worst-case latency;
  // running it under the true matrix only makes arrivals earlier, and the
  // planned send times remain valid.
  return bcast_schedule(PostalParams(lat.n(), lat.max_lambda()));
}

}  // namespace postal
