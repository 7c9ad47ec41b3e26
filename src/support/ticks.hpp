// The tick domain: integer time at resolution 1/q (docs/PERFORMANCE.md).
//
// With lambda = p/q, every event time the paper's algorithms produce is an
// integer multiple of 1/q (the exact-equality property the Theorem 6 and
// Lemma 10/12/14/16 tests rely on). Every hot loop therefore carries its
// times as int64 *ticks* -- plain adds and compares instead of Rational's
// gcd-normalizing, overflow-checked arithmetic -- and converts back to
// Rational only at the boundary. TickDomain is that boundary: a checked,
// exact, two-way mapping between Rational time and tick counts.
//
// The conversion never lies and never wraps: to_ticks() reports
// unrepresentable (nullopt) when the value is not a multiple of 1/q or the
// tick count would not fit. Because Rational is canonical (reduced,
// positive denominator), to_rational(to_ticks(r)) == r exactly -- including
// the str() rendering -- so results quote the same times and strings a
// Rational computation would.
//
// Ticks are the only internal time; Rational remains the time type of
// every public API and serialization. A run first folds every time it can
// meet onto one grid (fold_grid), then converts (grid_ticks). When that
// grid or a tick count cannot fit int64 the run raises OverflowError
// naming the entry point -- there is no second engine to fall back to.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>

#include "support/rational.hpp"

namespace postal {

/// Integer time in units of 1/q.
using Tick = std::int64_t;

/// The mapping between Rational time and int64 ticks at resolution 1/q.
class TickDomain {
 public:
  /// Resolution denominator; ticks measure multiples of 1/q. q >= 1.
  explicit TickDomain(std::int64_t q) : q_(q) {
    POSTAL_REQUIRE(q >= 1, "TickDomain: resolution denominator must be >= 1");
  }

  [[nodiscard]] std::int64_t q() const noexcept { return q_; }

  /// Exact conversion to ticks: r == to_ticks(r) / q. Returns nullopt when
  /// r is not a multiple of 1/q or the count overflows int64 -- never an
  /// approximation, never UB.
  [[nodiscard]] std::optional<Tick> to_ticks(const Rational& r) const noexcept {
    if (q_ % r.den() != 0) return std::nullopt;
    Tick out = 0;
    if (__builtin_mul_overflow(r.num(), q_ / r.den(), &out)) return std::nullopt;
    return out;
  }

  /// Exact conversion back; always succeeds (Rational reduces t/q_
  /// canonically, so round trips reproduce the original value and string).
  [[nodiscard]] Rational to_rational(Tick t) const { return Rational(t, q_); }

  /// Smallest resolution representing both multiples of 1/q and `r`
  /// exactly: lcm(q, r.den()); nullopt when the lcm overflows int64.
  [[nodiscard]] static std::optional<std::int64_t> fold_denominator(
      std::int64_t q, const Rational& r) noexcept;

 private:
  std::int64_t q_;
};

/// The first-arrival (and checker hold) cell of a processor/message pair
/// nothing has reached. Above every tick a run can form (< 2^62), so a
/// plain `arrival < cell` both detects and replaces it.
inline constexpr Tick kNeverArrived = std::numeric_limits<Tick>::max();

/// Index of cell (p, msg) in a row-major n x messages table: the Trace's
/// first arrivals and the schedule checker's holds. Computed in size_t,
/// because p * messages exceeds 32 bits once n * messages >= 2^32.
[[nodiscard]] constexpr std::size_t arrival_cell(std::uint64_t p, std::uint32_t messages,
                                                 std::uint32_t msg) noexcept {
  return static_cast<std::size_t>(p) * messages + msg;
}

/// How many events ahead the tick loops prefetch (Machine, ParMachine's
/// shards, the schedule checker's in-place visit): far enough to cover a
/// cache miss, near enough that the line is still resident when its event
/// arrives.
inline constexpr std::size_t kLookAhead = 8;

/// Whether tick t of grid 1/qa and tick u of grid 1/qb are the same time
/// (t / qa == u / qb). Ticks and grids fit int64, so the products fit 128
/// bits.
[[nodiscard]] inline bool same_time(Tick t, std::int64_t qa, Tick u,
                                    std::int64_t qb) noexcept {
  __extension__ using int128 = __int128;
  return static_cast<int128>(t) * qb == static_cast<int128>(u) * qa;
}

/// Raise OverflowError: `site`'s run has no int64 tick representation.
[[noreturn]] void throw_grid_overflow(const char* site, const char* what);

/// fold_denominator for a run's grid probe: lcm(q, r.den()), raising
/// OverflowError naming `site` when it does not fit int64.
[[nodiscard]] std::int64_t fold_grid(std::int64_t q, const Rational& r,
                                     const char* site);

/// to_ticks for a value already folded into `dom`'s grid, raising
/// OverflowError naming `site` when the tick count does not fit int64.
[[nodiscard]] Tick grid_ticks(const TickDomain& dom, const Rational& r,
                              const char* site);

}  // namespace postal
