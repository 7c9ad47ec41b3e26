#include "support/ticks.hpp"

#include <numeric>
#include <string>

namespace postal {

std::optional<std::int64_t> TickDomain::fold_denominator(
    std::int64_t q, const Rational& r) noexcept {
  const std::int64_t d = r.den();  // > 0 by Rational's invariant
  const std::int64_t g = std::gcd(q, d);
  std::int64_t out = 0;
  if (__builtin_mul_overflow(q, d / g, &out)) return std::nullopt;
  return out;
}

void throw_grid_overflow(const char* site, const char* what) {
  throw OverflowError(std::string(site) + ": " + what);
}

std::int64_t fold_grid(std::int64_t q, const Rational& r, const char* site) {
  const std::optional<std::int64_t> folded = TickDomain::fold_denominator(q, r);
  if (!folded.has_value()) {
    throw_grid_overflow(site, "common time denominator exceeds int64");
  }
  return *folded;
}

Tick grid_ticks(const TickDomain& dom, const Rational& r, const char* site) {
  const std::optional<Tick> t = dom.to_ticks(r);
  if (!t.has_value()) throw_grid_overflow(site, "tick count exceeds int64");
  return *t;
}

}  // namespace postal
