// Unit tests for the tick domain (support/ticks.hpp): exact conversion,
// every failure path (off-grid values, overflow) falling back to nullopt
// rather than approximating or wrapping, and denominator folding.
#include "support/ticks.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "test_util.hpp"

namespace postal {
namespace {

constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();

TEST(TickDomain, RequiresPositiveResolution) {
  POSTAL_EXPECT_THROW(TickDomain(0), InvalidArgument);
  POSTAL_EXPECT_THROW(TickDomain(-3), InvalidArgument);
  EXPECT_EQ(TickDomain(1).q(), 1);
  EXPECT_EQ(TickDomain(12).q(), 12);
}

TEST(TickDomain, ConvertsGridMultiplesExactly) {
  const TickDomain dom(4);
  EXPECT_EQ(dom.to_ticks(Rational(0)), 0);
  EXPECT_EQ(dom.to_ticks(Rational(1)), 4);
  EXPECT_EQ(dom.to_ticks(Rational(5, 2)), 10);
  EXPECT_EQ(dom.to_ticks(Rational(7, 4)), 7);
  EXPECT_EQ(dom.to_ticks(Rational(-3, 4)), -3);
}

TEST(TickDomain, RejectsOffGridValues) {
  const TickDomain dom(4);
  EXPECT_EQ(dom.to_ticks(Rational(1, 3)), std::nullopt);
  EXPECT_EQ(dom.to_ticks(Rational(1, 8)), std::nullopt);
  EXPECT_EQ(dom.to_ticks(Rational(5, 6)), std::nullopt);
}

TEST(TickDomain, RejectsOverflowingCountsInsteadOfWrapping) {
  const TickDomain dom(1000);
  // kMax/1000 ticks would overflow: nullopt, never a wrapped value.
  EXPECT_EQ(dom.to_ticks(Rational(kMax)), std::nullopt);
  EXPECT_EQ(dom.to_ticks(Rational(kMin + 1)), std::nullopt);
  // The same magnitude fits at resolution 1.
  EXPECT_EQ(TickDomain(1).to_ticks(Rational(kMax)), kMax);
}

TEST(TickDomain, RoundTripsReproduceValueAndRendering) {
  const TickDomain dom(6);
  const Rational samples[] = {Rational(0),     Rational(5, 2), Rational(-7, 3),
                              Rational(11, 6), Rational(42),   Rational(1, 6)};
  for (const Rational& r : samples) {
    const auto t = dom.to_ticks(r);
    ASSERT_TRUE(t.has_value()) << r;
    EXPECT_EQ(dom.to_rational(*t), r);
    EXPECT_EQ(dom.to_rational(*t).str(), r.str());
  }
}

TEST(TickDomain, FoldDenominatorIsLcm) {
  EXPECT_EQ(TickDomain::fold_denominator(1, Rational(5, 2)), 2);
  EXPECT_EQ(TickDomain::fold_denominator(4, Rational(1, 6)), 12);
  EXPECT_EQ(TickDomain::fold_denominator(6, Rational(1, 4)), 12);
  EXPECT_EQ(TickDomain::fold_denominator(12, Rational(7)), 12);
  // Values already on the grid leave q unchanged.
  EXPECT_EQ(TickDomain::fold_denominator(8, Rational(3, 8)), 8);
}

TEST(TickDomain, FoldDenominatorReportsOverflow) {
  // lcm(prime-ish huge, other huge) overflows int64: nullopt, which the
  // run probes turn into OverflowError (fold_grid below).
  const std::int64_t big = (std::int64_t{1} << 62) + 1;  // odd
  EXPECT_EQ(TickDomain::fold_denominator(big, Rational(1, 3)), std::nullopt);
  EXPECT_EQ(TickDomain::fold_denominator(3, Rational(1, big)), std::nullopt);
}

TEST(TickDomain, FoldThenConvertAlwaysSucceedsOnTheFoldedGrid) {
  // The probe pattern: fold a set of times, then convert each. Conversion
  // can only fail on magnitude after a successful fold.
  std::int64_t q = 1;
  const Rational times[] = {Rational(5, 2), Rational(7, 3), Rational(9, 4)};
  for (const Rational& r : times) {
    const auto folded = TickDomain::fold_denominator(q, r);
    ASSERT_TRUE(folded.has_value());
    q = *folded;
  }
  EXPECT_EQ(q, 12);
  const TickDomain dom(q);
  for (const Rational& r : times) {
    const auto t = dom.to_ticks(r);
    ASSERT_TRUE(t.has_value()) << r;
    EXPECT_EQ(dom.to_rational(*t), r);
  }
}

TEST(TickDomain, GridHelpersThrowOverflowErrorNamingTheSite) {
  EXPECT_EQ(fold_grid(4, Rational(1, 6), "site"), 12);
  EXPECT_EQ(grid_ticks(TickDomain(12), Rational(5, 6), "site"), 10);
  const std::int64_t big = (std::int64_t{1} << 62) + 1;  // odd
  try {
    static_cast<void>(fold_grid(3, Rational(1, big), "Probe::run"));
    ADD_FAILURE() << "fold_grid accepted an lcm beyond int64";
  } catch (const OverflowError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("Probe::run: ", 0), 0u) << e.what();
  }
  POSTAL_EXPECT_THROW(grid_ticks(TickDomain(1000), Rational(kMax), "site"),
                      OverflowError);
}

}  // namespace
}  // namespace postal
