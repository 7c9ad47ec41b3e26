#include "support/rational.hpp"

#include <cstdlib>
#include <ostream>

namespace postal {

namespace {

std::int64_t checked_add(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_add_overflow(a, b, &out)) {
    throw OverflowError("Rational: 64-bit addition overflow");
  }
  return out;
}

std::int64_t checked_mul(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_mul_overflow(a, b, &out)) {
    throw OverflowError("Rational: 64-bit multiplication overflow");
  }
  return out;
}

}  // namespace

std::int64_t Rational::checked_neg(std::int64_t v) {
  if (v == INT64_MIN) throw OverflowError("Rational: negation overflow");
  return -v;
}

Rational::Rational(std::int64_t num, std::int64_t den) : num_(0), den_(1) {
  POSTAL_REQUIRE(den != 0, "Rational denominator must be nonzero");
  normalize(num, den);
}

void Rational::normalize(std::int64_t num, std::int64_t den) {
  if (den < 0) {
    num = checked_neg(num);
    den = checked_neg(den);
  }
  const std::int64_t g = std::gcd(num, den);
  num_ = (g == 0) ? 0 : num / g;
  den_ = (g == 0) ? 1 : den / g;
  if (num_ == 0) den_ = 1;
}

std::int64_t Rational::floor() const {
  // C++ integer division truncates toward zero; adjust for negatives.
  std::int64_t q = num_ / den_;
  if (num_ % den_ != 0 && num_ < 0) --q;
  return q;
}

std::int64_t Rational::ceil() const {
  std::int64_t q = num_ / den_;
  if (num_ % den_ != 0 && num_ > 0) ++q;
  return q;
}

std::int64_t Rational::trunc() const { return num_ / den_; }

Rational& Rational::operator+=(const Rational& rhs) {
  if (den_ == 1 && rhs.den_ == 1) {  // integer sums (e.g. busy units) stay reduced
    num_ = checked_add(num_, rhs.num_);
    return *this;
  }
  // a/b + c/d with a reduced-intermediate form to delay overflow:
  // let g = gcd(b, d); result = (a*(d/g) + c*(b/g)) / (b*(d/g)).
  const std::int64_t g = std::gcd(den_, rhs.den_);
  const std::int64_t dg = rhs.den_ / g;
  const std::int64_t bg = den_ / g;
  const std::int64_t num = checked_add(checked_mul(num_, dg), checked_mul(rhs.num_, bg));
  const std::int64_t den = checked_mul(den_, dg);
  normalize(num, den);
  return *this;
}

Rational& Rational::operator-=(const Rational& rhs) { return *this += -rhs; }

Rational& Rational::operator*=(const Rational& rhs) {
  // Cross-reduce before multiplying to delay overflow.
  const std::int64_t g1 = std::gcd(num_, rhs.den_);
  const std::int64_t g2 = std::gcd(rhs.num_, den_);
  const std::int64_t num = checked_mul(num_ / g1, rhs.num_ / g2);
  const std::int64_t den = checked_mul(den_ / g2, rhs.den_ / g1);
  normalize(num, den);
  return *this;
}

Rational& Rational::operator/=(const Rational& rhs) {
  POSTAL_REQUIRE(rhs.num_ != 0, "Rational division by zero");
  Rational inv;
  inv.num_ = rhs.den_;
  inv.den_ = rhs.num_;
  if (inv.den_ < 0) {
    inv.num_ = checked_neg(inv.num_);
    inv.den_ = checked_neg(inv.den_);
  }
  return *this *= inv;
}

Rational Rational::parse(const std::string& text) {
  POSTAL_REQUIRE(!text.empty(), "Rational::parse: empty string");
  const auto slash = text.find('/');
  const auto dot = text.find('.');
  try {
    if (slash != std::string::npos) {
      const std::int64_t num = std::stoll(text.substr(0, slash));
      const std::int64_t den = std::stoll(text.substr(slash + 1));
      return Rational(num, den);
    }
    if (dot != std::string::npos) {
      const std::string whole = text.substr(0, dot);
      const std::string frac = text.substr(dot + 1);
      POSTAL_REQUIRE(!frac.empty(), "Rational::parse: trailing decimal point");
      POSTAL_REQUIRE(frac.size() <= 18, "Rational::parse: too many decimal digits");
      std::int64_t den = 1;
      for (std::size_t i = 0; i < frac.size(); ++i) den = checked_mul(den, 10);
      const std::int64_t w = whole.empty() || whole == "-" ? 0 : std::stoll(whole);
      const std::int64_t f = std::stoll(frac);
      POSTAL_REQUIRE(f >= 0, "Rational::parse: malformed fraction digits");
      const bool negative = !whole.empty() && whole[0] == '-';
      const std::int64_t mag = checked_add(checked_mul(std::llabs(w), den), f);
      return Rational(negative ? checked_neg(mag) : mag, den);
    }
    return Rational(static_cast<std::int64_t>(std::stoll(text)));
  } catch (const std::invalid_argument&) {
    throw InvalidArgument("Rational::parse: cannot parse '" + text + "'");
  } catch (const std::out_of_range&) {
    throw OverflowError("Rational::parse: value out of 64-bit range: '" + text + "'");
  }
}

std::string Rational::str() const {
  if (is_integer()) return std::to_string(num_);
  return std::to_string(num_) + "/" + std::to_string(den_);
}

std::ostream& operator<<(std::ostream& os, const Rational& r) { return os << r.str(); }

}  // namespace postal
