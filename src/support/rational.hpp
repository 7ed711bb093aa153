// Exact rational arithmetic.
//
// Used by the repetition-vector computation (balance equations) and the
// throughput results (iterations per clock cycle are rational numbers).
#pragma once

#include <compare>
#include <cstdint>
#include <numeric>
#include <ostream>
#include <string>

#include "support/error.hpp"

namespace mamps {

/// An always-normalized rational number over 64-bit integers.
///
/// Invariants: den > 0, gcd(|num|, den) == 1, 0 is represented as 0/1.
/// Arithmetic throws mamps::Error on overflow or division by zero.
class Rational {
 public:
  constexpr Rational() = default;
  Rational(std::int64_t num, std::int64_t den);
  constexpr Rational(std::int64_t value) : num_(value), den_(1) {}  // NOLINT: implicit by design

  [[nodiscard]] constexpr std::int64_t num() const { return num_; }
  [[nodiscard]] constexpr std::int64_t den() const { return den_; }

  [[nodiscard]] constexpr bool isZero() const { return num_ == 0; }
  [[nodiscard]] double toDouble() const { return static_cast<double>(num_) / static_cast<double>(den_); }
  [[nodiscard]] std::string toString() const;

  Rational operator-() const;
  Rational& operator+=(const Rational& rhs);
  Rational& operator-=(const Rational& rhs);
  Rational& operator*=(const Rational& rhs);
  Rational& operator/=(const Rational& rhs);

  friend Rational operator+(Rational lhs, const Rational& rhs) { return lhs += rhs; }
  friend Rational operator-(Rational lhs, const Rational& rhs) { return lhs -= rhs; }
  friend Rational operator*(Rational lhs, const Rational& rhs) { return lhs *= rhs; }
  friend Rational operator/(Rational lhs, const Rational& rhs) { return lhs /= rhs; }

  friend constexpr bool operator==(const Rational& a, const Rational& b) {
    return a.num_ == b.num_ && a.den_ == b.den_;
  }
  friend std::strong_ordering operator<=>(const Rational& a, const Rational& b);

  /// The multiplicative inverse; throws on zero.
  [[nodiscard]] Rational reciprocal() const;

 private:
  void normalize();

  std::int64_t num_ = 0;
  std::int64_t den_ = 1;
};

std::ostream& operator<<(std::ostream& os, const Rational& r);

/// Least common multiple with overflow checking.
std::int64_t checkedLcm(std::int64_t a, std::int64_t b);

}  // namespace mamps
