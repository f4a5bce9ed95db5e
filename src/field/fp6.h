#pragma once
// Cubic extension Fq6 = Fq2[v] / (v^3 - xi), xi = 9 + u.

#include "field/fp2.h"

namespace zl {

class Fq6 {
 public:
  Fq2 c0, c1, c2;  // c0 + c1*v + c2*v^2

  Fq6() = default;
  Fq6(const Fq2& a, const Fq2& b, const Fq2& c) : c0(a), c1(b), c2(c) {}

  static Fq6 zero() { return Fq6(Fq2::zero(), Fq2::zero(), Fq2::zero()); }
  static Fq6 one() { return Fq6(Fq2::one(), Fq2::zero(), Fq2::zero()); }
  static Fq6 random(Rng& rng) { return Fq6(Fq2::random(rng), Fq2::random(rng), Fq2::random(rng)); }

  bool is_zero() const { return c0.is_zero() && c1.is_zero() && c2.is_zero(); }

  friend bool operator==(const Fq6& a, const Fq6& b) {
    return a.c0 == b.c0 && a.c1 == b.c1 && a.c2 == b.c2;
  }
  friend bool operator!=(const Fq6& a, const Fq6& b) { return !(a == b); }

  Fq6 operator+(const Fq6& r) const { return Fq6(c0 + r.c0, c1 + r.c1, c2 + r.c2); }
  Fq6 operator-(const Fq6& r) const { return Fq6(c0 - r.c0, c1 - r.c1, c2 - r.c2); }
  Fq6 operator-() const { return Fq6(-c0, -c1, -c2); }

  Fq6 operator*(const Fq6& r) const {
    // Karatsuba: 6 Fq2 multiplications instead of the schoolbook 9, with
    // xi-reduction of the v^3 and v^4 terms.
    const Fq2 a0b0 = c0 * r.c0;
    const Fq2 a1b1 = c1 * r.c1;
    const Fq2 a2b2 = c2 * r.c2;
    const Fq2 t0 = a0b0 + ((c1 + c2) * (r.c1 + r.c2) - a1b1 - a2b2).mul_by_xi();
    const Fq2 t1 = (c0 + c1) * (r.c0 + r.c1) - a0b0 - a1b1 + a2b2.mul_by_xi();
    const Fq2 t2 = (c0 + c2) * (r.c0 + r.c2) - a0b0 - a2b2 + a1b1;
    return Fq6(t0, t1, t2);
  }

  Fq6& operator+=(const Fq6& r) { return *this = *this + r; }
  Fq6& operator-=(const Fq6& r) { return *this = *this - r; }
  Fq6& operator*=(const Fq6& r) { return *this = *this * r; }

  Fq6 squared() const { return *this * *this; }

  Fq6 scalar_mul(const Fq2& s) const { return Fq6(c0 * s, c1 * s, c2 * s); }

  /// Multiply by v (used by Fq12 arithmetic): (c0,c1,c2) -> (xi*c2, c0, c1).
  Fq6 mul_by_v() const { return Fq6(c2.mul_by_xi(), c0, c1); }

  /// Sparse multiplication by b0 + b1*v (c2 of the operand is zero) — the
  /// shape of a Miller-loop line's odd coefficients. Karatsuba on the
  /// (c0, c1) block: 5 Fq2 multiplications instead of the 6 of a full one.
  Fq6 mul_by_01(const Fq2& b0, const Fq2& b1) const {
    const Fq2 a0b0 = c0 * b0;
    const Fq2 a1b1 = c1 * b1;
    return Fq6(a0b0 + (c2 * b1).mul_by_xi(), (c0 + c1) * (b0 + b1) - a0b0 - a1b1,
               c2 * b0 + a1b1);
  }

  Fq6 inverse() const {
    // Standard cubic-extension inversion (e.g. Lauter–Montgomery formulas).
    const Fq2 t0 = c0.squared() - (c1 * c2).mul_by_xi();
    const Fq2 t1 = c2.squared().mul_by_xi() - c0 * c1;
    const Fq2 t2 = c1.squared() - c0 * c2;
    const Fq2 denom = c0 * t0 + (c2 * t1 + c1 * t2).mul_by_xi();
    const Fq2 inv = denom.inverse();
    return Fq6(t0 * inv, t1 * inv, t2 * inv);
  }
};

}  // namespace zl
