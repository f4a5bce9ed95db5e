#pragma once
// Quadratic extension Fq12 = Fq6[w] / (w^2 - v); the pairing target field.
//
// Basis view: Fq12 = Fq2[w] / (w^6 - xi); an element is sum_{i<6} d_i w^i
// with d_i in Fq2. The (Fq6, Fq6) representation used here maps to that view
// by d_{2j} = a0.c_j and d_{2j+1} = a1.c_j. Frobenius is computed in the
// w-basis with coefficients xi^(i(q-1)/6) derived at runtime (no hardcoded
// Frobenius tables to get wrong).

#include <array>

#include "field/fp6.h"

namespace zl {

class Fq12 {
 public:
  Fq6 a0, a1;  // a0 + a1*w

  Fq12() = default;
  Fq12(const Fq6& x, const Fq6& y) : a0(x), a1(y) {}

  static Fq12 zero() { return Fq12(Fq6::zero(), Fq6::zero()); }
  static Fq12 one() { return Fq12(Fq6::one(), Fq6::zero()); }
  static Fq12 random(Rng& rng) { return Fq12(Fq6::random(rng), Fq6::random(rng)); }

  bool is_zero() const { return a0.is_zero() && a1.is_zero(); }
  bool is_one() const { return *this == one(); }

  friend bool operator==(const Fq12& x, const Fq12& y) { return x.a0 == y.a0 && x.a1 == y.a1; }
  friend bool operator!=(const Fq12& x, const Fq12& y) { return !(x == y); }

  Fq12 operator+(const Fq12& r) const { return Fq12(a0 + r.a0, a1 + r.a1); }
  Fq12 operator-(const Fq12& r) const { return Fq12(a0 - r.a0, a1 - r.a1); }
  Fq12 operator-() const { return Fq12(-a0, -a1); }

  Fq12 operator*(const Fq12& r) const {
    // Karatsuba over Fq6: (a0 + a1 w)(b0 + b1 w) = (a0b0 + v a1b1) + (...) w
    const Fq6 v0 = a0 * r.a0;
    const Fq6 v1 = a1 * r.a1;
    return Fq12(v0 + v1.mul_by_v(), (a0 + a1) * (r.a0 + r.a1) - v0 - v1);
  }

  Fq12& operator*=(const Fq12& r) { return *this = *this * r; }

  /// Complex squaring over Fq6: with t = a0 a1,
  ///   (a0 + a1 w)^2 = ((a0 + a1)(a0 + v a1) - t - v t) + 2t w,
  /// two Fq6 products instead of the three of a general product. Tests pin
  /// it bit-equal to *this * *this.
  Fq12 squared() const {
    const Fq6 t = a0 * a1;
    return Fq12((a0 + a1) * (a0 + a1.mul_by_v()) - t - t.mul_by_v(), t + t);
  }

  /// Sparse multiplication by g = c0 + (c3 + c4*v)*w, the shape of a
  /// Miller-loop line in the w-basis (non-zero coefficients d0, d1, d3).
  /// 13 Fq2 multiplications instead of the 18 of a full product.
  Fq12 mul_by_034(const Fq2& c0, const Fq2& c3, const Fq2& c4) const {
    const Fq6 va = a0.scalar_mul(c0);               // f0 * g0
    const Fq6 vb = a1.mul_by_01(c3, c4);            // f1 * g1
    const Fq6 ve = (a0 + a1).mul_by_01(c0 + c3, c4);  // (f0+f1)(g0+g1)
    return Fq12(va + vb.mul_by_v(), ve - va - vb);
  }

  /// Inverse of an element of the cyclotomic subgroup (where x^(q^6+1) = 1,
  /// so the Fq6-conjugate is the inverse) — no field inversion needed.
  Fq12 unitary_inverse() const { return conjugate(); }

  /// Granger–Scott squaring for elements of the cyclotomic subgroup
  /// (unitary elements): three Fq4 squarings instead of a full Fq12
  /// product. Only valid when *this is unitary (x * conjugate(x) == 1);
  /// tests pin agreement with squared() on such elements.
  Fq12 cyclotomic_squared() const {
    // w-basis pairs (d0,d3), (d1,d4), (d2,d5) are Fq4 = Fq2[w^3] elements
    // ((w^3)^2 = xi); Granger–Scott reconstructs the square of a unitary
    // element from the three Fq4 squares alone.
    const Fq2& z0 = a0.c0;  // d0
    const Fq2& z4 = a0.c1;  // d2
    const Fq2& z3 = a0.c2;  // d4
    const Fq2& z2 = a1.c0;  // d1
    const Fq2& z1 = a1.c1;  // d3
    const Fq2& z5 = a1.c2;  // d5

    // (t0 + t1*s) = (a + b*s)^2 in Fq4 = Fq2[s]/(s^2 - xi).
    const auto fq4_square = [](const Fq2& a, const Fq2& b, Fq2& t0, Fq2& t1) {
      const Fq2 ab = a * b;
      t0 = (a + b) * (a + b.mul_by_xi()) - ab - ab.mul_by_xi();
      t1 = ab.dbl();
    };
    Fq2 t0, t1, t2, t3, t4, t5;
    fq4_square(z0, z1, t0, t1);
    fq4_square(z2, z3, t2, t3);
    fq4_square(z4, z5, t4, t5);

    const Fq2 r0 = (t0 - z0).dbl() + t0;
    const Fq2 r1 = (t1 + z1).dbl() + t1;
    const Fq2 xi_t5 = t5.mul_by_xi();
    const Fq2 r2 = (xi_t5 + z2).dbl() + xi_t5;
    const Fq2 r3 = (t4 - z3).dbl() + t4;
    const Fq2 r4 = (t2 - z4).dbl() + t2;
    const Fq2 r5 = (t3 + z5).dbl() + t3;
    return Fq12(Fq6(r0, r4, r3), Fq6(r2, r1, r5));
  }

  /// Exponentiation of a unitary element, with cyclotomic squarings in the
  /// ladder. Only valid when *this is unitary.
  Fq12 cyclotomic_pow(const BigInt& e) const {
    Fq12 acc = one();
    if (e == 0) return acc;
    const std::size_t bits = mpz_sizeinbase(e.get_mpz_t(), 2);
    for (std::size_t i = bits; i-- > 0;) {
      acc = acc.cyclotomic_squared();
      if (mpz_tstbit(e.get_mpz_t(), i)) acc *= *this;
    }
    return acc;
  }

  Fq12 inverse() const {
    // 1/(a0 + a1 w) = (a0 - a1 w) / (a0^2 - v a1^2)
    const Fq6 denom = a0.squared() - a1.squared().mul_by_v();
    const Fq6 inv = denom.inverse();
    return Fq12(a0 * inv, -(a1 * inv));
  }

  /// Conjugation over Fq6 — equals Frobenius^6 for elements of the
  /// cyclotomic subgroup, where it is also the inverse.
  Fq12 conjugate() const { return Fq12(a0, -a1); }

  Fq12 pow(const BigInt& e) const {
    Fq12 base = *this;
    Fq12 acc = one();
    if (e == 0) return acc;
    const std::size_t bits = mpz_sizeinbase(e.get_mpz_t(), 2);
    for (std::size_t i = 0; i < bits; ++i) {
      if (mpz_tstbit(e.get_mpz_t(), i)) acc *= base;
      base = base.squared();
    }
    return acc;
  }

  /// Coefficients in the w-basis (d_0 .. d_5, each in Fq2).
  std::array<Fq2, 6> w_coefficients() const {
    return {a0.c0, a1.c0, a0.c1, a1.c1, a0.c2, a1.c2};
  }

  static Fq12 from_w_coefficients(const std::array<Fq2, 6>& d) {
    return Fq12(Fq6(d[0], d[2], d[4]), Fq6(d[1], d[3], d[5]));
  }

  /// Frobenius endomorphism x -> x^q.
  Fq12 frobenius() const {
    const std::array<Fq2, 6>& gamma = frobenius_gammas();
    std::array<Fq2, 6> d = w_coefficients();
    for (int i = 0; i < 6; ++i) d[static_cast<std::size_t>(i)] =
        d[static_cast<std::size_t>(i)].frobenius() * gamma[static_cast<std::size_t>(i)];
    return from_w_coefficients(d);
  }

  /// x -> x^(q^n).
  Fq12 frobenius_power(int n) const {
    Fq12 out = *this;
    for (int i = 0; i < n; ++i) out = out.frobenius();
    return out;
  }

 private:
  /// gamma_i = xi^(i (q-1)/6): w^q = gamma_1 * w since w^6 = xi.
  static const std::array<Fq2, 6>& frobenius_gammas() {
    static const std::array<Fq2, 6> gammas = [] {
      const BigInt exp = (Fq::modulus_bigint() - 1) / 6;
      const Fq2 g1 = Fq2::xi().pow(exp);
      std::array<Fq2, 6> out;
      out[0] = Fq2::one();
      for (int i = 1; i < 6; ++i) out[static_cast<std::size_t>(i)] =
          out[static_cast<std::size_t>(i - 1)] * g1;
      return out;
    }();
    return gammas;
  }
};

}  // namespace zl
