#include "kernel_oracles.h"

namespace zl::oracle {

std::vector<Fr> fft_twiddles(const Fr& omega, std::size_t size) {
  std::vector<Fr> tw(size / 2);
  Fr p = Fr::one();
  for (Fr& t : tw) {
    t = p;
    p *= omega;
  }
  return tw;
}

void fft_textbook(std::vector<Fr>& a, const std::vector<Fr>& twiddles) {
  const std::size_t size = a.size();
  if (twiddles.size() != size / 2) throw std::invalid_argument("fft_textbook: twiddle count");
  for (std::size_t i = 1, j = 0; i < size; ++i) {  // bit-reversal permutation
    std::size_t bit = size >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  // Each stage performs size/2 independent butterflies; they write disjoint
  // index pairs, so the stage parallelizes freely (stages are barriers).
  for (std::size_t len = 2; len <= size; len <<= 1) {
    const std::size_t half = len >> 1;
    const std::size_t stride = size / len;  // twiddle step within a block
    parallel_for(
        size / 2,
        [&](std::size_t b) {
          const std::size_t block = b / half, k = b % half;
          const std::size_t i0 = block * len + k;
          const std::size_t i1 = i0 + half;
          const Fr u = a[i0];
          const Fr v = a[i1] * twiddles[k * stride];
          a[i0] = u + v;
          a[i1] = u - v;
        },
        /*min_grain=*/2048);
  }
}

namespace {

/// A point of E(Fq12): y^2 = x^3 + 3, in affine coordinates.
struct Ext12Point {
  Fq12 x, y;
};

/// Untwist psi: E'(Fq2) -> E(Fq12), (x, y) |-> (x w^2, y w^3).
Ext12Point untwist(const G2& q) {
  const auto [qx, qy] = q.to_affine();
  // w^2 = v: multiplying an Fq2 constant c by w^2 gives Fq12(c*v, 0) i.e.
  // Fq6 coefficient c1 = c. w^3 = v*w: gives a1 with c1 = c.
  Fq12 x = Fq12(Fq6(Fq2::zero(), qx, Fq2::zero()), Fq6::zero());
  Fq12 y = Fq12(Fq6::zero(), Fq6(Fq2::zero(), qy, Fq2::zero()));
  return {x, y};
}

Fq12 embed_fq(const Fq& c) {
  return Fq12(Fq6(Fq2(c, Fq::zero()), Fq2::zero(), Fq2::zero()), Fq6::zero());
}

/// Evaluate the line through `a` and `b` (tangent if a == b) at the G1 point
/// (px, py) embedded in Fq12, then advance a := a + b.
///
/// Returns l(P) = (py - y_a) - lambda (px - x_a).
Fq12 line_and_step(Ext12Point& a, const Ext12Point& b, const Fq12& px, const Fq12& py) {
  Fq12 lambda;
  if (a.x == b.x && a.y == b.y) {
    // Tangent: lambda = 3 x^2 / 2 y.
    const Fq12 x2 = a.x.squared();
    lambda = (x2 + x2 + x2) * (a.y + a.y).inverse();
  } else {
    if (a.x == b.x) {
      // Vertical line (b == -a): l(P) = px - x_a; result is the infinity point.
      const Fq12 l = px - a.x;
      a.x = Fq12::zero();
      a.y = Fq12::zero();  // marker; never used afterwards for valid loop lengths
      return l;
    }
    lambda = (b.y - a.y) * (b.x - a.x).inverse();
  }
  const Fq12 l = (py - a.y) - lambda * (px - a.x);
  // Chord-tangent addition.
  const Fq12 x3 = lambda.squared() - a.x - b.x;
  const Fq12 y3 = lambda * (a.x - x3) - a.y;
  a.x = x3;
  a.y = y3;
  return l;
}

}  // namespace

Fq12 miller_loop_textbook(const G2& q, const G1& p) {
  if (q.is_infinity() || p.is_infinity()) {
    throw std::invalid_argument("miller_loop: inputs must be finite points");
  }
  const Ext12Point base = untwist(q);
  const auto [px_fq, py_fq] = p.to_affine();
  const Fq12 px = embed_fq(px_fq);
  const Fq12 py = embed_fq(py_fq);

  // f_{6x+2,Q}(P) over the plain binary digits of 6x + 2.
  const BigInt s = 6 * bn254_x() + 2;
  const std::size_t bits = mpz_sizeinbase(s.get_mpz_t(), 2);
  Fq12 f = Fq12::one();
  Ext12Point t = base;
  for (std::size_t i = bits - 1; i-- > 0;) {
    f = f.squared() * line_and_step(t, t, px, py);
    if (mpz_tstbit(s.get_mpz_t(), i)) {
      f = f * line_and_step(t, base, px, py);
    }
  }
  // The lines through Q1 = pi(Q) and -Q2 = -pi^2(Q), the q-power Frobenius
  // images of the untwisted point.
  const Ext12Point q1 = {base.x.frobenius(), base.y.frobenius()};
  const Ext12Point minus_q2 = {base.x.frobenius_power(2), -base.y.frobenius_power(2)};
  f = f * line_and_step(t, q1, px, py);
  return f * line_and_step(t, minus_q2, px, py);
}

Fq12 final_exponentiation_textbook(const Fq12& f) {
  // Easy part: f^((q^6 - 1)(q^2 + 1)).
  const Fq12 f1 = f.conjugate() * f.inverse();
  const Fq12 f2 = f1.frobenius_power(2) * f1;
  // Hard part: ^((q^4 - q^2 + 1) / r), by plain exponentiation.
  static const BigInt hard_exponent = []() -> BigInt {
    const BigInt q = Fq::modulus_bigint();
    return BigInt((q * q * q * q - q * q + 1) / Fr::modulus_bigint());
  }();
  return f2.pow(hard_exponent);
}

Fq12 pairing_textbook(const G2& q, const G1& p) {
  if (q.is_infinity() || p.is_infinity()) return Fq12::one();
  return final_exponentiation_textbook(miller_loop_textbook(q, p));
}

Fq12 pairing_product_textbook(const std::vector<std::pair<G2, G1>>& pairs) {
  Fq12 acc = Fq12::one();
  for (const auto& [q, p] : pairs) {
    if (q.is_infinity() || p.is_infinity()) continue;
    acc *= miller_loop_textbook(q, p);
  }
  return final_exponentiation_textbook(acc);
}

std::optional<Fq2> fq2_sqrt(const Fq2& a) {
  const BigInt& q = Fq::modulus_bigint();
  const Fq2 a1 = a.pow((q - 3) / 4);
  const Fq2 alpha = a1 * (a1 * a);  // a^((q-1)/2)
  const Fq2 minus_one = -Fq2::one();
  if (alpha.frobenius() * alpha == minus_one) return std::nullopt;  // the norm is a non-square
  const Fq2 x0 = a1 * a;
  const Fq2 x = alpha == minus_one ? Fq2(Fq::zero(), Fq::one()) * x0
                                   : (Fq2::one() + alpha).pow((q - 1) / 2) * x0;
  if (x.squared() != a) throw std::logic_error("fq2_sqrt: root does not square back");
  return x;
}

G2 random_twist_point(Rng& rng) {
  for (;;) {
    const Fq2 x = Fq2::random(rng);
    if (const std::optional<Fq2> y = fq2_sqrt(x.squared() * x + Bn254G2Params::b())) {
      return G2::from_affine(x, *y);
    }
  }
}

}  // namespace zl::oracle
