#include "ec/pairing.h"

#include <stdexcept>

#include "common/thread_pool.h"

namespace zl {

namespace {

// ---------------------------------------------------------------------------
// Fast path: precomputed projective G2 schedule + sparse line accumulation.
// ---------------------------------------------------------------------------

/// Tangent line at (X:Y:Z) (homogeneous projective on the twist), advancing
/// the point to its double. Formulas follow Costello–Lange–Naehrig; the
/// overall Fq2 scale factor of the line is irrelevant (killed by the easy
/// part of the final exponentiation).
LineCoefficients doubling_step(Fq2& x, Fq2& y, Fq2& z, const Fq2& twist_b) {
  const Fq2 a = (x * y).halve();
  const Fq2 b = y.squared();
  const Fq2 c = z.squared();
  const Fq2 e = twist_b * (c + c + c);
  const Fq2 f = e + e + e;
  const Fq2 g = (b + f).halve();
  const Fq2 h = (y + z).squared() - (b + c);  // 2YZ
  const Fq2 i = e - b;
  const Fq2 j = x.squared();
  const Fq2 e2 = e.squared();
  x = a * (b - f);
  y = g.squared() - (e2 + e2 + e2);
  z = b * h;
  return {/*ell_0=*/i, /*ell_vw=*/-h, /*ell_vv=*/j + j + j};
}

/// Chord line through (X:Y:Z) and the affine base point (qx, qy), advancing
/// the point to the sum (mixed addition).
LineCoefficients addition_step(Fq2& x, Fq2& y, Fq2& z, const Fq2& qx, const Fq2& qy) {
  const Fq2 theta = y - qy * z;
  const Fq2 lambda = x - qx * z;
  const Fq2 c = theta.squared();
  const Fq2 d = lambda.squared();
  const Fq2 e = lambda * d;
  const Fq2 f = z * c;
  const Fq2 g = x * d;
  const Fq2 h = e + f - (g + g);
  x = lambda * h;
  y = theta * (g - h) - e * y;
  z = z * e;
  const Fq2 j = theta * qx - lambda * qy;
  return {/*ell_0=*/j, /*ell_vw=*/lambda, /*ell_vv=*/-theta};
}

/// f^x for unitary f (x = the BN parameter, positive for BN254).
Fq12 pow_by_x(const Fq12& f) { return f.cyclotomic_pow(bn254_x()); }

/// Easy part of the final exponentiation: f^((q^6 - 1)(q^2 + 1)). The result
/// is unitary, so the hard part may use cyclotomic arithmetic.
Fq12 final_exponentiation_easy(const Fq12& f) {
  const Fq12 f1 = f.conjugate() * f.inverse();  // f^(q^6 - 1)
  return f1.frobenius_power(2) * f1;            // ^(q^2 + 1)
}

}  // namespace

G2Prepared::G2Prepared(const G2& q) {
  if (q.is_infinity()) return;
  infinity_ = false;
  const auto [qx, qy] = q.to_affine();
  Fq2 x = qx, y = qy, z = Fq2::one();
  const Fq2 twist_b = Bn254G2Params::b();

  const BigInt& s = bn254_ate_loop_count();
  const std::size_t bits = mpz_sizeinbase(s.get_mpz_t(), 2);
  // One line per doubling plus one per set bit; the classic ate loop count
  // 6x^2 < r guarantees no degenerate (vertical) steps on a prime-order Q.
  coeffs_.reserve(2 * bits);
  for (std::size_t i = bits - 1; i-- > 0;) {
    coeffs_.push_back(doubling_step(x, y, z, twist_b));
    if (mpz_tstbit(s.get_mpz_t(), i)) {
      coeffs_.push_back(addition_step(x, y, z, qx, qy));
    }
  }
}

Fq12 miller_loop(const G2Prepared& q, const G1& p) {
  if (q.is_infinity() || p.is_infinity()) {
    throw std::invalid_argument("miller_loop: inputs must be finite points");
  }
  const auto [px, py] = p.to_affine();
  const std::vector<LineCoefficients>& coeffs = q.coefficients();

  const BigInt& s = bn254_ate_loop_count();
  const std::size_t bits = mpz_sizeinbase(s.get_mpz_t(), 2);

  Fq12 f = Fq12::one();
  std::size_t idx = 0;
  for (std::size_t i = bits - 1; i-- > 0;) {
    const LineCoefficients& dbl = coeffs[idx++];
    f = f.squared().mul_by_034(dbl.ell_vw.scalar_mul(py), dbl.ell_vv.scalar_mul(px), dbl.ell_0);
    if (mpz_tstbit(s.get_mpz_t(), i)) {
      const LineCoefficients& add = coeffs[idx++];
      f = f.mul_by_034(add.ell_vw.scalar_mul(py), add.ell_vv.scalar_mul(px), add.ell_0);
    }
  }
  return f;
}

Fq12 miller_loop(const G2& q, const G1& p) { return miller_loop(G2Prepared(q), p); }

Fq12 final_exponentiation(const Fq12& f) {
  const Fq12 f2 = final_exponentiation_easy(f);
  // Hard part ^((q^4 - q^2 + 1) / r) via the exact Devegili decomposition in
  // the BN parameter x,
  //   lambda = lambda_0 + lambda_1 q + lambda_2 q^2 + q^3,
  //   lambda_0 = -(36x^3 + 30x^2 + 18x + 2),
  //   lambda_1 = -(36x^3 + 18x^2 + 12x - 1),
  //   lambda_2 = 6x^2 + 1,
  // computed with the Scott et al. vector addition chain
  //   y0 y1^2 y2^6 y3^12 y4^18 y5^30 y6^36
  // over cyclotomic squarings. The chain computes the exponent exactly (no
  // auxiliary cofactor), so results are bit-identical to the generic pow.
  const Fq12 fx = pow_by_x(f2);
  const Fq12 fx2 = pow_by_x(fx);
  const Fq12 fx3 = pow_by_x(fx2);
  const Fq12 y0 = f2.frobenius() * f2.frobenius_power(2) * f2.frobenius_power(3);
  const Fq12 y1 = f2.unitary_inverse();
  const Fq12 y2 = fx2.frobenius_power(2);
  const Fq12 y3 = fx.frobenius().unitary_inverse();
  const Fq12 y4 = (fx * fx2.frobenius()).unitary_inverse();
  const Fq12 y5 = fx2.unitary_inverse();
  const Fq12 y6 = (fx3 * fx3.frobenius()).unitary_inverse();

  Fq12 t0 = y6.cyclotomic_squared() * y4 * y5;
  Fq12 t1 = y3 * y5 * t0;
  t0 *= y2;
  t1 = t1.cyclotomic_squared() * t0;
  t1 = t1.cyclotomic_squared();
  t0 = t1 * y1;
  t1 *= y0;
  t0 = t0.cyclotomic_squared();
  return t0 * t1;
}

Fq12 pairing(const G2Prepared& q, const G1& p) {
  if (q.is_infinity() || p.is_infinity()) return Fq12::one();
  return final_exponentiation(miller_loop(q, p));
}

Fq12 pairing(const G2& q, const G1& p) {
  if (q.is_infinity() || p.is_infinity()) return Fq12::one();
  return final_exponentiation(miller_loop(G2Prepared(q), p));
}

Fq12 pairing_product(const std::vector<std::pair<G2, G1>>& pairs) {
  // The Miller loops are independent; run them on the thread pool and
  // multiply the results in input order (Fq12 multiplication is exact and
  // commutative, so any schedule yields the identical product anyway).
  std::vector<const std::pair<G2, G1>*> finite;
  finite.reserve(pairs.size());
  for (const auto& pr : pairs) {
    if (pr.first.is_infinity() || pr.second.is_infinity()) continue;
    finite.push_back(&pr);
  }
  const std::vector<Fq12> loops = parallel_map<Fq12>(finite.size(), [&](std::size_t i) {
    return miller_loop(G2Prepared(finite[i]->first), finite[i]->second);
  });
  Fq12 acc = Fq12::one();
  for (const Fq12& f : loops) acc *= f;
  return final_exponentiation(acc);
}

Fq12 pairing_product(const std::vector<std::pair<const G2Prepared*, G1>>& pairs) {
  std::vector<const std::pair<const G2Prepared*, G1>*> finite;
  finite.reserve(pairs.size());
  for (const auto& pr : pairs) {
    if (pr.first->is_infinity() || pr.second.is_infinity()) continue;
    finite.push_back(&pr);
  }
  const std::vector<Fq12> loops = parallel_map<Fq12>(
      finite.size(), [&](std::size_t i) { return miller_loop(*finite[i]->first, finite[i]->second); });
  Fq12 acc = Fq12::one();
  for (const Fq12& f : loops) acc *= f;
  return final_exponentiation(acc);
}

}  // namespace zl
