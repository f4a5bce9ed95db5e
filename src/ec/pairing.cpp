#include "ec/pairing.h"

#include <algorithm>
#include <cstdint>
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

/// Frobenius twist constants: psi(x, y) = (conj(x) gx, conj(y) gy) with
/// gx = xi^((q-1)/3), gy = xi^((q-1)/2), from the untwist (x w^2, y w^3).
const std::pair<Fq2, Fq2>& psi_constants() {
  static const std::pair<Fq2, Fq2> c = [] {
    const BigInt& q = Fq::modulus_bigint();
    return std::make_pair(Fq2::xi().pow((q - 1) / 3), Fq2::xi().pow((q - 1) / 2));
  }();
  return c;
}

/// psi on affine coordinates: two conjugations and two Fq2 products.
std::pair<Fq2, Fq2> psi_affine(const Fq2& x, const Fq2& y) {
  const auto& [gx, gy] = psi_constants();
  return {x.conjugate() * gx, y.conjugate() * gy};
}

/// The signed-binary (NAF) digits of the optimal ate loop count 6x + 2
/// below its top digit, most significant first: one Miller step each, with
/// an addition step of +Q (digit 1) or -Q (digit -1) where it is nonzero.
/// 65 steps, 21 of them with an addition.
const std::vector<std::int8_t>& miller_steps() {
  static const std::vector<std::int8_t> steps = [] {
    BigInt k = 6 * bn254_x() + 2;
    std::vector<std::int8_t> naf;  // least significant first
    while (k > 0) {
      std::int8_t d = 0;
      if (mpz_odd_p(k.get_mpz_t())) {
        d = mpz_tstbit(k.get_mpz_t(), 1) ? -1 : 1;  // k - d = 0 (mod 4)
        k -= d;
      }
      naf.push_back(d);
      k /= 2;
    }
    return std::vector<std::int8_t>(naf.rbegin() + 1, naf.rend());
  }();
  return steps;
}

/// Multi-Miller loop over n finite pairs (qs[k], ps[k]): one accumulator,
/// squared once per step for all pairs, with each pair's precomputed line
/// folded in by a sparse product. Every schedule has the same shape, so one
/// line index walks all of them in step; the two Frobenius lines come last.
Fq12 multi_miller_loop(const G2Prepared* const* qs, const G1::Affine* ps, std::size_t n) {
  Fq12 f = Fq12::one();
  std::size_t idx = 0;
  const auto fold_lines = [&] {
    for (std::size_t k = 0; k < n; ++k) {
      const LineCoefficients& l = qs[k]->coefficients()[idx];
      f = f.mul_by_034(l.ell_vw.scalar_mul(ps[k].y), l.ell_vv.scalar_mul(ps[k].x), l.ell_0);
    }
    ++idx;
  };
  for (const std::int8_t digit : miller_steps()) {
    if (idx > 0) f = f.squared();  // the first square is of one
    fold_lines();
    if (digit != 0) fold_lines();
  }
  fold_lines();  // through psi(Q)
  fold_lines();  // through -psi^2(Q)
  return f;
}

}  // namespace

G2Prepared::G2Prepared(const G2& q) {
  if (q.is_infinity()) return;
  infinity_ = false;
  const auto [qx, qy] = q.to_affine();
  Fq2 x = qx, y = qy, z = Fq2::one();
  const Fq2 twist_b = Bn254G2Params::b();

  // One line per doubling, one per nonzero digit, and the two Frobenius
  // lines. On a prime-order Q no step is degenerate: the running point is
  // [k]Q with 1 < k < 6x + 2 < r when a digit adds +-Q, and the Frobenius
  // additions meet [6x + 2]Q = -[q - q^2 + q^3]Q and [q^2 - q^3]Q, neither
  // of which is +-its summand.
  const std::vector<std::int8_t>& steps = miller_steps();
  const auto additions = std::count_if(steps.begin(), steps.end(), [](auto d) { return d != 0; });
  coeffs_.reserve(steps.size() + static_cast<std::size_t>(additions) + 2);
  for (const std::int8_t digit : steps) {
    coeffs_.push_back(doubling_step(x, y, z, twist_b));
    if (digit != 0) coeffs_.push_back(addition_step(x, y, z, qx, digit > 0 ? qy : -qy));
  }
  // The running point is now [6x + 2]Q. Add psi(Q), then -psi^2(Q), both
  // affine (psi needs no inversion), with the lines through them.
  const auto [q1x, q1y] = psi_affine(qx, qy);
  const auto [q2x, q2y] = psi_affine(q1x, q1y);
  coeffs_.push_back(addition_step(x, y, z, q1x, q1y));
  coeffs_.push_back(addition_step(x, y, z, q2x, -q2y));
  // The end point is [6x + 2]Q + psi(Q) - psi^2(Q) in homogeneous
  // coordinates, unless some addition step met +-its summand, which leaves
  // Z = 0 for good. Q is in G2 iff Z != 0 and the end point is -psi^3(Q).
  const auto [q3x, q3y] = psi_affine(q2x, q2y);
  in_g2_ = !z.is_zero() && x == q3x * z && y == -(q3y * z);
}

Fq12 miller_loop(const G2Prepared& q, const G1& p) {
  if (q.is_infinity() || p.is_infinity()) {
    throw std::invalid_argument("miller_loop: inputs must be finite points");
  }
  const G2Prepared* const qp = &q;
  const G1::Affine pa = p.to_affine_checked();
  return multi_miller_loop(&qp, &pa, 1);
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
  std::vector<G2Prepared> prepared(pairs.size());
  parallel_for(
      pairs.size(), [&](std::size_t i) { prepared[i] = G2Prepared(pairs[i].first); },
      /*min_grain=*/1);
  std::vector<std::pair<const G2Prepared*, G1>> prepared_pairs;
  prepared_pairs.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    prepared_pairs.emplace_back(&prepared[i], pairs[i].second);
  }
  return pairing_product(prepared_pairs);
}

Fq12 pairing_product(const std::vector<std::pair<const G2Prepared*, G1>>& pairs) {
  std::vector<const G2Prepared*> qs;
  std::vector<G1> ps;
  qs.reserve(pairs.size());
  ps.reserve(pairs.size());
  for (const auto& [q, p] : pairs) {
    if (q->is_infinity() || p.is_infinity()) continue;
    qs.push_back(q);
    ps.push_back(p);
  }
  if (qs.empty()) return Fq12::one();
  const std::vector<G1::Affine> affine = G1::normalize(ps);  // one shared inversion
  // Each slice pays its own squaring chain (about one pair's worth of line
  // products), so a slice takes at least kMinPairsPerSlice pairs, and a call
  // nested in a parallel region stays one slice.
  constexpr std::size_t kMinPairsPerSlice = 4;
  std::size_t slices = qs.size() / kMinPairsPerSlice;
  if (slices > num_threads()) slices = num_threads();
  if (slices < 1 || detail::in_parallel_region()) slices = 1;
  std::vector<Fq12> partial(slices, Fq12::one());
  ThreadPool::instance().run(slices, [&](std::size_t c) {
    const auto [begin, end] = chunk_range(qs.size(), slices, c);
    partial[c] = multi_miller_loop(qs.data() + begin, affine.data() + begin, end - begin);
  });
  Fq12 acc = partial[0];
  for (std::size_t c = 1; c < slices; ++c) acc *= partial[c];
  return final_exponentiation(acc);
}

G2 g2_psi(const G2& q) {
  const auto& [gx, gy] = psi_constants();
  return G2::from_jacobian_unchecked(q.jacobian_x().conjugate() * gx,
                                     q.jacobian_y().conjugate() * gy,
                                     q.jacobian_z().conjugate());
}

}  // namespace zl
