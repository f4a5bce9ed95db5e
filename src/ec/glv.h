#pragma once
// GLV endomorphism and the joint wNAF multi-scalar kernel (DESIGN.md §11).
//
// Every Weierstrass group here — BN254 G1 and G2, secp256k1 — lives on a
// j-invariant-0 curve y^2 = x^3 + b. When the coordinate field's prime q and
// the group order n are both 1 mod 3, x -> s*x for a cube root of unity s
// in F_q is a group endomorphism phi with phi(P) = lambda*P on the order-n
// subgroup, where lambda is a cube root of unity mod n (lambda^2 + lambda +
// 1 = 0 mod n). For G2 the same root embedded into Fq2 works, since
// (s*x)^3 = x^3 on the twist as well. A scalar k then splits into two
// ~sqrt(n) half-scalars k = k1 + k2*lambda (mod n) via Babai rounding on the
// lattice of vectors (a, b) with a + b*lambda = 0 (mod n), and k*P becomes
// the joint multi-scalar k1*P + k2*phi(P) — half the doublings of the plain
// ladder.
//
// All constants are derived at first use from Point::Field and
// Point::order() and self-verified per group (phi(G) == lambda*G over the
// {s, s^2} x {lambda, lambda^2} candidates, lattice membership, determinant
// == ±n), so there are no unvalidated magic numbers.
//
// One joint kernel, wnaf_mul, serves every public-scalar multiplication
// built on the split: it walks 1-4 (table, scalar) terms under one shared
// doubling chain, each scalar recoded as a width-w signed NAF against an
// affine table of the point's odd multiples P, 3P, ..., (2^(w-1)-1)P, so
// every addition is a mixed add. Per-call tables (glv_mul's base, an ECDSA
// public key) are normalized with one inversion; the generator's tables (G
// and phi(G), a wider window) are built once per group.
//
// SECRET-SCALAR POLICY: the decomposition and the digit walk are
// variable-time in the scalar, so every entry point guards with ct::branch
// and the CT harness aborts on tainted input. The one secret-scalar entry,
// generator_mul_blinded, masks the scalar as k + t*n for a fresh 64-bit t
// and walks that mask unreduced — reducing it mod n (or splitting it with
// GLV, which reduces first) would hand the walk k itself.

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/ct.h"
#include "ec/bn254_groups.h"

namespace zl {

/// Signed half-scalar split k = k1 + k2*lambda (mod n), |k1|, |k2| <~ sqrt(n).
struct GlvDecomposition {
  BigInt k1;
  BigInt k2;
};

/// One term of the joint kernel: scalar * P, where `table` holds P's odd
/// multiples P, 3P, ..., (2^(width-1)-1)P in affine form. A negative scalar
/// walks |scalar| against the negated table. The scalar is held by
/// reference so the taint guard inspects the caller's own limbs (a copy
/// would be a fresh, untainted buffer).
template <typename Point>
struct WnafTerm {
  const typename Point::Affine* table;
  unsigned width;
  const BigInt& scalar;
};

namespace detail {

/// Short lattice basis v1 = (a1, b1), v2 = (a2, b2); each satisfies
/// a + b*lambda == 0 (mod n) with ~sqrt(n) components.
struct GlvLattice {
  BigInt a1, b1, a2, b2;
};

/// round(num / den) as floor((2*num + den) / (2*den)) with den > 0 (GMP
/// floor division); flips signs first so the denominator is positive.
inline BigInt round_div(BigInt num, BigInt den) {
  if (den < 0) {
    den = -den;
    num = -num;
  }
  BigInt q;
  mpz_fdiv_q(q.get_mpz_t(), BigInt(2 * num + den).get_mpz_t(), BigInt(2 * den).get_mpz_t());
  return q;
}

/// A primitive cube root of unity in the prime field F (self-verified).
template <typename F>
F prime_field_cube_root() {
  const BigInt& q = F::modulus_bigint();
  if ((q - 1) % 3 != 0) throw std::logic_error("glv: q must be 1 mod 3 on a j=0 curve");
  // Raise small bases to (q-1)/3 until the result is != 1. Any such value
  // has multiplicative order exactly 3 (a primitive cube root).
  const BigInt qexp = (q - 1) / 3;
  for (std::uint64_t i = 2;; ++i) {
    const F cand = F::from_u64(i).pow(qexp);
    if (!(cand == F::one())) {
      if (!(cand * cand * cand == F::one())) {
        throw std::logic_error("glv: beta is not a cube root of unity");
      }
      return cand;
    }
  }
}

/// The two primitive cube roots of unity mod the prime n: {lambda, lambda^2}.
inline std::array<BigInt, 2> glv_lambda_candidates(const BigInt& n) {
  if ((n - 1) % 3 != 0) throw std::logic_error("glv: the group order must be 1 mod 3");
  const BigInt nexp = (n - 1) / 3;
  for (unsigned long i = 2;; ++i) {
    const BigInt lam = mod_pow(BigInt(i), nexp, n);
    if (lam != 1) {
      // lambda^2 + lambda + 1 == 0 (mod n) for a primitive cube root.
      const BigInt rel = (lam * lam + lam + 1) % n;
      if (rel != 0) throw std::logic_error("glv: lambda is not a primitive cube root");
      return {lam, BigInt((lam * lam) % n)};
    }
  }
}

/// Short basis for the eigenvalue lambda mod n via the extended Euclidean
/// algorithm on (n, lambda); self-checks membership and determinant.
inline GlvLattice glv_lattice(const BigInt& lambda, const BigInt& n) {
  // Extended Euclid on (n, lambda) (GLV'01 §4): every row satisfies
  // s_i*n + t_i*lambda = rem_i, so (rem_i, -t_i) is a lattice vector. Stop
  // at the first remainder below sqrt(n); that row and the shorter of its
  // two neighbours give two independent short vectors.
  BigInt rem0 = n, rem1 = lambda;
  BigInt t0 = 0, t1 = 1;
  const BigInt sqrt_n = sqrt(n);
  while (rem1 >= sqrt_n) {
    const BigInt quot = rem0 / rem1;
    const BigInt rem2 = rem0 - quot * rem1;
    const BigInt t2 = t0 - quot * t1;
    rem0 = rem1;
    rem1 = rem2;
    t0 = t1;
    t1 = t2;
  }
  // rem1 < sqrt(n) <= rem0 here: v1 is the first short row; v2 is the
  // shorter of the preceding row and the next one.
  const BigInt quot = rem0 / rem1;
  const BigInt rem2 = rem0 - quot * rem1;
  const BigInt t2 = t0 - quot * t1;
  GlvLattice lat;
  lat.a1 = rem1;
  lat.b1 = -t1;
  if (rem0 * rem0 + t0 * t0 <= rem2 * rem2 + t2 * t2) {
    lat.a2 = rem0;
    lat.b2 = -t0;
  } else {
    lat.a2 = rem2;
    lat.b2 = -t2;
  }

  // Self-check: both vectors are in the lattice and span it (det == ±n).
  for (const auto& [a, b] : {std::pair{lat.a1, lat.b1}, std::pair{lat.a2, lat.b2}}) {
    if ((a + b * lambda) % n != 0) throw std::logic_error("glv: basis vector not in the lattice");
  }
  const BigInt det = lat.a1 * lat.b2 - lat.a2 * lat.b1;
  if (det != n && det != -n) throw std::logic_error("glv: basis does not span the lattice");
  return lat;
}

/// Babai rounding of k mod n against the basis (no taint guard: callers
/// guard).
inline GlvDecomposition glv_decompose_lattice(const BigInt& k, const GlvLattice& lat,
                                              const BigInt& n) {
  BigInt kn = k % n;
  if (kn < 0) kn += n;
  // Solve (k, 0) = c1*v1 + c2*v2 over Q and round each coefficient to the
  // nearest integer. The residual (k1, k2) is the distance to the nearest
  // lattice point, so both components are bounded by the basis norms.
  const BigInt det = lat.a1 * lat.b2 - lat.a2 * lat.b1;  // == ±n, checked at init
  const BigInt c1 = round_div(kn * lat.b2, det);
  const BigInt c2 = round_div(-(kn * lat.b1), det);
  GlvDecomposition d;
  d.k1 = kn - c1 * lat.a1 - c2 * lat.a2;
  d.k2 = -(c1 * lat.b1 + c2 * lat.b2);
  return d;
}

/// The prime field under a coordinate field: itself, or Fq under Fq2.
template <typename Field>
struct PrimeSubfield {
  using type = Field;
};
template <>
struct PrimeSubfield<Fq2> {
  using type = Fq;
};

/// Per-group constants: the field-embedded endomorphism scale and the
/// matching eigenvalue + lattice, derived and verified on the generator.
template <typename Point>
struct GlvCurve {
  typename Point::Field endo_scale;
  BigInt lambda;
  GlvLattice lattice;
};

template <typename Point>
const GlvCurve<Point>& glv_curve() {
  static const GlvCurve<Point> c = [] {
    using Field = typename Point::Field;
    using Prime = typename PrimeSubfield<Field>::type;
    const Prime beta = prime_field_cube_root<Prime>();
    const auto embed = [](const Prime& b) {
      if constexpr (std::is_same_v<Field, Prime>) {
        return b;
      } else {
        return Field(b, Prime::zero());
      }
    };
    const BigInt& n = Point::order();
    const Point gen = Point::generator();
    // Exactly one of the four (scale, eigenvalue) pairings matches this
    // group's restriction of the automorphism; find and verify it.
    for (const Prime& b : {beta, beta * beta}) {
      const Field scale = embed(b);
      const Point phi_gen = Point::from_jacobian_unchecked(scale * gen.jacobian_x(),
                                                           gen.jacobian_y(), gen.jacobian_z());
      for (const BigInt& lam : glv_lambda_candidates(n)) {
        if (gen * lam == phi_gen) {
          return GlvCurve<Point>{scale, lam, glv_lattice(lam, n)};
        }
      }
    }
    throw std::logic_error("glv: no (beta, lambda) pairing matches the endomorphism");
  }();
  return c;
}

/// Window of per-call tables (8 odd multiples) and of the generator's
/// fixed tables (64 odd multiples each of G and phi(G)). Digits of a
/// width-w NAF fit an int8 for w <= 8.
inline constexpr unsigned kWnafCallWindow = 5;
inline constexpr unsigned kWnafGeneratorWindow = 8;

/// Scalars the kernel accepts: below 2^384 (a blinded 256-bit scalar
/// k + t*n with a 64-bit t is below 2^321).
inline constexpr std::size_t kWnafMaxLimbs = 6;
inline constexpr std::size_t kWnafMaxDigits = kWnafMaxLimbs * 64 + 1;

/// Width-w signed NAF of |k|, least significant digit first, into
/// digits[0, kWnafMaxDigits): every nonzero digit is odd, below 2^(w-1) in
/// magnitude, and followed by at least w-1 zeros. Returns the digit count
/// (index of the top nonzero digit + 1).
inline unsigned wnaf_digits(const BigInt& k, unsigned w, std::int8_t* digits) {
  if (mpz_size(k.get_mpz_t()) > kWnafMaxLimbs) {
    throw std::invalid_argument("wnaf_mul: scalar wider than 384 bits");
  }
  // One zero guard limb so window reads past the top bit stay in bounds.
  std::array<std::uint64_t, kWnafMaxLimbs + 1> limbs{};
  std::size_t count = 0;
  mpz_export(limbs.data(), &count, -1, sizeof(std::uint64_t), 0, 0, k.get_mpz_t());
  const auto bits_at = [&limbs](unsigned pos, unsigned len) {
    const unsigned limb = pos / 64, off = pos % 64;
    std::uint64_t v = limbs[limb] >> off;
    if (off + len > 64) v |= limbs[limb + 1] << (64 - off);
    return static_cast<unsigned>(v & ((std::uint64_t{1} << len) - 1));
  };
  std::fill(digits, digits + kWnafMaxDigits, std::int8_t{0});
  const unsigned bits = k == 0 ? 0 : static_cast<unsigned>(mpz_sizeinbase(k.get_mpz_t(), 2));
  // Scan for the next bit that differs from the pending carry; the w-bit
  // window there (plus carry) is odd, and re-centring it into
  // (-2^(w-1), 2^(w-1)) carries into the next window. A final carry lands
  // at position `bits`, so bits + 1 digits always suffice.
  unsigned carry = 0, len = 0;
  for (unsigned pos = 0; pos <= bits;) {
    if (bits_at(pos, 1) == carry) {
      ++pos;
      continue;
    }
    const unsigned word = bits_at(pos, w) + carry;
    carry = word >> (w - 1);
    digits[pos] = static_cast<std::int8_t>(static_cast<int>(word) - static_cast<int>(carry << w));
    len = pos + 1;
    pos += w;
  }
  return len;
}

/// Affine odd multiples P, 3P, ..., (2^(w-1)-1)P followed by their
/// endomorphism images phi(P), 3phi(P), ...: two width-w tables from one
/// Jacobian chain and one inversion (phi is (x, y) -> (s*x, y) in affine).
template <typename Point>
std::vector<typename Point::Affine> glv_tables(const Point& p, unsigned w) {
  using Affine = typename Point::Affine;
  const std::size_t per = std::size_t{1} << (w - 2);
  std::vector<Point> odd;
  odd.reserve(per);
  odd.push_back(p);
  const Point twice = p.dbl();
  while (odd.size() < per) odd.push_back(odd.back() + twice);
  std::vector<Affine> table = Point::normalize(odd);
  const typename Point::Field& scale = glv_curve<Point>().endo_scale;
  table.reserve(2 * per);
  for (std::size_t i = 0; i < per; ++i) {
    const Affine a = table[i];
    table.push_back(a.infinity ? Affine{} : Affine{scale * a.x, a.y, false});
  }
  return table;
}

/// The generator's fixed tables (G, then phi(G)), built once per group.
template <typename Point>
const std::vector<typename Point::Affine>& generator_tables() {
  static const std::vector<typename Point::Affine> tables =
      glv_tables(Point::generator(), kWnafGeneratorWindow);
  return tables;
}

}  // namespace detail

/// The joint kernel: sum of scalar_i * P_i over 1-4 terms with one shared
/// doubling chain, each term walking its scalar's width-w signed NAF
/// against its affine table with mixed additions. Variable-time in every
/// scalar: rejects tainted scalars via ct::branch.
template <typename Point>
Point wnaf_mul(std::initializer_list<WnafTerm<Point>> terms) {
  constexpr std::size_t kMaxTerms = 4;
  if (terms.size() == 0 || terms.size() > kMaxTerms) {
    throw std::invalid_argument("wnaf_mul: expects 1-4 terms");
  }
  std::array<std::array<std::int8_t, detail::kWnafMaxDigits>, kMaxTerms> digits;
  std::array<bool, kMaxTerms> negative{};
  unsigned len = 0;
  std::size_t t = 0;
  for (const WnafTerm<Point>& term : terms) {
    ct::branch(term.scalar,
               "wnaf_mul: the signed-digit walk is variable-time in the scalar — blind secret "
               "scalars first (generator_mul_blinded)");
    if (term.width < 2 || term.width > 8) {
      throw std::invalid_argument("wnaf_mul: width not in [2, 8]");
    }
    len = std::max(len, detail::wnaf_digits(term.scalar, term.width, digits[t].data()));
    negative[t] = term.scalar < 0;
    ++t;
  }
  Point acc = Point::infinity();
  for (unsigned i = len; i-- > 0;) {
    acc = acc.dbl();
    t = 0;
    for (const WnafTerm<Point>& term : terms) {
      const int d = digits[t][i];
      if (d != 0) {
        const typename Point::Affine& entry = term.table[(d < 0 ? -d : d) >> 1];
        acc = acc.add_mixed((d < 0) != negative[t] ? entry.negated() : entry);
      }
      ++t;
    }
  }
  return acc;
}

/// Babai-rounded lattice decomposition of k (mod n). Variable-time in k:
/// rejects tainted scalars via ct::branch.
template <typename Point = G1>
GlvDecomposition glv_decompose(const BigInt& k) {
  ct::branch(k,
             "glv_decompose: the decomposition and joint ladder are variable-time in the "
             "scalar — use generator_mul_blinded for secret scalars");
  return detail::glv_decompose_lattice(k, detail::glv_curve<Point>().lattice, Point::order());
}

/// k*P via the endomorphism split and the joint kernel. PUBLIC scalars
/// only.
template <typename Point>
Point glv_mul(const Point& p, const BigInt& k) {
  const GlvDecomposition d = glv_decompose<Point>(k);  // guards tainted k
  if (p.is_infinity()) return p;
  constexpr unsigned w = detail::kWnafCallWindow;
  const auto table = detail::glv_tables(p, w);
  return wnaf_mul<Point>({{table.data(), w, d.k1}, {table.data() + table.size() / 2, w, d.k2}});
}

template <typename Point>
Point glv_mul(const Point& p, const Fr& s) {
  return glv_mul(p, s.to_bigint());
}

/// a*G + b*Q for PUBLIC scalars (ECDSA verification): four half-scalars in
/// one joint pass — a's halves against the generator's fixed tables, b's
/// against Q's per-call tables.
template <typename Point>
Point generator_double_mul(const BigInt& a, const Point& q, const BigInt& b) {
  const GlvDecomposition da = glv_decompose<Point>(a);  // guards tainted a
  const GlvDecomposition db = glv_decompose<Point>(b);  // guards tainted b
  const auto& g = detail::generator_tables<Point>();
  const std::vector<typename Point::Affine> qt = detail::glv_tables(q, detail::kWnafCallWindow);
  constexpr unsigned wg = detail::kWnafGeneratorWindow, wq = detail::kWnafCallWindow;
  return wnaf_mul<Point>({{g.data(), wg, da.k1},
                          {g.data() + g.size() / 2, wg, da.k2},
                          {qt.data(), wq, db.k1},
                          {qt.data() + qt.size() / 2, wq, db.k2}});
}

/// k*G for a SECRET k (key generation, signing nonces): the fixed-base walk
/// runs on the unreduced mask k + t*n for a fresh 64-bit t (one
/// rng.next_u64()), so the executed digit pattern is decorrelated from k on
/// every call while the result is unchanged (n*G = O).
template <typename Point>
Point generator_mul_blinded(const BigInt& k, Rng& rng) {
  BigInt masked = k + Point::order() * BigInt(rng.next_u64());
  ct::declassify(masked);  // blinded: safe for the variable-time walk
  return wnaf_mul<Point>(
      {{detail::generator_tables<Point>().data(), detail::kWnafGeneratorWindow, masked}});
}

/// G1 constants, exposed for tests and documentation.
inline const Fq& glv_beta() { return detail::glv_curve<G1>().endo_scale; }
inline const BigInt& glv_lambda() { return detail::glv_curve<G1>().lambda; }

}  // namespace zl
