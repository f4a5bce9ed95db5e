// Field arithmetic tests: Montgomery Fp against a GMP reference model, and
// the Fq2/Fq6/Fq12 tower against algebraic identities.
#include <gtest/gtest.h>

#include <vector>

#include "ec/secp256k1.h"
#include "field/bn254.h"
#include "field/fp12.h"

namespace zl {
namespace {

TEST(Fp, ModulusMatchesPaperValues) {
  EXPECT_EQ(Fq::modulus_bigint(),
            bigint_from_decimal(
                "21888242871839275222246405745257275088696311157297823662689037894645226208583"));
  EXPECT_EQ(Fr::modulus_bigint(),
            bigint_from_decimal(
                "21888242871839275222246405745257275088548364400416034343698204186575808495617"));
}

TEST(Fp, BnPolynomialIdentities) {
  // q(x) = 36x^4 + 36x^3 + 24x^2 + 6x + 1, r(x) = 36x^4 + 36x^3 + 18x^2 + 6x + 1.
  const BigInt x = bn254_x();
  EXPECT_EQ(Fq::modulus_bigint(), 36 * x * x * x * x + 36 * x * x * x + 24 * x * x + 6 * x + 1);
  EXPECT_EQ(Fr::modulus_bigint(), 36 * x * x * x * x + 36 * x * x * x + 18 * x * x + 6 * x + 1);
  // trace t = 6x^2 + 1, and #E(Fq) = q + 1 - t = r.
  EXPECT_EQ(Fq::modulus_bigint() + 1 - (6 * x * x + 1), Fr::modulus_bigint());
}

TEST(Fp, BasicIdentities) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const Fq a = Fq::random(rng), b = Fq::random(rng), c = Fq::random(rng);
    EXPECT_EQ(a + Fq::zero(), a);
    EXPECT_EQ(a * Fq::one(), a);
    EXPECT_EQ(a - a, Fq::zero());
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) * c, a * c + b * c);
    EXPECT_EQ(a.squared(), a * a);
    EXPECT_EQ(a + (-a), Fq::zero());
  }
}

TEST(Fp, MatchesGmpReference) {
  Rng rng(2);
  const BigInt q = Fq::modulus_bigint();
  for (int i = 0; i < 100; ++i) {
    const Fq a = Fq::random(rng), b = Fq::random(rng);
    const BigInt ai = a.to_bigint(), bi = b.to_bigint();
    EXPECT_EQ((a + b).to_bigint(), (ai + bi) % q);
    EXPECT_EQ((a - b).to_bigint(), ((ai - bi) % q + q) % q);
    EXPECT_EQ((a * b).to_bigint(), (ai * bi) % q);
  }
}

TEST(Fp, InverseIsCorrect) {
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    const Fr a = Fr::random(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(a * a.inverse(), Fr::one());
  }
  EXPECT_THROW(Fr::zero().inverse(), std::domain_error);
}

template <typename F>
void expect_inverse_pinned_to_fermat_pow(Rng& rng) {
  const BigInt p_minus_2 = F::modulus_bigint() - 2;
  std::vector<F> values = {F::one(), -F::one(), F::from_u64(2)};
  for (int i = 0; i < 16; ++i) values.push_back(F::random(rng));
  for (const F& a : values) {
    if (a.is_zero()) continue;
    EXPECT_EQ(a.inverse(), a.pow(p_minus_2));
    EXPECT_EQ(a * a.inverse(), F::one());
  }
  EXPECT_THROW(F::zero().inverse(), std::domain_error);
}

TEST(Fp, WindowedInverseMatchesFermatPowOnEveryField) {
  // The fixed-window inverse walks the compile-time limbs of p - 2; the
  // bit-serial pow(p - 2) it replaced is the oracle. 1 and p - 1 bracket
  // the range; secp256k1's p has a full top window where BN254's has 3.
  Rng rng(31);
  expect_inverse_pinned_to_fermat_pow<Fq>(rng);
  expect_inverse_pinned_to_fermat_pow<Fr>(rng);
  expect_inverse_pinned_to_fermat_pow<SecpFp>(rng);
  expect_inverse_pinned_to_fermat_pow<SecpFn>(rng);
}

TEST(Fp, PowMatchesGmp) {
  Rng rng(4);
  const Fq a = Fq::random(rng);
  const BigInt e = bigint_from_decimal("123456789123456789123456789");
  EXPECT_EQ(a.pow(e).to_bigint(), mod_pow(a.to_bigint(), e, Fq::modulus_bigint()));
  EXPECT_EQ(a.pow(0), Fq::one());
  EXPECT_EQ(a.pow(1), a);
}

TEST(Fp, FermatLittleTheorem) {
  Rng rng(5);
  const Fq a = Fq::random(rng);
  EXPECT_EQ(a.pow(Fq::modulus_bigint() - 1), Fq::one());
}

TEST(Fp, BytesRoundTrip) {
  Rng rng(6);
  for (int i = 0; i < 20; ++i) {
    const Fr a = Fr::random(rng);
    const Bytes enc = a.to_bytes();
    EXPECT_EQ(enc.size(), 32u);
    EXPECT_EQ(Fr::from_bytes(enc), a);
  }
  EXPECT_EQ(Fr::from_u64(0).to_bytes(), Bytes(32, 0x00));
  // Non-canonical (>= r) encodings must be rejected.
  EXPECT_THROW(Fr::from_bytes(Bytes(32, 0xff)), std::invalid_argument);
  EXPECT_THROW(Fr::from_bytes(Bytes(31, 0x00)), std::invalid_argument);
}

TEST(Fp, FromBytesModReducesLargeValues) {
  const Bytes big(64, 0xab);
  const Fr v = Fr::from_bytes_mod(big);
  EXPECT_EQ(v.to_bigint(), bigint_from_bytes(big) % Fr::modulus_bigint());
}

TEST(Fp, MontSqrMatchesMontMulSelf) {
  // squared() dispatches to the dedicated Montgomery squaring kernel; it must
  // be bit-identical to the multiply route for random and edge inputs.
  Rng rng(77);
  for (int i = 0; i < 300; ++i) {
    const Fq a = Fq::random(rng);
    EXPECT_EQ(a.squared().to_bytes(), (a * a).to_bytes());
    const Fr b = Fr::random(rng);
    EXPECT_EQ(b.squared().to_bytes(), (b * b).to_bytes());
  }
  std::vector<BigInt> edges = {BigInt(0), BigInt(1), BigInt(2), Fq::modulus_bigint() - 1,
                               Fq::modulus_bigint() - 2};
  for (const int bit : {63, 64, 127, 128, 191, 192, 253}) {
    edges.push_back(BigInt(1) << bit);        // limb-boundary carries
    edges.push_back((BigInt(1) << bit) - 1);  // all-ones below the boundary
  }
  for (const BigInt& e : edges) {
    const Fq a = Fq::from_bigint(e);
    EXPECT_EQ(a.squared().to_bytes(), (a * a).to_bytes());
    const Fr b = Fr::from_bigint(e % Fr::modulus_bigint());
    EXPECT_EQ(b.squared().to_bytes(), (b * b).to_bytes());
  }
}

TEST(Fp, PortableOraclesPinDispatchedKernels) {
  // mul_portable / sqr_portable are the always-compiled product-scanning
  // oracles; whatever operator* / squared() dispatch to (the generic kernel
  // or the ZL_NATIVE mulx path) must produce identical bytes.
  Rng rng(78);
  for (int i = 0; i < 300; ++i) {
    const Fq a = Fq::random(rng), b = Fq::random(rng);
    EXPECT_EQ((a * b).to_bytes(), a.mul_portable(b).to_bytes());
    EXPECT_EQ(a.squared().to_bytes(), a.sqr_portable().to_bytes());
    EXPECT_EQ(a.sqr_portable().to_bytes(), a.mul_portable(a).to_bytes());
    const Fr c = Fr::random(rng), d = Fr::random(rng);
    EXPECT_EQ((c * d).to_bytes(), c.mul_portable(d).to_bytes());
    EXPECT_EQ(c.squared().to_bytes(), c.sqr_portable().to_bytes());
  }
}

TEST(Fp, FrTwoAdicity) {
  const BigInt r = Fr::modulus_bigint();
  BigInt odd = r - 1;
  unsigned s = 0;
  while (odd % 2 == 0) {
    odd /= 2;
    ++s;
  }
  EXPECT_EQ(s, kFrTwoAdicity);
  // 5^((r-1)/2^28) generates the full 2^28-torsion: order exactly 2^28.
  const Fr g = Fr::from_u64(kFrMultiplicativeGenerator);
  const Fr omega = g.pow((r - 1) / (BigInt(1) << kFrTwoAdicity));
  EXPECT_EQ(omega.pow(BigInt(1) << kFrTwoAdicity), Fr::one());
  EXPECT_NE(omega.pow(BigInt(1) << (kFrTwoAdicity - 1)), Fr::one());
}

TEST(Fq2, FieldAxiomsAndInverse) {
  Rng rng(7);
  for (int i = 0; i < 30; ++i) {
    const Fq2 a = Fq2::random(rng), b = Fq2::random(rng), c = Fq2::random(rng);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a.squared(), a * a);
    if (!a.is_zero()) { EXPECT_EQ(a * a.inverse(), Fq2::one()); }
  }
}

TEST(Fq2, USquaredIsMinusOne) {
  const Fq2 u(Fq::zero(), Fq::one());
  EXPECT_EQ(u.squared(), Fq2(-Fq::one(), Fq::zero()));
}

TEST(Fq2, XiMulMatchesGeneric) {
  Rng rng(8);
  for (int i = 0; i < 20; ++i) {
    const Fq2 a = Fq2::random(rng);
    EXPECT_EQ(a.mul_by_xi(), a * Fq2::xi());
  }
}

TEST(Fq2, FrobeniusIsQthPower) {
  Rng rng(9);
  const Fq2 a = Fq2::random(rng);
  EXPECT_EQ(a.frobenius(), a.pow(Fq::modulus_bigint()));
}

TEST(Fq6, FieldAxiomsAndInverse) {
  Rng rng(10);
  for (int i = 0; i < 15; ++i) {
    const Fq6 a = Fq6::random(rng), b = Fq6::random(rng), c = Fq6::random(rng);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    if (!a.is_zero()) { EXPECT_EQ(a * a.inverse(), Fq6::one()); }
  }
}

TEST(Fq6, VCubedIsXi) {
  const Fq6 v(Fq2::zero(), Fq2::one(), Fq2::zero());
  const Fq6 xi(Fq2::xi(), Fq2::zero(), Fq2::zero());
  EXPECT_EQ(v * v * v, xi);
}

TEST(Fq6, MulByVMatchesGeneric) {
  Rng rng(11);
  const Fq6 v(Fq2::zero(), Fq2::one(), Fq2::zero());
  for (int i = 0; i < 10; ++i) {
    const Fq6 a = Fq6::random(rng);
    EXPECT_EQ(a.mul_by_v(), a * v);
  }
}

TEST(Fq12, FieldAxiomsAndInverse) {
  Rng rng(12);
  for (int i = 0; i < 10; ++i) {
    const Fq12 a = Fq12::random(rng), b = Fq12::random(rng), c = Fq12::random(rng);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    if (!a.is_zero()) { EXPECT_EQ(a * a.inverse(), Fq12::one()); }
  }
}

TEST(Fq12, ComplexSquaringMatchesProduct) {
  Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    const Fq12 a = Fq12::random(rng);
    EXPECT_EQ(a.squared(), a * a);
  }
  EXPECT_EQ(Fq12::zero().squared(), Fq12::zero());
  EXPECT_EQ(Fq12::one().squared(), Fq12::one());
}

TEST(Fq6, SparseProductMatchesGeneric) {
  Rng rng(18);
  for (int i = 0; i < 10; ++i) {
    const Fq6 a = Fq6::random(rng);
    const Fq2 b0 = Fq2::random(rng), b1 = Fq2::random(rng);
    EXPECT_EQ(a.mul_by_01(b0, b1), a * Fq6(b0, b1, Fq2::zero()));
  }
}

TEST(Fq12, SparseLineProductMatchesGeneric) {
  // mul_by_034(c0, c3, c4) multiplies by c0 + (c3 + c4 v) w.
  Rng rng(19);
  for (int i = 0; i < 10; ++i) {
    const Fq12 f = Fq12::random(rng);
    const Fq2 c0 = Fq2::random(rng), c3 = Fq2::random(rng), c4 = Fq2::random(rng);
    const Fq12 line(Fq6(c0, Fq2::zero(), Fq2::zero()), Fq6(c3, c4, Fq2::zero()));
    EXPECT_EQ(f.mul_by_034(c0, c3, c4), f * line);
  }
}

TEST(Fq12, WSquaredIsV) {
  const Fq12 w(Fq6::zero(), Fq6::one());
  const Fq12 v(Fq6(Fq2::zero(), Fq2::one(), Fq2::zero()), Fq6::zero());
  EXPECT_EQ(w.squared(), v);
}

TEST(Fq12, WCoefficientsRoundTrip) {
  Rng rng(13);
  const Fq12 a = Fq12::random(rng);
  EXPECT_EQ(Fq12::from_w_coefficients(a.w_coefficients()), a);
}

TEST(Fq12, FrobeniusIsQthPower) {
  Rng rng(14);
  const Fq12 a = Fq12::random(rng);
  EXPECT_EQ(a.frobenius(), a.pow(Fq::modulus_bigint()));
}

TEST(Fq12, FrobeniusPowerComposes) {
  Rng rng(15);
  const Fq12 a = Fq12::random(rng);
  EXPECT_EQ(a.frobenius_power(2), a.frobenius().frobenius());
  EXPECT_EQ(a.frobenius_power(12), a);  // Frobenius has order 12
}

TEST(Fq12, ConjugateIsFrobenius6) {
  Rng rng(16);
  const Fq12 a = Fq12::random(rng);
  EXPECT_EQ(a.conjugate(), a.frobenius_power(6));
}

}  // namespace
}  // namespace zl
