// Fast pairing engine tests: the G2Prepared / sparse-line / cyclotomic path
// must be bit-identical to the textbook pairing oracle (kernel_oracles.h) on
// every input, and the prepared Groth16 verifier must agree with the
// unprepared one.
#include <gtest/gtest.h>

#include <stdexcept>

#include "common/thread_pool.h"
#include "ec/pairing.h"
#include "kernel_oracles.h"
#include "snark/groth16.h"

namespace zl {
namespace {

TEST(FastPairing, BitIdenticalToTextbook) {
  Rng rng(401);
  for (int i = 0; i < 4; ++i) {
    const G1 p = G1::generator() * Fr::random(rng);
    const G2 q = G2::generator() * Fr::random(rng);
    const Fq12 fast = pairing(q, p);
    const Fq12 slow = oracle::pairing_textbook(q, p);
    EXPECT_EQ(fast, slow) << "sample " << i;
  }
}

TEST(FastPairing, ProductBitIdenticalToTextbook) {
  Rng rng(402);
  std::vector<std::pair<G2, G1>> pairs;
  for (int i = 0; i < 3; ++i) {
    pairs.emplace_back(G2::generator() * Fr::random(rng), G1::generator() * Fr::random(rng));
  }
  EXPECT_EQ(pairing_product(pairs), oracle::pairing_product_textbook(pairs));
  // A cancelling product must still be one through the fast path.
  const G1 p = G1::generator() * 3;
  const G2 q = G2::generator() * 5;
  EXPECT_TRUE(pairing_product({{q, p}, {-q, p}}).is_one());
}

TEST(FastPairing, PreparedMatchesOnTheFly) {
  Rng rng(403);
  const G1 p = G1::generator() * Fr::random(rng);
  const G2 q = G2::generator() * Fr::random(rng);
  const G2Prepared prep(q);
  EXPECT_FALSE(prep.is_infinity());
  EXPECT_EQ(pairing(prep, p), pairing(q, p));
  EXPECT_EQ(final_exponentiation(miller_loop(prep, p)), pairing(q, p));
  // Prepared product, reusing one schedule across entries.
  const G1 p2 = G1::generator() * Fr::random(rng);
  const std::vector<std::pair<const G2Prepared*, G1>> prepared_pairs = {{&prep, p}, {&prep, p2}};
  EXPECT_EQ(pairing_product(prepared_pairs), pairing_product({{q, p}, {q, p2}}));
}

TEST(FastPairing, BilinearThroughPrepared) {
  Rng rng(404);
  const G1 p = G1::generator() * Fr::random(rng);
  const G2 q = G2::generator() * Fr::random(rng);
  const BigInt a = 3 + random_below(rng, BigInt(1) << 120);
  const G2Prepared prep(q);
  const Fq12 e = pairing(prep, p);
  EXPECT_FALSE(e.is_one()) << "pairing must be non-degenerate";
  EXPECT_EQ(pairing(prep, p * a), e.pow(a));
  EXPECT_EQ(pairing(G2Prepared(q * a), p), e.pow(a));
}

TEST(FastPairing, InfinityHandling) {
  const G1 p = G1::generator();
  const G2 q = G2::generator();
  const G2Prepared prep_inf{};  // default-constructed == infinity
  EXPECT_TRUE(prep_inf.is_infinity());
  EXPECT_TRUE(G2Prepared(G2::infinity()).is_infinity());
  EXPECT_TRUE(prep_inf.coefficients().empty());
  EXPECT_TRUE(pairing(prep_inf, p).is_one());
  EXPECT_TRUE(pairing(G2Prepared(q), G1::infinity()).is_one());
  EXPECT_THROW(miller_loop(prep_inf, p), std::invalid_argument);
  EXPECT_THROW(miller_loop(G2Prepared(q), G1::infinity()), std::invalid_argument);
  // Product entries at infinity contribute the identity, prepared or not.
  const G2Prepared prep(q);
  const std::vector<std::pair<const G2Prepared*, G1>> mixed = {
      {&prep, p * 7}, {&prep_inf, p}, {&prep, G1::infinity()}};
  EXPECT_EQ(pairing_product(mixed), pairing(q, p * 7));
}

TEST(FastPairing, MultiMillerProductMatchesSeparatePairingsAtEveryThreadCount) {
  // Enough pairs for several slices, with infinity entries mixed in; every
  // slicing must multiply out to the product of the separate pairings, and
  // a single pair must match the textbook pairing.
  Rng rng(407);
  std::vector<G2Prepared> qs;
  std::vector<G1> ps;
  Fq12 expected = Fq12::one();
  const G2 first_q = G2::generator() * Fr::random(rng);
  for (int i = 0; i < 13; ++i) {
    const G2 q = i == 0 ? first_q : i == 5 ? G2::infinity() : G2::generator() * Fr::random(rng);
    const G1 p = i == 9 ? G1::infinity() : G1::generator() * Fr::random(rng);
    qs.emplace_back(q);
    ps.push_back(p);
    expected *= pairing(qs.back(), p);
  }
  std::vector<std::pair<const G2Prepared*, G1>> prepared_pairs;
  for (std::size_t i = 0; i < qs.size(); ++i) prepared_pairs.emplace_back(&qs[i], ps[i]);
  const unsigned saved = num_threads();
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    set_num_threads(threads);
    EXPECT_EQ(pairing_product(prepared_pairs), expected) << "threads=" << threads;
  }
  set_num_threads(saved);
  EXPECT_EQ(pairing_product({prepared_pairs[0]}), oracle::pairing_textbook(first_q, ps[0]));
  EXPECT_TRUE(pairing_product(std::vector<std::pair<const G2Prepared*, G1>>{}).is_one());
}

TEST(FastPairing, PsiActsAsQOnG2) {
  Rng rng(408);
  const G2 q = G2::generator() * Fr::random(rng);
  const BigInt q_mod_r = Fq::modulus_bigint() % Fr::modulus_bigint();
  EXPECT_EQ(q_mod_r, 6 * bn254_x() * bn254_x());  // q = 6x^2 (mod r)
  EXPECT_EQ(g2_psi(q), q * q_mod_r);
  EXPECT_TRUE(g2_psi(G2::infinity()).is_infinity());
}

TEST(FastPairing, PsiSatisfiesFrobeniusEquationOnTheWholeTwist) {
  // psi^2 - t psi + q = 0 on every twist point, not only on G2: the degree
  // argument behind G2Prepared::in_g2 rests on it.
  Rng rng(410);
  const BigInt t = 6 * bn254_x() * bn254_x() + 1;
  for (int i = 0; i < 2; ++i) {
    const G2 p = oracle::random_twist_point(rng);
    EXPECT_EQ(g2_psi(g2_psi(p)) + p * Fq::modulus_bigint(), g2_psi(p) * t);
  }
}

TEST(FastPairing, G2CheckEndomorphismNormIsRTimesACoprimeFactor) {
  // The exactness argument of G2Prepared::in_g2, in integers: alpha = 6x + 2
  // + psi - psi^2 + psi^3 kills G2 (psi acts as q there), and reduced by
  // psi^2 = t psi - q to a + b psi its degree a^2 + t ab + q b^2 is r m with
  // m prime to the twist cofactor 2q - r (and to r), so on the twist group
  // of order r (2q - r) its kernel is exactly G2.
  const BigInt& x = bn254_x();
  const BigInt& q = Fq::modulus_bigint();
  const BigInt& r = Fr::modulus_bigint();
  const BigInt t = 6 * x * x + 1;
  const BigInt loop = 6 * x + 2;
  EXPECT_EQ(BigInt((loop + q - q * q + q * q * q) % r), 0);
  // psi^3 = t psi^2 - q psi = (t^2 - q) psi - t q.
  const BigInt a = loop + q - t * q;
  const BigInt b = 1 - t + t * t - q;
  const BigInt norm = a * a + t * a * b + q * b * b;
  ASSERT_EQ(BigInt(norm % r), 0);
  const BigInt m = norm / r;
  EXPECT_EQ(gcd(m, 2 * q - r), 1);
  EXPECT_EQ(gcd(m, r), 1);
  // The same a + b psi on points: alpha(Q) computed both ways agrees on a
  // raw twist point, which ties the integer identity to g2_psi itself.
  Rng rng(411);
  const G2 p = oracle::random_twist_point(rng);
  const G2 p1 = g2_psi(p), p2 = g2_psi(p1), p3 = g2_psi(p2);
  EXPECT_EQ(p * loop + p1 - p2 + p3, p * a + p1 * b);
}

TEST(FastPairing, G2MembershipFromTheScheduleMatchesOrderCheck) {
  // G2Prepared::in_g2 (the schedule's end point [6x + 2]Q + psi(Q) -
  // psi^2(Q) against -psi^3(Q)) against the plain [r]Q == O on points of
  // G2, on raw twist points (no cofactor clearing), on a point of the
  // cofactor's small prime order 10069, and on sums of them.
  Rng rng(409);
  const BigInt& r = Fr::modulus_bigint();
  const BigInt cofactor = 2 * Fq::modulus_bigint() - r;
  std::vector<G2> points = {G2::infinity(), G2::generator(), -G2::generator()};
  for (int i = 0; i < 3; ++i) points.push_back(G2::generator() * Fr::random(rng));
  for (int i = 0; i < 3; ++i) {
    const G2 raw = oracle::random_twist_point(rng);
    EXPECT_TRUE((raw * (cofactor * r)).is_infinity()) << "the twist group has order r (2q - r)";
    points.push_back(raw);
    points.push_back(raw + G2::generator());
    points.push_back(raw * cofactor);  // cofactor clearing lands in G2
  }
  ASSERT_EQ(BigInt(cofactor % 10069), 0);
  const G2 small = oracle::random_twist_point(rng) * (cofactor / 10069 * r);
  ASSERT_FALSE(small.is_infinity());
  ASSERT_TRUE((small * 10069).is_infinity());
  points.push_back(small);
  points.push_back(small + G2::generator());
  std::size_t inside = 0, outside = 0;
  for (const G2& q : points) {
    const bool member = q.in_prime_subgroup();
    EXPECT_EQ(G2Prepared(q).in_g2(), member);
    ++(member ? inside : outside);
  }
  EXPECT_EQ(inside, 9u);
  EXPECT_EQ(outside, 8u);
}

TEST(FastPairing, CyclotomicArithmeticOnUnitaryElements) {
  Rng rng(405);
  // Pairing outputs live in the cyclotomic subgroup (unitary: conj == inv),
  // exactly the domain cyclotomic_squared is specialised for.
  const Fq12 u =
      pairing(G2::generator() * Fr::random(rng), G1::generator() * Fr::random(rng));
  EXPECT_EQ(u.cyclotomic_squared(), u.squared());
  EXPECT_EQ(u.unitary_inverse(), u.inverse());
  EXPECT_TRUE((u * u.unitary_inverse()).is_one());
  Fq12 by_cyc = u.cyclotomic_squared().cyclotomic_squared();
  EXPECT_EQ(by_cyc, u.pow(BigInt(4)));
  // A generic (non-unitary) element must NOT satisfy conj == inv — guards
  // against cyclotomic helpers being silently used outside their domain.
  Fq12 generic = Fq12::one();
  generic.a0.c0.c0 = Fq::from_u64(2);
  generic.a1.c1.c1 = Fq::from_u64(3);
  EXPECT_NE(generic.unitary_inverse(), generic.inverse());
}

// --- Prepared Groth16 verification ---------------------------------------

struct CubicCircuit {
  snark::ConstraintSystem cs;
  snark::VarIndex out, x, x_sq, x_cu;

  CubicCircuit() {
    cs.num_inputs = 1;
    out = cs.allocate_variable();
    x = cs.allocate_variable();
    x_sq = cs.allocate_variable();
    x_cu = cs.allocate_variable();
    using LC = snark::LinearCombination;
    cs.add_constraint(LC::variable(x), LC::variable(x), LC::variable(x_sq));
    cs.add_constraint(LC::variable(x_sq), LC::variable(x), LC::variable(x_cu));
    cs.add_constraint(LC::variable(x_cu) + LC::variable(x) + LC::constant(Fr::from_u64(5)),
                      LC::constant(Fr::one()), LC::variable(out));
  }

  std::vector<Fr> assignment(std::uint64_t x_val) const {
    std::vector<Fr> z(cs.num_variables, Fr::zero());
    z[0] = Fr::one();
    z[x] = Fr::from_u64(x_val);
    z[x_sq] = z[x] * z[x];
    z[x_cu] = z[x_sq] * z[x];
    z[out] = z[x_cu] + z[x] + Fr::from_u64(5);
    return z;
  }
};

TEST(PreparedGroth16, AgreesWithUnprepared) {
  CubicCircuit c;
  Rng rng(406);
  const auto keys = snark::setup(c.cs, rng);
  const auto z = c.assignment(3);
  const std::vector<Fr> statement(z.begin() + 1, z.begin() + 1 + c.cs.num_inputs);
  const auto proof = snark::prove(keys.pk, c.cs, z, rng);

  const auto pvk = snark::PreparedVerifyingKey::prepare(keys.vk);
  EXPECT_TRUE(snark::verify(keys.vk, statement, proof));
  EXPECT_TRUE(snark::verify(pvk, statement, proof));

  // Both reject the same tampered inputs.
  auto bad_proof = proof;
  bad_proof.a = bad_proof.a + G1::generator();
  EXPECT_FALSE(snark::verify(keys.vk, statement, bad_proof));
  EXPECT_FALSE(snark::verify(pvk, statement, bad_proof));
  const std::vector<Fr> bad_statement = {statement[0] + Fr::one()};
  EXPECT_FALSE(snark::verify(keys.vk, bad_statement, proof));
  EXPECT_FALSE(snark::verify(pvk, bad_statement, proof));
}

}  // namespace
}  // namespace zl
