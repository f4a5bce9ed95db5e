// Public-key crypto tests: RSA-OAEP / RSA signatures (paper §VI
// instantiation) and secp256k1 ECDSA (blockchain transaction signatures),
// the latter pinned against the textbook double-and-add oracle in
// ecdsa_oracle.h.
#include <gtest/gtest.h>

#include "crypto/ecdsa.h"
#include "crypto/rsa.h"
#include "ec/glv.h"
#include "ecdsa_oracle.h"

namespace zl {
namespace {

// 1024-bit keys keep unit tests fast; the 2048-bit path is exercised by the
// ablation bench (bench_ablation) and one smoke test below.
RsaKeyPair test_key() {
  static const RsaKeyPair key = [] {
    Rng rng(101);
    return RsaKeyPair::generate(rng, 1024);
  }();
  return key;
}

TEST(Rsa, KeyGenerationShape) {
  const RsaKeyPair key = test_key();
  EXPECT_EQ(mpz_sizeinbase(key.pub.n.get_mpz_t(), 2), 1024u);
  EXPECT_EQ(key.pub.e, 65537);
  EXPECT_EQ(key.pub.modulus_bytes(), 128u);
}

TEST(Rsa, OaepRoundTrip) {
  Rng rng(102);
  const RsaKeyPair key = test_key();
  for (const std::size_t len : {0u, 1u, 30u, 62u}) {  // capacity = 128-66 = 62
    const Bytes msg = rng.bytes(len);
    const Bytes ct = rsa_oaep_encrypt(key.pub, msg, rng);
    EXPECT_EQ(ct.size(), 128u);
    EXPECT_EQ(rsa_oaep_decrypt(key, ct), msg);
  }
}

TEST(Rsa, OaepIsRandomized) {
  Rng rng(103);
  const RsaKeyPair key = test_key();
  const Bytes msg = to_bytes("same message");
  EXPECT_NE(rsa_oaep_encrypt(key.pub, msg, rng), rsa_oaep_encrypt(key.pub, msg, rng));
}

TEST(Rsa, OaepRejectsOversizeAndTampering) {
  Rng rng(104);
  const RsaKeyPair key = test_key();
  EXPECT_THROW(rsa_oaep_encrypt(key.pub, rng.bytes(63), rng), std::invalid_argument);
  Bytes ct = rsa_oaep_encrypt(key.pub, to_bytes("secret"), rng);
  ct[40] ^= 1;
  EXPECT_THROW(rsa_oaep_decrypt(key, ct), std::invalid_argument);
  EXPECT_THROW(rsa_oaep_decrypt(key, Bytes(5, 0x01)), std::invalid_argument);
}

TEST(Rsa, SignVerify) {
  Rng rng(105);
  const RsaKeyPair key = test_key();
  const Bytes msg = to_bytes("certificate binding pk_i to W_i");
  const Bytes sig = rsa_sign(key, msg);
  EXPECT_TRUE(rsa_verify(key.pub, msg, sig));
  EXPECT_FALSE(rsa_verify(key.pub, to_bytes("another message"), sig));
  Bytes bad = sig;
  bad[0] ^= 1;
  EXPECT_FALSE(rsa_verify(key.pub, msg, bad));
  EXPECT_FALSE(rsa_verify(key.pub, msg, Bytes(10, 0)));
  // Signature from a different key fails.
  Rng rng2(106);
  const RsaKeyPair other = RsaKeyPair::generate(rng2, 1024);
  EXPECT_FALSE(rsa_verify(other.pub, msg, sig));
}

TEST(Rsa, PublicKeySerialization) {
  const RsaKeyPair key = test_key();
  const Bytes enc = key.pub.to_bytes();
  EXPECT_EQ(RsaPublicKey::from_bytes(enc), key.pub);
  Bytes trailing = enc;
  trailing.push_back(0);
  EXPECT_THROW(RsaPublicKey::from_bytes(trailing), std::invalid_argument);
}

TEST(Rsa, FullSize2048Smoke) {
  Rng rng(107);
  const RsaKeyPair key = RsaKeyPair::generate(rng, 2048);
  EXPECT_EQ(key.pub.modulus_bytes(), 256u);
  const Bytes msg = rng.bytes(190);  // exactly the OAEP capacity at 2048 bits
  EXPECT_EQ(rsa_oaep_decrypt(key, rsa_oaep_encrypt(key.pub, msg, rng)), msg);
  EXPECT_TRUE(rsa_verify(key.pub, msg, rsa_sign(key, msg)));
}

TEST(Ecdsa, SignVerify) {
  Rng rng(111);
  const EcdsaKeyPair key = EcdsaKeyPair::generate(rng);
  const Bytes msg = to_bytes("transaction payload");
  const EcdsaSignature sig = key.sign(msg, rng);
  EXPECT_TRUE(ecdsa_verify(key.public_key_bytes(), msg, sig));
  EXPECT_FALSE(ecdsa_verify(key.public_key_bytes(), to_bytes("forged"), sig));
}

TEST(Ecdsa, RejectsTamperedSignatures) {
  Rng rng(112);
  const EcdsaKeyPair key = EcdsaKeyPair::generate(rng);
  const Bytes msg = to_bytes("msg");
  EcdsaSignature sig = key.sign(msg, rng);
  sig.r += 1;
  EXPECT_FALSE(ecdsa_verify(key.public_key_bytes(), msg, sig));
  sig = key.sign(msg, rng);
  sig.s = SecpPoint::order();  // out of range
  EXPECT_FALSE(ecdsa_verify(key.public_key_bytes(), msg, sig));
  sig = key.sign(msg, rng);
  Bytes bad_key = key.public_key_bytes();
  bad_key[10] ^= 1;
  EXPECT_FALSE(ecdsa_verify(bad_key, msg, sig));
}

TEST(Ecdsa, SignaturesFromOtherKeysRejected) {
  Rng rng(113);
  const EcdsaKeyPair a = EcdsaKeyPair::generate(rng);
  const EcdsaKeyPair b = EcdsaKeyPair::generate(rng);
  const Bytes msg = to_bytes("msg");
  EXPECT_FALSE(ecdsa_verify(b.public_key_bytes(), msg, a.sign(msg, rng)));
}

TEST(Ecdsa, SerializationRoundTrip) {
  Rng rng(114);
  const EcdsaKeyPair key = EcdsaKeyPair::generate(rng);
  const EcdsaSignature sig = key.sign(to_bytes("m"), rng);
  const EcdsaSignature decoded = EcdsaSignature::from_bytes(sig.to_bytes());
  EXPECT_EQ(decoded.r, sig.r);
  EXPECT_EQ(decoded.s, sig.s);
  EXPECT_TRUE(ecdsa_verify(key.public_key_bytes(), to_bytes("m"), decoded));
}

TEST(Ecdsa, AddressDerivation) {
  Rng rng(115);
  const EcdsaKeyPair key = EcdsaKeyPair::generate(rng);
  const Bytes addr = key.address();
  EXPECT_EQ(addr.size(), 20u);
  EXPECT_EQ(addr, ecdsa_address(key.public_key_bytes()));
  // Distinct keys get distinct addresses (one-task-only address freshness).
  const EcdsaKeyPair other = EcdsaKeyPair::generate(rng);
  EXPECT_NE(other.address(), addr);
}

Bytes point_bytes(const SecpPoint& p) { return oracle::EcdsaOracleKey{0, p}.public_key_bytes(); }

/// The production verdict, which must equal the oracle's.
bool verify_both(const Bytes& pub, const Bytes& msg, const EcdsaSignature& sig) {
  const bool got = ecdsa_verify(pub, msg, sig);
  EXPECT_EQ(got, oracle::ecdsa_verify(pub, msg, sig))
      << "r = " << sig.r << ", s = " << sig.s << ", key = " << to_hex(pub);
  return got;
}

TEST(Ecdsa, MatchesOracleOnSeededTriples) {
  const BigInt& n = SecpPoint::order();
  Rng rng(116);
  constexpr int kKeys = 40, kSignaturesPerKey = 25;  // 1,000 (key, message, signature)
  Bytes previous_pub;
  for (int i = 0; i < kKeys; ++i) {
    const EcdsaKeyPair key = EcdsaKeyPair::generate(rng);
    const Bytes pub = key.public_key_bytes();
    for (int j = 0; j < kSignaturesPerKey; ++j) {
      const Bytes msg = rng.bytes(1 + rng.uniform(96));
      const EcdsaSignature sig = key.sign(msg, rng);
      ASSERT_TRUE(verify_both(pub, msg, sig));
      // (r, n - s) is the malleated twin: valid too, as no low-s rule applies.
      EXPECT_TRUE(verify_both(pub, msg, {sig.r, n - sig.s}));
      EXPECT_FALSE(verify_both(pub, msg, {sig.r % (n - 1) + 1, sig.s}));
      EXPECT_FALSE(verify_both(pub, msg, {sig.r, (sig.s + 1 + rng.uniform(1000)) % (n - 1) + 1}));
      Bytes tampered = msg;
      tampered[rng.uniform(tampered.size())] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
      EXPECT_FALSE(verify_both(pub, tampered, sig));
      if (!previous_pub.empty()) {
        EXPECT_FALSE(verify_both(previous_pub, msg, sig));
      }
    }
    previous_pub = pub;
  }
}

TEST(Ecdsa, EdgeCasesAgreeWithOracle) {
  const BigInt& n = SecpPoint::order();
  const SecpPoint g = SecpPoint::generator();
  Rng rng(117);
  const Bytes msg = to_bytes("edge");
  const BigInt z = oracle::ecdsa_hash_to_scalar(msg);

  // u1*G + u2*Q = infinity: with Q = d*G and d = -z/r, z + r*d == 0 (mod n)
  // for every s.
  const BigInt r = 1 + random_below(rng, n - 1);
  const BigInt d = ((n - z) * mod_inverse(r, n)) % n;
  const Bytes cancel_key = point_bytes(g * d);
  const BigInt s_random = 1 + random_below(rng, n - 1);
  for (const BigInt& s : {BigInt(1), BigInt(2), BigInt(n - 1), s_random}) {
    EXPECT_FALSE(verify_both(cancel_key, msg, {r, s}));
    const BigInt w = mod_inverse(s, n);
    EXPECT_TRUE(generator_double_mul<SecpPoint>((z * w) % n, g * d, (r * w) % n).is_infinity());
  }

  // r and s at the range edges: 0 and n are rejected outright, n - 1 only
  // by the equation.
  const EcdsaKeyPair key = EcdsaKeyPair::generate(rng);
  const Bytes pub = key.public_key_bytes();
  const EcdsaSignature good = key.sign(msg, rng);
  for (const BigInt& edge : {BigInt(0), n, BigInt(n - 1)}) {
    EXPECT_FALSE(verify_both(pub, msg, {edge, good.s}));
    EXPECT_FALSE(verify_both(pub, msg, {good.r, edge}));
  }

  // Valid signatures with s = n - 1 and s = 1: pick the nonce k first, then
  // the key d with k*s == z + r*d.
  for (const BigInt& s : {BigInt(n - 1), BigInt(1)}) {
    const BigInt k = 1 + random_below(rng, n - 1);
    const BigInt rk = (g * k).to_affine().first.to_bigint() % n;
    BigInt dk = ((k * s - z) * mod_inverse(rk, n)) % n;
    if (dk < 0) dk += n;
    EXPECT_TRUE(verify_both(point_bytes(g * dk), msg, {rk, s}));
  }

  // Public keys off the curve or mis-encoded.
  Bytes off_curve = pub;
  off_curve[64] ^= 1;  // y's low bit: y^2 no longer matches x^3 + 7
  EXPECT_FALSE(verify_both(off_curve, msg, good));
  Bytes big_x = pub;
  std::fill(big_x.begin() + 1, big_x.begin() + 33, std::uint8_t{0xff});  // x >= p
  EXPECT_FALSE(verify_both(big_x, msg, good));
  Bytes compressed = pub;
  compressed[0] = 0x02;
  EXPECT_FALSE(verify_both(compressed, msg, good));
  EXPECT_FALSE(verify_both(Bytes(pub.begin(), pub.end() - 1), msg, good));
  EXPECT_TRUE(verify_both(pub, msg, good));
}

/// A finite point whose affine x lies in (n, p), so x mod n = x - n is a
/// valid r.
SecpPoint point_with_x_above_order() {
  const BigInt& p = SecpFp::modulus_bigint();
  for (BigInt x = SecpPoint::order() + 1;; ++x) {
    const SecpFp fx = SecpFp::from_bigint(x);
    const SecpFp rhs = fx.squared() * fx + SecpFp::from_u64(7);
    const SecpFp y = rhs.pow((p + 1) / 4);  // p = 3 mod 4
    if (y.squared() == rhs) return SecpPoint::from_affine(fx, y);
  }
}

TEST(Ecdsa, ProjectiveXCheckCoversTheWrappedBranch) {
  const BigInt& n = SecpPoint::order();
  const SecpPoint wrapped = point_with_x_above_order();
  const BigInt x = wrapped.to_affine().first.to_bigint();
  ASSERT_GT(x, n);
  // The helper on a non-trivial Z: (X, Y, Z) = (x Z^2, y Z^3, Z).
  Rng rng(118);
  const SecpFp zc = SecpFp::random(rng);
  const SecpPoint scaled = SecpPoint::from_jacobian_unchecked(
      wrapped.jacobian_x() * zc.squared(), wrapped.jacobian_y() * zc.squared() * zc, zc);
  ASSERT_EQ(scaled, wrapped);
  EXPECT_TRUE(detail::ecdsa_x_matches(scaled, x - n));
  EXPECT_FALSE(detail::ecdsa_x_matches(scaled, x - n + 1));
  const SecpPoint plain = SecpPoint::generator() * 12345;
  const BigInt plain_x = plain.to_affine().first.to_bigint();
  ASSERT_LT(plain_x, n);
  EXPECT_TRUE(detail::ecdsa_x_matches(plain, plain_x));
  EXPECT_FALSE(detail::ecdsa_x_matches(plain, (plain_x + 1) % n));

  // End to end: for any (r, s) = (x - n, s) pick Q = u2^-1 (R - u1 G), so
  // u1 G + u2 Q lands exactly on the wrapped point.
  const Bytes msg = to_bytes("wrapped x");
  const BigInt z = oracle::ecdsa_hash_to_scalar(msg);
  const BigInt s = 1 + random_below(rng, n - 1);
  const BigInt w = mod_inverse(s, n);
  const BigInt r = x - n;
  const BigInt u1 = (z * w) % n, u2 = (r * w) % n;
  const SecpPoint q = (wrapped - SecpPoint::generator() * u1) * mod_inverse(u2, n);
  EXPECT_TRUE(verify_both(point_bytes(q), msg, {r, s}));
  EXPECT_TRUE(verify_both(point_bytes(q), msg, {r, n - s}));  // lands on -R: same x
  EXPECT_FALSE(verify_both(point_bytes(q), msg, {r + 1, s}));
}

TEST(Ecdsa, SeededKeysAndSignaturesMatchOracleBytes) {
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    Rng prod(seed), ref(seed);
    const EcdsaKeyPair key = EcdsaKeyPair::generate(prod);
    const oracle::EcdsaOracleKey ref_key = oracle::ecdsa_generate(ref);
    ASSERT_EQ(key.public_key_bytes(), ref_key.public_key_bytes()) << "seed " << seed;
    for (int j = 0; j < 3; ++j) {
      const Bytes msg = to_bytes("message " + std::to_string(j));
      EXPECT_EQ(key.sign(msg, prod).to_bytes(), oracle::ecdsa_sign(ref_key, msg, ref).to_bytes())
          << "seed " << seed << ", message " << j;
    }
  }
  // Literal pin: this seed produced these bytes before the fixed-base walk
  // replaced the double-and-add ladder.
  Rng rng(424242);
  const EcdsaKeyPair key = EcdsaKeyPair::generate(rng);
  EXPECT_EQ(to_hex(key.public_key_bytes()),
            "042f542c0b42c3cdbea648c0f654d0e68933724be448970c16bfa1c652ff81a99b"
            "6a41af2dd22922cdcdf2d51a31b7ecd197a75de7121d39d1b03f64c13e537469");
  EXPECT_EQ(to_hex(key.sign(to_bytes("pin"), rng).to_bytes()),
            "0dafeb8106ede8d4b532089b002d6de91626598c2040204a1444d50f06a9ad47"
            "f3157757fc7fc2ee064d25838d5ec24b303d7d49ccebcacb5b0a72ae7149968a");
}

}  // namespace
}  // namespace zl
