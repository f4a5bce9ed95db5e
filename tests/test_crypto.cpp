// Unit tests for the byte/hash/randomness/bignum substrate.
#include <gtest/gtest.h>

#include "crypto/bigint.h"
#include "crypto/bytes.h"
#include "crypto/keccak.h"
#include "crypto/rng.h"
#include "crypto/sha256.h"

namespace zl {
namespace {

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(to_hex(data), "0001abff");
  EXPECT_EQ(from_hex("0001abff"), data);
  EXPECT_EQ(from_hex("0x0001ABFF"), data);
}

TEST(Bytes, HexRejectsMalformed) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(Bytes, BigEndianIntegers) {
  Bytes out;
  append_u32_be(out, 0x01020304u);
  append_u64_be(out, 0x05060708090a0b0cULL);
  EXPECT_EQ(out.size(), 12u);
  ByteReader r(out);
  EXPECT_EQ(r.u32(), 0x01020304u);
  EXPECT_EQ(r.u64(), 0x05060708090a0b0cULL);
  EXPECT_THROW(r.u64(), DecodeError);
}

TEST(Bytes, FrameRoundTrip) {
  Bytes out;
  append_frame(out, to_bytes("hello"));
  append_frame(out, {});
  append_frame(out, to_bytes("world"));
  ByteReader r(out);
  EXPECT_EQ(r.frame(16), to_bytes("hello"));
  EXPECT_EQ(r.frame(16), Bytes{});
  EXPECT_EQ(r.frame(16), to_bytes("world"));
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, FrameTruncationDetected) {
  Bytes out;
  append_frame(out, to_bytes("hello"));
  out.pop_back();
  ByteReader r(out);
  EXPECT_THROW(r.frame(16), DecodeError);
}

TEST(Bytes, ConstantTimeEqual) {
  EXPECT_TRUE(ct_equal(to_bytes("abc"), to_bytes("abc")));
  EXPECT_FALSE(ct_equal(to_bytes("abc"), to_bytes("abd")));
  EXPECT_FALSE(ct_equal(to_bytes("abc"), to_bytes("ab")));
}

// FIPS 180-4 test vectors.
TEST(Sha256, KnownVectors) {
  EXPECT_EQ(to_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(Sha256::hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  const auto digest = h.finalize();
  EXPECT_EQ(to_hex(digest.data(), digest.size()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  Sha256 h;
  h.update(to_bytes("he"));
  h.update(to_bytes("llo "));
  h.update(to_bytes("world"));
  const auto digest = h.finalize();
  EXPECT_EQ(Bytes(digest.begin(), digest.end()), Sha256::hash("hello world"));
}

// RFC 4231 test case 2.
TEST(Sha256, HmacKnownVector) {
  EXPECT_EQ(to_hex(hmac_sha256(to_bytes("Jefe"), to_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Sha256, Mgf1LengthsAndDeterminism) {
  const Bytes seed = to_bytes("seed");
  EXPECT_EQ(mgf1_sha256(seed, 0).size(), 0u);
  EXPECT_EQ(mgf1_sha256(seed, 17).size(), 17u);
  EXPECT_EQ(mgf1_sha256(seed, 100), mgf1_sha256(seed, 100));
  // Prefix property: shorter outputs are prefixes of longer ones.
  const Bytes long_mask = mgf1_sha256(seed, 64);
  const Bytes short_mask = mgf1_sha256(seed, 32);
  EXPECT_TRUE(std::equal(short_mask.begin(), short_mask.end(), long_mask.begin()));
}

// Ethereum's keccak256 test vectors.
TEST(Keccak, KnownVectors) {
  EXPECT_EQ(to_hex(keccak256("")),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
  EXPECT_EQ(to_hex(keccak256("abc")),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
  EXPECT_EQ(to_hex(keccak256("testing")),
            "5f16f4c7f149ac4f9510d9cf8cf384038ad348b3bcdc01915f95de12df9d1b02");
}

TEST(Keccak, MultiBlockInput) {
  // > rate (136 bytes) to exercise the absorb loop.
  const Bytes data(500, 0x61);
  EXPECT_EQ(keccak256(data).size(), 32u);
  EXPECT_EQ(keccak256(data), keccak256(data));
  EXPECT_NE(keccak256(data), keccak256(Bytes(501, 0x61)));
}

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42), b(42), c(43);
  const Bytes ba = a.bytes(64), bb = b.bytes(64), bc = c.bytes(64);
  EXPECT_EQ(ba, bb);
  EXPECT_NE(ba, bc);
}

TEST(Rng, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(10), 10u);
  }
  EXPECT_EQ(rng.uniform(1), 0u);
  EXPECT_THROW(rng.uniform(0), std::invalid_argument);
}

TEST(Rng, UniformCoversRange) {
  Rng rng(9);
  std::array<int, 8> counts{};
  for (int i = 0; i < 8000; ++i) counts[rng.uniform(8)]++;
  for (const int c : counts) EXPECT_GT(c, 700);  // crude uniformity check
}

TEST(Rng, ForkIndependence) {
  Rng parent(5);
  Rng child1 = parent.fork("a");
  Rng child2 = parent.fork("a");  // second fork advances parent state
  EXPECT_NE(child1.bytes(32), child2.bytes(32));
}

TEST(BigInt, ByteCodecRoundTrip) {
  const BigInt v = bigint_from_decimal("123456789012345678901234567890");
  const Bytes enc = bigint_to_bytes(v);
  EXPECT_EQ(bigint_from_bytes(enc), v);
  const Bytes padded = bigint_to_bytes(v, 32);
  EXPECT_EQ(padded.size(), 32u);
  EXPECT_EQ(bigint_from_bytes(padded), v);
  EXPECT_THROW(bigint_to_bytes(v, 4), std::invalid_argument);
}

TEST(BigInt, ZeroEncoding) {
  EXPECT_TRUE(bigint_to_bytes(BigInt(0)).empty());
  EXPECT_EQ(bigint_to_bytes(BigInt(0), 4), Bytes({0, 0, 0, 0}));
}

TEST(BigInt, ModPowAndInverse) {
  const BigInt m = bigint_from_decimal("1000000007");
  EXPECT_EQ(mod_pow(2, 10, m), 1024);
  const BigInt inv = mod_inverse(12345, m);
  EXPECT_EQ((inv * 12345) % m, 1);
  EXPECT_THROW(mod_inverse(BigInt(6), BigInt(12)), std::domain_error);
}

TEST(BigInt, MillerRabinAgreesOnSmallNumbers) {
  Rng rng(11);
  for (int n = 2; n < 500; ++n) {
    bool naive_prime = n >= 2;
    for (int d = 2; d * d <= n; ++d) {
      if (n % d == 0) {
        naive_prime = false;
        break;
      }
    }
    EXPECT_EQ(is_probable_prime(BigInt(n), rng), naive_prime) << "n=" << n;
  }
}

TEST(BigInt, MillerRabinKnownLargeValues) {
  Rng rng(13);
  // 2^127 - 1 is a Mersenne prime; 2^128 + 1 is composite.
  EXPECT_TRUE(is_probable_prime((BigInt(1) << 127) - 1, rng));
  EXPECT_FALSE(is_probable_prime((BigInt(1) << 128) + 1, rng));
}

TEST(BigInt, RandomPrimeHasRequestedShape) {
  Rng rng(17);
  const BigInt p = random_prime(rng, 128);
  EXPECT_EQ(mpz_sizeinbase(p.get_mpz_t(), 2), 128u);
  EXPECT_TRUE(is_probable_prime(p, rng));
  // Top two bits set => product of two such primes has exactly 256 bits.
  EXPECT_TRUE(mpz_tstbit(p.get_mpz_t(), 126));
}

TEST(BigInt, RandomBelowIsInRange) {
  Rng rng(19);
  const BigInt bound = bigint_from_decimal("98765432109876543210");
  for (int i = 0; i < 50; ++i) {
    const BigInt v = random_below(rng, bound);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, bound);
  }
}

}  // namespace
}  // namespace zl
