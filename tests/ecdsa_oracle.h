#pragma once
// The textbook secp256k1 ECDSA path, kept as the differential oracle for
// src/crypto/ecdsa.cpp (tests/test_pkc.cpp, bench/bench_kernels.cpp).
//
// Verification computes u1*G and u2*Q as two separate double-and-add
// ladders over the full 256-bit scalars and compares the affine x after one
// inversion. Key generation and signing run the blinded scalar k + t*n
// through the same ladder and draw from the Rng in exactly the order the
// production code does, so a seeded run of either produces the same keys
// and signatures byte for byte.

#include "crypto/ecdsa.h"

namespace zl::oracle {

inline BigInt ecdsa_hash_to_scalar(const Bytes& message) {
  return bigint_from_bytes(keccak256(message)) % SecpPoint::order();
}

/// k*G on the blinded scalar k + t*n (one rng.next_u64()).
inline SecpPoint ecdsa_generator_mul_blinded(const BigInt& k, Rng& rng) {
  const BigInt masked = k + SecpPoint::order() * BigInt(rng.next_u64());
  return SecpPoint::generator() * masked;
}

inline bool ecdsa_verify(const Bytes& public_key_bytes, const Bytes& message,
                         const EcdsaSignature& sig) {
  const BigInt& n = SecpPoint::order();
  if (sig.r <= 0 || sig.r >= n || sig.s <= 0 || sig.s >= n) return false;
  if (public_key_bytes.size() != 65 || public_key_bytes[0] != 0x04) return false;
  SecpPoint pub;
  try {
    pub = SecpPoint::from_affine(
        SecpFp::from_bytes(Bytes(public_key_bytes.begin() + 1, public_key_bytes.begin() + 33)),
        SecpFp::from_bytes(Bytes(public_key_bytes.begin() + 33, public_key_bytes.end())));
  } catch (const std::invalid_argument&) {
    return false;
  }
  const BigInt z = ecdsa_hash_to_scalar(message);
  const BigInt w = mod_inverse(sig.s, n);
  const BigInt u1 = (z * w) % n;
  const BigInt u2 = (sig.r * w) % n;
  const SecpPoint point = SecpPoint::generator() * u1 + pub * u2;
  if (point.is_infinity()) return false;
  return point.to_affine().first.to_bigint() % n == sig.r;
}

/// The secret scalar and public point EcdsaKeyPair::generate derives from
/// the same Rng state.
struct EcdsaOracleKey {
  BigInt secret;
  SecpPoint pub;

  Bytes public_key_bytes() const {
    const auto [x, y] = pub.to_affine();
    Bytes out = {0x04};
    const Bytes xb = x.to_bytes(), yb = y.to_bytes();
    out.insert(out.end(), xb.begin(), xb.end());
    out.insert(out.end(), yb.begin(), yb.end());
    return out;
  }
};

inline EcdsaOracleKey ecdsa_generate(Rng& rng) {
  EcdsaOracleKey key;
  do {
    key.secret = random_below(rng, SecpPoint::order());
  } while (key.secret == 0);
  key.pub = ecdsa_generator_mul_blinded(key.secret, rng);
  return key;
}

inline EcdsaSignature ecdsa_sign(const EcdsaOracleKey& key, const Bytes& message, Rng& rng) {
  const BigInt& n = SecpPoint::order();
  const BigInt z = ecdsa_hash_to_scalar(message);
  for (;;) {
    const BigInt k = random_below(rng, n);
    if (k == 0) continue;
    const SecpPoint kg = ecdsa_generator_mul_blinded(k, rng);
    const BigInt r = kg.to_affine().first.to_bigint() % n;
    if (r == 0) continue;
    const BigInt s = (mod_inverse_blinded(k, n, rng) * ((z + r * key.secret) % n)) % n;
    if (s == 0) continue;
    return {r, s};
  }
}

}  // namespace zl::oracle
