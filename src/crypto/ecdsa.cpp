#include "crypto/ecdsa.h"

#include <stdexcept>

#include "ec/glv.h"

namespace zl {

namespace {

const BigInt& curve_order() { return SecpPoint::order(); }

SecpPoint point_from_bytes(const Bytes& b) {
  if (b.size() != 65 || b[0] != 0x04) {
    throw std::invalid_argument("ecdsa: bad public key encoding");
  }
  ByteReader r(b, "secp256k1 point");
  r.skip(1);  // 0x04 uncompressed tag, checked above
  const Bytes xb = r.take(32), yb = r.take(32);
  r.expect_end();
  return SecpPoint::from_affine(SecpFp::from_bytes(xb), SecpFp::from_bytes(yb));
}

BigInt hash_to_scalar(const Bytes& message) {
  return bigint_from_bytes(keccak256(message)) % curve_order();
}

}  // namespace

Bytes EcdsaSignature::to_bytes() const {
  return concat({bigint_to_bytes(r, 32), bigint_to_bytes(s, 32)});
}

EcdsaSignature EcdsaSignature::from_bytes(const Bytes& bytes) {
  if (bytes.size() != 64) throw std::invalid_argument("EcdsaSignature: need 64 bytes");
  EcdsaSignature sig;
  ByteReader reader(bytes, "EcdsaSignature");
  sig.r = bigint_from_bytes(reader.take(32));
  sig.s = bigint_from_bytes(reader.take(32));
  reader.expect_end();
  return sig;
}

EcdsaKeyPair EcdsaKeyPair::generate(Rng& rng) {
  EcdsaKeyPair key;
  do {
    // The zero check is public-by-rejection: it only ever observes (and
    // discards) candidates, never the key that leaves this loop.
    key.secret_ = random_below(rng, curve_order());
  } while (key.secret_ == 0);
  ct::poison(key.secret_);
  key.pub_ = generator_mul_blinded<SecpPoint>(key.secret_, rng);
  return key;
}

Bytes EcdsaKeyPair::public_key_bytes() const {
  const auto [x, y] = pub_.to_affine();
  Bytes out = {0x04};
  const Bytes xb = x.to_bytes(), yb = y.to_bytes();
  out.insert(out.end(), xb.begin(), xb.end());
  out.insert(out.end(), yb.begin(), yb.end());
  return out;
}

Bytes EcdsaKeyPair::address() const { return ecdsa_address(public_key_bytes()); }

Bytes ecdsa_address(const Bytes& public_key_bytes) {
  if (public_key_bytes.size() != 65) throw std::invalid_argument("ecdsa_address: bad key");
  const Bytes digest =
      keccak256(Bytes(public_key_bytes.begin() + 1, public_key_bytes.end()));
  return Bytes(digest.begin() + 12, digest.end());
}

EcdsaSignature EcdsaKeyPair::sign(const Bytes& message, Rng& rng) const {
  const BigInt& n = curve_order();
  const BigInt z = hash_to_scalar(message);
  ct::poison(secret_);  // harness hook; no-op outside a CT-checking scope
  for (;;) {
    const BigInt k = random_below(rng, n);
    if (k == 0) continue;  // public-by-rejection
    const ct::ScopedPoison poison_k(k);  // the nonce is as secret as the key
    // k enters the fixed-base walk blinded (k + t*n) and the inversion
    // blinded (b * (kb)^-1): neither variable-time algorithm ever sees k.
    const SecpPoint kg = generator_mul_blinded<SecpPoint>(k, rng);
    const BigInt r = kg.to_affine().first.to_bigint() % n;
    if (r == 0) continue;
    BigInt s = (mod_inverse_blinded(k, n, rng) * ((z + r * secret_) % n)) % n;
    // r and s are the published signature — declassified outputs by
    // definition (and fresh mpz buffers, so untainted either way).
    ct::declassify(s);
    if (s == 0) continue;
    return {r, s};
  }
}

namespace detail {

bool ecdsa_x_matches(const SecpPoint& point, const BigInt& r) {
  // The affine x = X/Z^2 lies in [0, p) and p < 2n, so x mod n == r iff
  // x == r or x == r + n; compare X against both scaled by Z^2 instead of
  // inverting Z.
  static const BigInt p_minus_n = SecpFp::modulus_bigint() - curve_order();
  const SecpFp z2 = point.jacobian_z().squared();
  if (point.jacobian_x() == SecpFp::from_bigint(r) * z2) return true;
  return r < p_minus_n && point.jacobian_x() == SecpFp::from_bigint(r + curve_order()) * z2;
}

}  // namespace detail

bool ecdsa_verify(const Bytes& public_key_bytes, const Bytes& message,
                  const EcdsaSignature& sig) {
  const BigInt& n = curve_order();
  if (sig.r <= 0 || sig.r >= n || sig.s <= 0 || sig.s >= n) return false;
  SecpPoint pub;
  try {
    pub = point_from_bytes(public_key_bytes);
  } catch (const std::invalid_argument&) {
    return false;
  }
  const BigInt z = hash_to_scalar(message);
  const BigInt w = mod_inverse(sig.s, n);
  // u1*G + u2*Q as four half-scalars in one joint pass (ec/glv.h).
  const SecpPoint point = generator_double_mul<SecpPoint>((z * w) % n, pub, (sig.r * w) % n);
  return !point.is_infinity() && detail::ecdsa_x_matches(point, sig.r);
}

}  // namespace zl
