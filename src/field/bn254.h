#pragma once
// BN254 (alt_bn128) field parameters — the curve libsnark (and Ethereum's
// SNARK precompiles, EIP-196/197) use, and the one the paper's modified EVM
// embeds a verifier for.
//
//   q = 21888242871839275222246405745257275088696311157297823662689037894645226208583
//   r = 21888242871839275222246405745257275088548364400416034343698204186575808495617
//   BN parameter x = 4965661367192848881   (q, r, t are the BN polynomials at x)

#include "field/fp.h"

namespace zl {

struct Bn254FqParams {
  static constexpr const char* kName = "bn254.Fq";
  static constexpr Limbs kModulus = {0x3c208c16d87cfd47ULL, 0x97816a916871ca8dULL,
                                     0xb85045b68181585dULL, 0x30644e72e131a029ULL};
};

struct Bn254FrParams {
  static constexpr const char* kName = "bn254.Fr";
  static constexpr Limbs kModulus = {0x43e1f593f0000001ULL, 0x2833e84879b97091ULL,
                                     0xb85045b68181585dULL, 0x30644e72e131a029ULL};
};

/// Base field of the BN254 curve (coordinates of G1).
using Fq = Fp<Bn254FqParams>;

/// Scalar field of BN254 — the SNARK's native field; also the coordinate
/// field of Baby Jubjub.
using Fr = Fp<Bn254FrParams>;

/// BN parameter x: q(x) = 36x^4 + 36x^3 + 24x^2 + 6x + 1, t(x) = 6x^2 + 1.
inline const BigInt& bn254_x() {
  static const BigInt x("4965661367192848881");
  return x;
}

/// Fr has 2-adicity 28: r - 1 = 2^28 * odd. Generator of the full
/// multiplicative group (as in libff) is 5; tests verify both claims.
inline constexpr unsigned kFrTwoAdicity = 28;
inline constexpr std::uint64_t kFrMultiplicativeGenerator = 5;

}  // namespace zl
