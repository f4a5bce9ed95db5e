#pragma once
// Groth16 zk-SNARK over BN254 — the proving system standing in for libsnark
// in the paper's stack. Constant-size proofs (2 G1 + 1 G2), pairing-based
// verification, QAP reduction with the libsnark-style input-consistency rows.
//
// The three algorithms match the paper's abstraction in §III:
//   setup(C)          -> public parameters PP (proving + verifying key)
//   Prover(x, w, PP)  -> constant-size proof
//   Verifier(x, pi, PP) -> accept/reject via a 4-pairing product check

#include "ec/pairing.h"
#include "snark/domain.h"
#include "snark/r1cs.h"

namespace zl::snark {

struct Proof {
  G1 a;
  G2 b;
  G1 c;

  Bytes to_bytes() const;
  static Proof from_bytes(const Bytes& bytes);
  /// Serialized size: 2 G1 + 1 G2, uncompressed (constant, independent of
  /// the circuit — the property Table I's "Proof" column demonstrates).
  static constexpr std::size_t kByteSize = 65 + 129 + 65;
};

struct VerifyingKey {
  G1 alpha_g1;
  G2 beta_g2;
  G2 gamma_g2;
  G2 delta_g2;
  /// IC query: one point per public input, plus one for the constant.
  std::vector<G1> ic;

  Bytes to_bytes() const;
  static VerifyingKey from_bytes(const Bytes& bytes);
  std::size_t byte_size() const { return 65 + 3 * 129 + 4 + ic.size() * 65; }
};

struct ProvingKey {
  G1 alpha_g1, beta_g1, delta_g1;
  G2 beta_g2, delta_g2;
  std::vector<G1> a_query;     // [A_i(tau)]_1, one per variable
  std::vector<G1> b_g1_query;  // [B_i(tau)]_1
  std::vector<G2> b_g2_query;  // [B_i(tau)]_2
  std::vector<G1> l_query;     // [(beta A_i + alpha B_i + C_i)/delta]_1, witnesses only
  std::vector<G1> h_query;     // [tau^i Z(tau)/delta]_1
  std::size_t domain_size = 0;
  std::size_t num_inputs = 0;
};

/// A verifying key with its G2 work hoisted out: the precomputed Miller
/// schedules of beta, gamma and delta. Every verification against the same
/// key then runs one four-pair multi-Miller loop (proof.b is prepared per
/// call) and one final exponentiation, with e(alpha, beta) as one of the
/// four pairs (the EIP-197 form) — no GT value is kept and no G2 line is
/// computed twice. prepare() builds the three schedules concurrently on the
/// thread pool.
struct PreparedVerifyingKey {
  G1 alpha_g1;
  G2Prepared beta_g2;
  G2Prepared gamma_g2;
  G2Prepared delta_g2;
  std::vector<G1> ic;

  static PreparedVerifyingKey prepare(const VerifyingKey& vk);
};

struct Keypair {
  ProvingKey pk;
  VerifyingKey vk;
};

/// Trusted setup for a fixed constraint system. The trapdoor
/// (tau, alpha, beta, gamma, delta) is sampled from `rng` and discarded.
Keypair setup(const ConstraintSystem& cs, Rng& rng);

/// Produce a proof for `assignment` (full vector, assignment[0] == 1).
/// Throws std::invalid_argument if the assignment does not satisfy `cs`.
Proof prove(const ProvingKey& pk, const ConstraintSystem& cs, const std::vector<Fr>& assignment,
            Rng& rng);

/// Verify a proof against the public inputs (statement) only. Prepares the
/// key's three G2 schedules on every call; use verify_batch (or keep a
/// PreparedVerifyingKey) when verifying many proofs. Rejects a wrong input
/// arity, points off their curves, and a B outside the order-r subgroup G2
/// (the EIP-197 rule).
bool verify(const VerifyingKey& vk, const std::vector<Fr>& public_inputs, const Proof& proof);

/// Prepared-key verification: the same accept/reject decision as the
/// overload above, with the key's pairing work done once up front.
bool verify(const PreparedVerifyingKey& pvk, const std::vector<Fr>& public_inputs,
            const Proof& proof);

/// One entry of a batch verification. The key is borrowed: it must be
/// non-null and outlive the verify_batch call. Entries may point at the same
/// key object or at equal copies.
struct BatchVerifyItem {
  const VerifyingKey* vk = nullptr;
  std::vector<Fr> public_inputs;
  Proof proof;
};

/// Verifies many proofs with one small-exponent batch test (Bellare–Garay–
/// Rabin). Each distinct verifying key (matched by serialized bytes, so
/// equal copies share) is prepared once. Entries that fail verify()'s
/// admission checks (arity, curves, B in G2) are flagged 0. The rest are
/// weighted by fresh random nonzero 128-bit r_i and checked together as
///   prod_i e(B_i, -r_i A_i) * prod_keys e(beta, (sum r_i) alpha)
///     e(gamma, sum r_i vk_x_i) e(delta, sum r_i C_i) == 1,
/// one multi-Miller loop and one final exponentiation in all. If it holds,
/// every admitted entry is flagged 1 (a bad entry slips through with
/// probability at most 2^-128); if not, each admitted entry is re-checked
/// alone, so a bad proof is pinpointed (ok[i] == 0), not just detected. Used
/// by block prevalidation (chain/validation.h) and the task-contract audit.
std::vector<std::uint8_t> verify_batch(const std::vector<BatchVerifyItem>& items);

}  // namespace zl::snark
