#pragma once
// Radix-2 FFT evaluation domains over Fr (2-adicity 28 suffices for every
// circuit in this system). Used by the Groth16 prover to compute the QAP
// quotient polynomial H, and by the setup to evaluate Lagrange bases.
//
// Construction precomputes, per domain: the per-stage twiddle tables (powers
// of omega and omega^-1, size-1 each) consumed by the FFT, and the coset
// power tables (powers of the multiplicative generator g and of g^-1, size
// each) shared by coset_fft/coset_ifft — the three coset FFTs of one
// compute_h call reuse one table instead of re-deriving a running product
// three times. Butterfly stages and coset scalings run on the process
// thread pool (common/thread_pool.h); every parallel write targets a
// disjoint slot and field arithmetic is exact, so results are bit-identical
// at any thread count.

#include <vector>

#include "field/bn254.h"

namespace zl::snark {

/// Batch inversion (Montgomery's trick): replaces each non-zero element by
/// its inverse using a single field inversion. Zero entries throw.
void batch_invert(std::vector<Fr>& values);

/// table[i] = base^i for i in [0, count), computed in parallel chunks
/// (chunk heads seeded by pow, then running products).
std::vector<Fr> power_table(const Fr& base, std::size_t count);

class EvaluationDomain {
 public:
  /// Creates the multiplicative subgroup of size next_pow2(min_size).
  explicit EvaluationDomain(std::size_t min_size);

  std::size_t size() const { return size_; }
  const Fr& omega() const { return omega_; }

  /// In-place FFT: coefficients -> evaluations at {omega^j}.
  void fft(std::vector<Fr>& a) const;

  /// In-place inverse FFT: evaluations -> coefficients.
  void ifft(std::vector<Fr>& a) const;

  /// FFT over the coset g*H where g is the Fr multiplicative generator.
  void coset_fft(std::vector<Fr>& a) const;
  void coset_ifft(std::vector<Fr>& a) const;

  /// Z(x) = x^size - 1 evaluated at `x`.
  Fr vanishing_poly_at(const Fr& x) const;

  /// Z evaluated anywhere on the coset g*H (constant: g^size - 1).
  Fr vanishing_poly_on_coset() const;

  /// All Lagrange basis polynomials evaluated at `tau`:
  /// L_j(tau) = Z(tau) * omega^j / (size * (tau - omega^j)).
  /// `tau` must not lie in the domain.
  std::vector<Fr> lagrange_coeffs_at(const Fr& tau) const;

 private:
  void fft_blocked(std::vector<Fr>& a, const std::vector<Fr>& stage_twiddles) const;

  std::size_t size_;
  unsigned log_size_;
  Fr omega_;
  Fr omega_inv_;
  Fr size_inv_;
  Fr coset_gen_;
  Fr coset_gen_inv_;
  // Per-stage twiddle layout for the cache-blocked FFT: the stage with
  // half-block h occupies [h-1, 2h-1), entry k = omega^(k * size/(2h)), so
  // every butterfly stage reads its twiddles sequentially instead of with a
  // stride of size/len through one flat table. size-1 entries total; the
  // last stage's slice [size/2-1, size-1) is omega^k for k < size/2.
  std::vector<Fr> stage_twiddles_;
  std::vector<Fr> stage_twiddles_inv_;
  std::vector<Fr> coset_powers_;      // g^j,       j < size
  std::vector<Fr> coset_powers_inv_;  // g^-j,      j < size
};

}  // namespace zl::snark
