#include "snark/domain.h"

#include <stdexcept>

#include "common/thread_pool.h"
#include "obs/obs.h"

namespace zl::snark {

namespace {

// L1 tile: 2^10 Fr elements = 32 KB. All butterfly stages with len <= kFftTile
// run block-resident — each tile is loaded once and carried through
// log2(kFftTile) stages in cache, instead of streaming the whole array per
// stage.
constexpr std::size_t kFftTile = 1024;

// Gathers the powers omega^j, j < size/2, into the per-stage sequential
// layout described in domain.h.
std::vector<Fr> build_stage_twiddles(const Fr& omega, std::size_t size) {
  if (size < 2) return {};
  const std::vector<Fr> tw = power_table(omega, size / 2);
  std::vector<Fr> out(size - 1);
  for (std::size_t half = 1; half * 2 <= size; half <<= 1) {
    const std::size_t stride = size / (2 * half);
    Fr* dst = out.data() + (half - 1);
    for (std::size_t k = 0; k < half; ++k) dst[k] = tw[k * stride];
  }
  return out;
}

void bit_reverse_permute(std::vector<Fr>& a, std::size_t size) {
  for (std::size_t i = 1, j = 0; i < size; ++i) {
    std::size_t bit = size >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
}

}  // namespace

void batch_invert(std::vector<Fr>& values) {
  if (values.empty()) return;
  std::vector<Fr> prefix(values.size());
  Fr acc = Fr::one();
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i].is_zero()) throw std::domain_error("batch_invert: zero element");
    prefix[i] = acc;
    acc *= values[i];
  }
  Fr inv = acc.inverse();
  for (std::size_t i = values.size(); i-- > 0;) {
    const Fr original = values[i];
    values[i] = inv * prefix[i];
    inv *= original;
  }
}

std::vector<Fr> power_table(const Fr& base, std::size_t count) {
  std::vector<Fr> table(count);
  parallel_for_range(
      count,
      [&](std::size_t begin, std::size_t end) {
        Fr p = base.pow(BigInt(static_cast<unsigned long>(begin)));
        for (std::size_t i = begin; i < end; ++i) {
          table[i] = p;
          p *= base;
        }
      },
      /*min_grain=*/1024);
  return table;
}

EvaluationDomain::EvaluationDomain(std::size_t min_size) {
  if (min_size == 0) throw std::invalid_argument("EvaluationDomain: empty domain");
  size_ = 1;
  log_size_ = 0;
  while (size_ < min_size) {
    size_ <<= 1;
    ++log_size_;
  }
  if (log_size_ > kFrTwoAdicity) throw std::invalid_argument("EvaluationDomain: too large");
  const BigInt exp = (Fr::modulus_bigint() - 1) / BigInt(static_cast<unsigned long>(size_));
  omega_ = Fr::from_u64(kFrMultiplicativeGenerator).pow(exp);
  omega_inv_ = omega_.inverse();
  size_inv_ = Fr::from_u64(static_cast<std::uint64_t>(size_)).inverse();
  coset_gen_ = Fr::from_u64(kFrMultiplicativeGenerator);
  coset_gen_inv_ = coset_gen_.inverse();

  stage_twiddles_ = build_stage_twiddles(omega_, size_);
  stage_twiddles_inv_ = build_stage_twiddles(omega_inv_, size_);
  coset_powers_ = power_table(coset_gen_, size_);
  coset_powers_inv_ = power_table(coset_gen_inv_, size_);
}

void EvaluationDomain::fft_blocked(std::vector<Fr>& a,
                                   const std::vector<Fr>& stage_twiddles) const {
  if (a.size() != size_) throw std::invalid_argument("fft: size mismatch");
  ZL_TRACE_SPAN("prover.fft");
  bit_reverse_permute(a, size_);
  // Lower stages (len <= tile): after bit reversal, every butterfly with
  // len <= tile stays inside one aligned tile-sized slice, so each slice
  // runs all of those stages back to back while resident in L1. The slices
  // are independent and parallelize as units.
  const std::size_t tile = std::min(size_, kFftTile);
  parallel_for(
      size_ / tile,
      [&](std::size_t blk) {
        Fr* base = a.data() + blk * tile;
        for (std::size_t len = 2; len <= tile; len <<= 1) {
          const std::size_t half = len >> 1;
          const Fr* tw = stage_twiddles.data() + (half - 1);
          for (std::size_t start = 0; start < tile; start += len) {
            for (std::size_t k = 0; k < half; ++k) {
              Fr& lo = base[start + k];
              Fr& hi = base[start + k + half];
              const Fr u = lo;
              const Fr v = hi * tw[k];
              lo = u + v;
              hi = u - v;
            }
          }
        }
      },
      /*min_grain=*/1);
  // Upper stages span multiple tiles and keep the per-stage barrier, but now
  // read their twiddles sequentially from the stage table.
  for (std::size_t len = tile << 1; len <= size_; len <<= 1) {
    const std::size_t half = len >> 1;
    const Fr* tw = stage_twiddles.data() + (half - 1);
    parallel_for(
        size_ / 2,
        [&](std::size_t b) {
          const std::size_t block = b / half, k = b % half;
          const std::size_t i0 = block * len + k;
          const std::size_t i1 = i0 + half;
          const Fr u = a[i0];
          const Fr v = a[i1] * tw[k];
          a[i0] = u + v;
          a[i1] = u - v;
        },
        /*min_grain=*/2048);
  }
}

void EvaluationDomain::fft(std::vector<Fr>& a) const { fft_blocked(a, stage_twiddles_); }

void EvaluationDomain::ifft(std::vector<Fr>& a) const {
  fft_blocked(a, stage_twiddles_inv_);
  parallel_for(
      size_, [&](std::size_t i) { a[i] *= size_inv_; }, /*min_grain=*/2048);
}

void EvaluationDomain::coset_fft(std::vector<Fr>& a) const {
  if (a.size() != size_) throw std::invalid_argument("coset_fft: size mismatch");
  parallel_for(
      size_, [&](std::size_t i) { a[i] *= coset_powers_[i]; }, /*min_grain=*/2048);
  fft(a);
}

void EvaluationDomain::coset_ifft(std::vector<Fr>& a) const {
  ifft(a);
  parallel_for(
      size_, [&](std::size_t i) { a[i] *= coset_powers_inv_[i]; }, /*min_grain=*/2048);
}

Fr EvaluationDomain::vanishing_poly_at(const Fr& x) const {
  return x.pow(BigInt(static_cast<unsigned long>(size_))) - Fr::one();
}

Fr EvaluationDomain::vanishing_poly_on_coset() const {
  return vanishing_poly_at(coset_gen_);
}

std::vector<Fr> EvaluationDomain::lagrange_coeffs_at(const Fr& tau) const {
  const Fr z = vanishing_poly_at(tau);
  if (z.is_zero()) throw std::domain_error("lagrange_coeffs_at: tau lies in the domain");
  // L_j(tau) = (Z(tau) / size) * omega^j / (tau - omega^j). omega^j comes
  // from the last FFT stage's twiddles: omega^j for j < size/2, and
  // omega^(size/2 + k) = -omega^k (omega^(size/2) = -1 in a 2-adic domain).
  const std::size_t half = size_ / 2;
  const auto omega_pow = [&](std::size_t j) {
    if (size_ == 1) return Fr::one();
    const Fr* tw = stage_twiddles_.data() + (half - 1);
    return j < half ? tw[j] : -tw[j - half];
  };
  std::vector<Fr> denoms(size_);
  parallel_for(
      size_, [&](std::size_t j) { denoms[j] = tau - omega_pow(j); }, /*min_grain=*/2048);
  batch_invert(denoms);
  std::vector<Fr> out(size_);
  const Fr scale = z * size_inv_;
  parallel_for(
      size_, [&](std::size_t j) { out[j] = scale * omega_pow(j) * denoms[j]; },
      /*min_grain=*/2048);
  return out;
}

}  // namespace zl::snark
