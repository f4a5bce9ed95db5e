#pragma once
// Textbook twins of the fast kernels in src/, kept as differential oracles
// for the tests and as the speedup baselines of bench_kernels and
// bench_table1. Nothing in src/ links them.
//
//   multiexp_textbook  — Jacobian-bucket Pippenger over unsigned digits,
//                        window ~ log2(n) (oracle for ec/multiexp.h).
//   fft_textbook       — radix-2 FFT striding through one flat twiddle
//                        table (oracle for EvaluationDomain::fft/ifft).
//   pairing_textbook   — the optimal ate pairing over the binary digits
//                        of 6x + 2: affine chord-tangent lines in full
//                        Fq12, one Fq12 inversion per Miller step, the two
//                        lines through the Fq12 Frobenius images of Q, and
//                        a generic-pow hard part (oracle for ec/pairing.h).
//   random_twist_point — an on-curve twist point off G2, for the subgroup
//                        checks of G2Prepared::in_g2 and Groth16 admission.
//
// Field and group arithmetic is exact, so every kernel must match its
// oracle bit for bit. The textbook ECDSA verify lives beside this file in
// ecdsa_oracle.h.

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "ec/multiexp.h"
#include "field/fp12.h"

namespace zl::oracle {

/// sum_i scalars[i] * points[i] by the plain Jacobian bucket method.
template <typename Point>
Point multiexp_textbook(const std::vector<Point>& points, const std::vector<Fr>& scalars) {
  if (points.size() != scalars.size()) {
    throw std::invalid_argument("multiexp: size mismatch");
  }
  const std::size_t n = points.size();
  if (n == 0) return Point::infinity();
  if (n < 8) {
    Point acc = Point::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (!scalars[i].is_zero()) acc += points[i] * scalars[i].to_bigint();
    }
    return acc;
  }

  // Window size ~ log2(n) is the classic Pippenger choice; the window count
  // is derived from the field (254 bits for Fr), not a hardcoded 256.
  const unsigned c = n < 32 ? 3 : static_cast<unsigned>(std::log2(static_cast<double>(n))) - 1;
  const unsigned scalar_bits = Fr::kModulusBits;
  const unsigned windows = (scalar_bits + c - 1) / c;

  std::vector<Limbs> digits(n);
  parallel_for(n, [&](std::size_t i) { digits[i] = scalars[i].to_limbs(); });

  const std::size_t max_chunks = static_cast<std::size_t>(num_threads());
  std::size_t chunks = n / 512;
  if (chunks < 1) chunks = 1;
  if (chunks > max_chunks) chunks = max_chunks;

  std::vector<std::vector<Point>> partial(chunks);
  ThreadPool::instance().run(chunks, [&](std::size_t t) {
    const auto [begin, end] = chunk_range(n, chunks, t);
    std::vector<Point>& sums = partial[t];
    sums.assign(windows, Point::infinity());
    std::vector<Point> buckets(static_cast<std::size_t>(1) << c);
    for (unsigned w = 0; w < windows; ++w) {
      std::fill(buckets.begin(), buckets.end(), Point::infinity());
      for (std::size_t i = begin; i < end; ++i) {
        if (digits[i] == Limbs{0, 0, 0, 0}) continue;
        const std::uint32_t v = detail::window_digit(digits[i], w * c, c);
        if (v != 0) buckets[v] += points[i];
      }
      // Sum b_1 + 2 b_2 + ... via running suffix sums.
      Point running = Point::infinity();
      Point window_sum = Point::infinity();
      for (std::size_t b = buckets.size(); b-- > 1;) {
        running += buckets[b];
        window_sum += running;
      }
      sums[w] = window_sum;
    }
  });

  // Deterministic merge: windows high-to-low (Horner), chunks in order.
  Point result = Point::infinity();
  for (unsigned w = windows; w-- > 0;) {
    for (unsigned bit = 0; bit < c; ++bit) result = result.dbl();
    for (std::size_t t = 0; t < chunks; ++t) result += partial[t][w];
  }
  return result;
}

/// The flat twiddle table fft_textbook strides through: omega^j, j < size/2.
std::vector<Fr> fft_twiddles(const Fr& omega, std::size_t size);

/// In-place radix-2 FFT of `a` (size a power of two) against
/// `twiddles = fft_twiddles(omega, a.size())`: coefficients -> evaluations
/// at {omega^j}. With omega^-1 and a final scaling by 1/size it is the
/// inverse FFT.
void fft_textbook(std::vector<Fr>& a, const std::vector<Fr>& twiddles);

/// Miller loop and final exponentiation of the textbook pairing, and the
/// pairing and pairing product built from them (infinity inputs contribute
/// the factor one).
Fq12 miller_loop_textbook(const G2& q, const G1& p);
Fq12 final_exponentiation_textbook(const Fq12& f);
Fq12 pairing_textbook(const G2& q, const G1& p);
Fq12 pairing_product_textbook(const std::vector<std::pair<G2, G1>>& pairs);

/// A square root of `a` in Fq2, or nullopt for a non-square (q = 3 mod 4:
/// Adj and Rodriguez-Henriquez, "Square root computation over even extension
/// fields", Algorithm 9). src/ never decompresses G2 points, so this lives
/// with the tests.
std::optional<Fq2> fq2_sqrt(const Fq2& a);

/// A point of the twist curve y^2 = x^3 + 3/xi with no cofactor clearing:
/// a random x until x^3 + b is a square. It lies outside G2 with
/// overwhelming probability (the cofactor 2q - r is ~2^254); callers confirm
/// with in_prime_subgroup().
G2 random_twist_point(Rng& rng);

}  // namespace zl::oracle
