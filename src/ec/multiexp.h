#pragma once
// Pippenger (bucket-method) multi-scalar multiplication.
//
// The Groth16 prover and setup are dominated by multiexps of size equal to
// the number of circuit variables/constraints, so this is the performance-
// critical primitive of the whole proving pipeline.
//
// The kernel (DESIGN.md §11): signed-digit windows (digits in
// [-2^(c-1), 2^(c-1)], so half the buckets), batch-affine bucket
// accumulation (buckets stay affine; each conflict-free pass resolves its
// additions with ONE field inversion via Montgomery's trick), and — for G1
// and G2 — a GLV front-end that splits every scalar into two half-width
// scalars against the endomorphism image, halving the window count.
//
// Group addition is exact, so any bucketing/order computes the same group
// element; serialization normalizes to affine, hence byte outputs match the
// textbook Jacobian bucket method kept as a test-only oracle
// (tests/kernel_oracles.h; pinned by tests/test_ec.cpp and test_snark.cpp).
//
// Parallelism: the scalar range is split into chunks; each worker runs the
// bucket method over its slice, producing one partial sum per window, and
// the caller merges partials in (chunk, window) order with a single Horner
// pass of doublings. ZL_THREADS=1 takes the one-chunk path, which IS the
// serial algorithm.
//
// Scalars are decomposed once up front, windows cover only the significant
// bits, and zero scalars never touch a bucket — sparse witness vectors are
// common in our circuits.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/thread_pool.h"
#include "ec/bn254_groups.h"
#include "ec/glv.h"
#include "obs/obs.h"

namespace zl {

namespace detail {

/// The c-bit window digit of a canonical little-endian limb array starting
/// at bit position `pos`.
inline std::uint32_t window_digit(const Limbs& limbs, unsigned pos, unsigned c) {
  const unsigned limb = pos / 64, off = pos % 64;
  std::uint64_t v = limbs[limb] >> off;
  if (off + c > 64 && limb + 1 < limbs.size()) v |= limbs[limb + 1] << (64 - off);
  return static_cast<std::uint32_t>(v & ((std::uint64_t{1} << c) - 1));
}

/// Signed-digit decomposition: window digits re-centred into
/// [-2^(c-1), 2^(c-1)] with carry propagation. Negative digits reuse the
/// positive buckets with a negated point, halving the bucket count.
inline void signed_digits(const Limbs& limbs, unsigned windows, unsigned c, std::int32_t* out) {
  const std::int64_t half = std::int64_t{1} << (c - 1);
  std::int64_t carry = 0;
  for (unsigned w = 0; w < windows; ++w) {
    const unsigned pos = w * c;
    std::int64_t d = carry;
    if (pos < 256) d += window_digit(limbs, pos, c);
    if (d > half) {
      d -= std::int64_t{1} << c;
      carry = 1;
    } else {
      carry = 0;
    }
    out[w] = static_cast<std::int32_t>(d);
  }
  // No carry can escape: the caller sizes `windows` with one guard window
  // past the scalar's top bit, whose raw digit is 0, so d <= 1 <= half there.
}

/// |v| as little-endian limbs. v must fit in 256 bits.
inline Limbs limbs_from_bigint_abs(const BigInt& v) {
  Limbs out{0, 0, 0, 0};
  const BigInt a = abs(v);
  std::size_t count = 0;
  mpz_export(out.data(), &count, -1, sizeof(std::uint64_t), 0, 0, a.get_mpz_t());
  return out;
}

/// In-place batch inversion (Montgomery's trick): one inverse() amortized
/// over the whole vector. All entries must be nonzero.
template <typename Field>
void batch_invert_field(std::vector<Field>& xs, std::vector<Field>& prefix) {
  if (xs.empty()) return;
  prefix.resize(xs.size());
  Field acc = Field::one();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    prefix[i] = acc;
    acc *= xs[i];
  }
  Field inv = acc.inverse();
  for (std::size_t i = xs.size(); i-- > 0;) {
    const Field xi = inv * prefix[i];
    inv *= xs[i];
    xs[i] = xi;
  }
}

template <typename Field>
void batch_invert_field(std::vector<Field>& xs) {
  std::vector<Field> prefix;
  batch_invert_field(xs, prefix);
}

/// Pippenger window size for n points and `scalar_bits`-bit scalars, chosen
/// by minimizing the engine's field-multiplication cost model: per window,
/// batched-affine bucket fill costs ~6 muls per point while the suffix-sum
/// merge costs ~27 muls per bucket (one mixed + one full Jacobian add) over
/// 2^(c-1) signed-digit buckets. The optimum is well below log2(n): merge
/// adds are ~4.5x the price of batched fill adds.
inline unsigned kernel_window_bits(std::size_t n, unsigned scalar_bits) {
  double best = std::numeric_limits<double>::infinity();
  unsigned best_c = 3;
  for (unsigned c = 3; c <= 16; ++c) {
    const double windows = scalar_bits / c + 1;
    const double cost = windows * (6.0 * static_cast<double>(n) +
                                   27.0 * static_cast<double>(std::size_t{1} << (c - 1)));
    if (cost < best) {
      best = cost;
      best_c = c;
    }
  }
  return best_c;
}

/// Core of the kernel: sum_i k[i] * pts[i] over sign-adjusted affine
/// points and magnitude scalars of at most `scalar_bits` bits.
template <typename Point>
Point multiexp_core(const std::vector<typename Point::Affine>& pts, const std::vector<Limbs>& k,
                    unsigned scalar_bits) {
  using Field = typename Point::Field;
  using Affine = typename Point::Affine;
  const std::size_t n = pts.size();
  // Size the windows by the number of pairs that actually reach a bucket:
  // query vectors are padded with infinities (and witness scalars are often
  // zero), and an overestimate of n inflates the bucket count.
  std::size_t active = 0;
  for (std::size_t i = 0; i < n; ++i) {
    active += static_cast<std::size_t>(!pts[i].infinity && k[i] != Limbs{0, 0, 0, 0});
  }
  if (active == 0) return Point::infinity();
  const unsigned c = kernel_window_bits(active, scalar_bits);
  const unsigned windows = scalar_bits / c + 1;  // +1 guard window for the signed carry
  const std::size_t bucket_count = std::size_t{1} << (c - 1);

  // Signed digits for every (scalar, window) pair, decomposed once.
  std::vector<std::int32_t> digs(n * windows);
  parallel_for(n, [&](std::size_t i) { signed_digits(k[i], windows, c, &digs[i * windows]); });

  const std::size_t max_chunks = static_cast<std::size_t>(num_threads());
  std::size_t chunks = n / 512;
  if (chunks < 1) chunks = 1;
  if (chunks > max_chunks) chunks = max_chunks;

  // Conflict-free rounds by construction: items are counting-sorted into
  // per-bucket groups, and round t consumes the t-th item of every bucket
  // that still has one. Each item is touched exactly once (O(n) scheduling),
  // and each round pays a single inversion for all its additions.
  struct Job {
    std::uint32_t bucket;
    std::uint32_t idx;
    bool neg;
    bool dbl;
  };

  std::vector<std::vector<Point>> partial(chunks);
  ThreadPool::instance().run(chunks, [&](std::size_t t) {
    const auto [begin, end] = chunk_range(n, chunks, t);
    std::vector<Point>& sums = partial[t];
    sums.assign(windows, Point::infinity());
    std::vector<Affine> buckets(bucket_count);
    std::vector<std::uint32_t> cur(bucket_count), bend(bucket_count);
    std::vector<std::uint32_t> sorted;  // (idx << 1) | neg, grouped by bucket
    std::vector<std::uint32_t> active, next_active;
    std::vector<Job> jobs;
    std::vector<Field> dens, inv_scratch;
    for (unsigned w = 0; w < windows; ++w) {
      std::fill(buckets.begin(), buckets.end(), Affine{});
      std::fill(bend.begin(), bend.end(), 0);
      for (std::size_t i = begin; i < end; ++i) {
        const std::int32_t d = digs[i * windows + w];
        if (d == 0 || pts[i].infinity) continue;
        const std::uint32_t mag = static_cast<std::uint32_t>(d < 0 ? -d : d);
        ++bend[mag - 1];  // bucket occupancy count, turned into end offsets below
      }
      std::uint32_t total = 0;
      active.clear();
      for (std::size_t b = 0; b < bucket_count; ++b) {
        cur[b] = total;
        total += bend[b];
        bend[b] = total;
        if (cur[b] != total) active.push_back(static_cast<std::uint32_t>(b));
      }
      sorted.resize(total);
      for (std::size_t i = begin; i < end; ++i) {
        const std::int32_t d = digs[i * windows + w];
        if (d == 0 || pts[i].infinity) continue;
        const std::uint32_t mag = static_cast<std::uint32_t>(d < 0 ? -d : d);
        sorted[cur[mag - 1]++] = (static_cast<std::uint32_t>(i) << 1) |
                                 static_cast<std::uint32_t>(d < 0);
      }
      for (std::size_t b = bucket_count; b-- > 0;) {
        cur[b] = b == 0 ? 0 : bend[b - 1];  // rewind cursors to group starts
      }
      while (!active.empty()) {
        jobs.clear();
        dens.clear();
        next_active.clear();
        for (const std::uint32_t bkt : active) {
          const std::uint32_t enc = sorted[cur[bkt]++];
          if (cur[bkt] < bend[bkt]) next_active.push_back(bkt);
          const std::uint32_t i = enc >> 1;
          const bool neg = (enc & 1) != 0;
          Affine& b = buckets[bkt];
          const Field& qx = pts[i].x;
          const Field qy = neg ? -pts[i].y : pts[i].y;
          if (b.infinity) {
            b = Affine{qx, qy, false};  // first hit: direct set, no addition
            continue;
          }
          if (b.x == qx) {
            if (b.y == qy) {
              if (b.y.is_zero()) {
                b = Affine{};  // order-2 point; total-ness over speed
                continue;
              }
              jobs.push_back(Job{bkt, i, neg, true});
              dens.push_back(b.y.dbl());
            } else {
              b = Affine{};  // P + (-P)
            }
            continue;
          }
          jobs.push_back(Job{bkt, i, neg, false});
          dens.push_back(qx - b.x);
        }
        batch_invert_field(dens, inv_scratch);
        for (std::size_t j = 0; j < jobs.size(); ++j) {
          Affine& b = buckets[jobs[j].bucket];
          const Field& inv = dens[j];
          Field lam, x3;
          if (jobs[j].dbl) {
            const Field xx = b.x.squared();
            lam = (xx + xx + xx) * inv;  // 3x^2 / 2y
            x3 = lam.squared() - b.x.dbl();
          } else {
            const Affine& q = pts[jobs[j].idx];
            const Field qy = jobs[j].neg ? -q.y : q.y;
            lam = (qy - b.y) * inv;  // (y2 - y1) / (x2 - x1)
            x3 = lam.squared() - b.x - q.x;
          }
          b.y = lam * (b.x - x3) - b.y;
          b.x = x3;
        }
        active.swap(next_active);
      }
      // Sum m * B_m via running suffix sums; buckets[b] holds magnitude b+1.
      Point running = Point::infinity();
      Point window_sum = Point::infinity();
      for (std::size_t b = bucket_count; b-- > 0;) {
        running = running.add_mixed(buckets[b]);
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

/// GLV kernel (G1 and G2): split every scalar into two half-width
/// magnitudes against the base point and its endomorphism image. Twice the
/// points at half the windows — the windowed doubling chain halves outright.
template <typename Point>
Point multiexp_kernel_glv(const std::vector<Point>& points, const std::vector<Fr>& scalars) {
  using Affine = typename Point::Affine;
  const std::size_t n = points.size();
  const std::vector<Affine> base = Point::normalize(points);
  const typename Point::Field& scale = glv_curve<Point>().endo_scale;
  std::vector<Affine> pts(2 * n);
  std::vector<Limbs> k(2 * n);
  std::vector<unsigned> bits(n);
  parallel_for(n, [&](std::size_t i) {
    const GlvDecomposition d = glv_decompose<Point>(scalars[i].to_bigint());
    k[2 * i] = limbs_from_bigint_abs(d.k1);
    k[2 * i + 1] = limbs_from_bigint_abs(d.k2);
    const std::size_t b1 = d.k1 == 0 ? 0 : mpz_sizeinbase(d.k1.get_mpz_t(), 2);
    const std::size_t b2 = d.k2 == 0 ? 0 : mpz_sizeinbase(d.k2.get_mpz_t(), 2);
    bits[i] = static_cast<unsigned>(std::max(b1, b2));
    if (!base[i].infinity) {
      pts[2 * i] = Affine{base[i].x, d.k1 < 0 ? -base[i].y : base[i].y, false};
      pts[2 * i + 1] = Affine{scale * base[i].x, d.k2 < 0 ? -base[i].y : base[i].y, false};
    }
  });
  const unsigned scalar_bits = *std::max_element(bits.begin(), bits.end());
  if (scalar_bits == 0) return Point::infinity();
  return multiexp_core<Point>(pts, k, scalar_bits);
}

/// Sum of scalars[i] * points[i] for a handful of terms: each live term
/// (nonzero scalar, finite point) is GLV-split, and the halves run through
/// the joint wNAF kernel two terms (four half-scalars) per doubling chain.
template <typename Point>
Point multiexp_small(const std::vector<Point>& points, const std::vector<Fr>& scalars) {
  constexpr unsigned w = kWnafCallWindow;
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!scalars[i].is_zero() && !points[i].is_infinity()) live.push_back(i);
  }
  Point acc = Point::infinity();
  for (std::size_t j = 0; j < live.size(); j += 2) {
    const std::size_t a = live[j];
    if (j + 1 == live.size()) {
      acc += glv_mul(points[a], scalars[a]);
      break;
    }
    const std::size_t b = live[j + 1];
    const GlvDecomposition da = glv_decompose<Point>(scalars[a].to_bigint());
    const GlvDecomposition db = glv_decompose<Point>(scalars[b].to_bigint());
    const std::vector<typename Point::Affine> ta = glv_tables(points[a], w);
    const std::vector<typename Point::Affine> tb = glv_tables(points[b], w);
    acc += wnaf_mul<Point>({{ta.data(), w, da.k1},
                            {ta.data() + ta.size() / 2, w, da.k2},
                            {tb.data(), w, db.k1},
                            {tb.data() + tb.size() / 2, w, db.k2}});
  }
  return acc;
}

}  // namespace detail

/// Computes sum_i scalars[i] * points[i] over G1 or G2 (the kernel needs the
/// GLV endomorphism). Scalars are Fr elements. Fewer than 8 terms take the
/// joint wNAF kernel; everything else runs the bucket kernel.
template <typename Point>
Point multiexp(const std::vector<Point>& points, const std::vector<Fr>& scalars) {
  if (points.size() != scalars.size()) {
    throw std::invalid_argument("multiexp: size mismatch");
  }
  ZL_TRACE_SPAN("prover.multiexp");
  if (points.size() < 8) return detail::multiexp_small(points, scalars);
  return detail::multiexp_kernel_glv(points, scalars);
}

}  // namespace zl
