// Micro-benchmarks for the low-level prover kernel engine (DESIGN.md §11):
//
//   - Fq Montgomery multiply vs. the dedicated squaring kernel (ns/op,
//     dependent chains so the loop cannot be pipelined away),
//   - G1 single-scalar multiplication: variable-time double-and-add ladder
//     vs. GLV split on the joint wNAF kernel,
//   - secp256k1 ECDSA: sign (blinded fixed-base walk) and verify (one joint
//     GLV-wNAF pass) against the textbook double-and-add verify kept in
//     tests/ecdsa_oracle.h (us/op),
//   - the optimal ate pairing: the textbook oracle vs. the fast path, and
//     the fast path's parts — one G2 schedule with its membership test, one
//     final exponentiation, an 8-pair prepared product (ms/op),
//   - Groth16 on the CPL-AA circuit: k proofs checked one at a time against
//     a prepared key vs. one snark::verify_batch call, k = 1, 8, 64
//     (ms/proof; the batch prepares its key on every call),
//   - G1 multiexp at n = 2^10..2^16: textbook Pippenger oracle vs. the
//     batch-affine signed-digit kernel (us/point),
//   - radix-2 FFT at n = 2^10..2^16: flat-table textbook oracle vs. the
//     cache-blocked kernel (ms/transform).
//
// The textbook oracles live with the tests (tests/kernel_oracles.h,
// tests/ecdsa_oracle.h; the zl_oracles target).
//
// The oracle/kernel comparisons run single-threaded (the kernels are
// single-core rewrites) so the printed ratios are pure kernel effects; a
// final section re-times the two pool-parallel kernels (multiexp, FFT) at
// n = 2^14 across thread counts on multi-core hosts — on one core the
// section records null plus a warning instead of a fake 1.0x ladder.
// Results land in BENCH_kernels.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "auth/cpl_auth.h"
#include "common/thread_pool.h"
#include "crypto/ecdsa.h"
#include "ec/bn254_groups.h"
#include "ec/glv.h"
#include "ec/multiexp.h"
#include "ec/pairing.h"
#include "ecdsa_oracle.h"
#include "kernel_oracles.h"
#include "snark/domain.h"

using namespace zl;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of `reps` timed runs of `fn` (seconds).
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn();
    samples.push_back(seconds_since(start));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

int main() {
  set_num_threads(1);
  Rng rng(20260808);

  // --- Fq Montgomery multiply vs. dedicated squaring --------------------
  // Dependent chains: each op feeds the next, so we measure latency of the
  // kernel itself rather than how many the OoO core can overlap.
  constexpr int kFieldIters = 2'000'000;
  Fq acc = Fq::random(rng);
  const Fq mul_operand = Fq::random(rng);
  auto mul_start = Clock::now();
  for (int i = 0; i < kFieldIters; ++i) acc = acc * mul_operand;
  const double mont_mul_ns = seconds_since(mul_start) * 1e9 / kFieldIters;

  Fq acc2 = Fq::random(rng);
  auto sqr_start = Clock::now();
  for (int i = 0; i < kFieldIters; ++i) acc2 = acc2.squared();
  const double mont_sqr_ns = seconds_since(sqr_start) * 1e9 / kFieldIters;
  // Keep the chains observable so the loops cannot be dead-code eliminated.
  if (acc.is_zero() && acc2.is_zero()) std::fprintf(stderr, "(unreachable)\n");

  std::printf("Fq mont_mul  %7.1f ns/op\n", mont_mul_ns);
  std::printf("Fq mont_sqr  %7.1f ns/op   (%.2fx of mul)\n", mont_sqr_ns,
              mont_sqr_ns / mont_mul_ns);

  // --- G1 scalar multiplication: ladder vs. GLV -------------------------
  constexpr int kMulReps = 200;
  std::vector<BigInt> scalars_big;
  for (int i = 0; i < kMulReps; ++i) scalars_big.push_back(Fr::random(rng).to_bigint());
  const G1 base = G1::generator() * Fr::random(rng).to_bigint();

  G1 sink = G1::infinity();
  auto ladder_start = Clock::now();
  for (const BigInt& k : scalars_big) sink = sink + base * k;
  const double ladder_us = seconds_since(ladder_start) * 1e6 / kMulReps;

  G1 sink2 = G1::infinity();
  auto glv_start = Clock::now();
  for (const BigInt& k : scalars_big) sink2 = sink2 + glv_mul(base, k);
  const double glv_us = seconds_since(glv_start) * 1e6 / kMulReps;
  if (!(sink == sink2)) {
    std::fprintf(stderr, "FATAL: GLV disagrees with the ladder\n");
    return 1;
  }
  std::printf("G1 ladder    %7.1f us/mul\n", ladder_us);
  std::printf("G1 glv_mul   %7.1f us/mul   (%.2fx speedup)\n", glv_us, ladder_us / glv_us);

  // --- secp256k1 ECDSA: production sign/verify vs. the oracle verify ----
  constexpr int kEcdsaKeys = 16, kEcdsaPerKey = 16;
  std::vector<EcdsaKeyPair> ecdsa_keys;
  std::vector<Bytes> ecdsa_pubs, ecdsa_msgs;
  std::vector<EcdsaSignature> ecdsa_sigs;
  for (int i = 0; i < kEcdsaKeys; ++i) {
    ecdsa_keys.push_back(EcdsaKeyPair::generate(rng));
    for (int j = 0; j < kEcdsaPerKey; ++j) {
      ecdsa_pubs.push_back(ecdsa_keys.back().public_key_bytes());
      ecdsa_msgs.push_back(rng.bytes(128));
    }
  }
  const double ecdsa_ops = static_cast<double>(ecdsa_msgs.size());
  const double ecdsa_sign_us = median_seconds(3, [&] {
    ecdsa_sigs.clear();
    for (std::size_t i = 0; i < ecdsa_msgs.size(); ++i) {
      ecdsa_sigs.push_back(ecdsa_keys[i / kEcdsaPerKey].sign(ecdsa_msgs[i], rng));
    }
  }) * 1e6 / ecdsa_ops;
  std::size_t verified = 0, oracle_verified = 0;
  const double ecdsa_verify_us = median_seconds(3, [&] {
    verified = 0;
    for (std::size_t i = 0; i < ecdsa_msgs.size(); ++i) {
      verified += ecdsa_verify(ecdsa_pubs[i], ecdsa_msgs[i], ecdsa_sigs[i]) ? 1 : 0;
    }
  }) * 1e6 / ecdsa_ops;
  const double ecdsa_oracle_verify_us = median_seconds(3, [&] {
    oracle_verified = 0;
    for (std::size_t i = 0; i < ecdsa_msgs.size(); ++i) {
      oracle_verified += oracle::ecdsa_verify(ecdsa_pubs[i], ecdsa_msgs[i], ecdsa_sigs[i]) ? 1 : 0;
    }
  }) * 1e6 / ecdsa_ops;
  if (verified != ecdsa_msgs.size() || oracle_verified != ecdsa_msgs.size()) {
    std::fprintf(stderr, "FATAL: ECDSA verify rejected a fresh signature\n");
    return 1;
  }
  std::printf("ECDSA sign   %7.1f us/op\n", ecdsa_sign_us);
  std::printf("ECDSA verify %7.1f us/op   (oracle %.1f us, %.2fx speedup)\n", ecdsa_verify_us,
              ecdsa_oracle_verify_us, ecdsa_oracle_verify_us / ecdsa_verify_us);

  // --- Pairing: textbook oracle vs. the fast path, and its parts ---------
  double pairing_textbook_ms = 0, pairing_ms = 0, g2_prepare_ms = 0, final_exp_ms = 0,
         product8_ms = 0;
  {
    constexpr std::size_t kPairs = 8;
    std::vector<G2> qs;
    std::vector<G1> ps;
    for (std::size_t i = 0; i < kPairs; ++i) {
      qs.push_back(G2::generator() * Fr::random(rng));
      ps.push_back(G1::generator() * Fr::random(rng));
    }
    std::vector<G2Prepared> prepared(qs.begin(), qs.end());
    std::vector<std::pair<const G2Prepared*, G1>> pairs;
    for (std::size_t i = 0; i < kPairs; ++i) pairs.emplace_back(&prepared[i], ps[i]);
    const Fq12 f = miller_loop(qs[0], ps[0]);
    // Rounds time every row once each, so host noise lands on all rows
    // alike; each row is the median over rounds.
    std::vector<double> textbook, fast_ms, prepare, final_exp, product;
    Fq12 fast, slow;
    bool in_g2 = true;
    for (int round = 0; round < 9; ++round) {
      textbook.push_back(median_seconds(1, [&] { slow = oracle::pairing_textbook(qs[0], ps[0]); }));
      fast_ms.push_back(median_seconds(1, [&] { fast = pairing(qs[0], ps[0]); }));
      if (fast != slow) {
        std::fprintf(stderr, "FATAL: fast pairing disagrees with the textbook oracle\n");
        return 1;
      }
      prepare.push_back(median_seconds(1, [&] { in_g2 &= G2Prepared(qs[1]).in_g2(); }));
      final_exp.push_back(median_seconds(1, [&] { fast = final_exponentiation(f); }));
      product.push_back(median_seconds(1, [&] { fast = pairing_product(pairs); }));
    }
    const auto median_ms = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      return v[v.size() / 2] * 1e3;
    };
    pairing_textbook_ms = median_ms(textbook);
    pairing_ms = median_ms(fast_ms);
    g2_prepare_ms = median_ms(prepare);
    final_exp_ms = median_ms(final_exp);
    product8_ms = median_ms(product);
    if (!in_g2 || fast.is_one()) {
      std::fprintf(stderr, "FATAL: G2 schedule or pairing product degenerate\n");
      return 1;
    }
    std::printf("\nPairing (ms/op)\n");
    std::printf("textbook     %7.3f\nfast         %7.3f   (%.2fx speedup)\n", pairing_textbook_ms,
                pairing_ms, pairing_textbook_ms / pairing_ms);
    std::printf("G2 schedule  %7.3f   (with the G2 membership test)\n", g2_prepare_ms);
    std::printf("final exp    %7.3f\n8-pair prod  %7.3f   (prepared: one multi-Miller loop + "
                "one final exp)\n",
                final_exp_ms, product8_ms);
  }

  // --- Groth16: one prepared verify vs. the batch, on the auth circuit --
  // The CPL-AA circuit at the lifecycle workload's registry depth. The
  // proofs are made on every hardware thread (distinct messages, so
  // distinct statements); the timing runs on one.
  constexpr std::size_t kBatchSizes[] = {1, 8, 64};
  constexpr std::size_t kMaxBatch = 64;
  double groth16_verify_ms = 0;
  struct BatchRow {
    std::size_t k;
    double single_ms, batch_ms;  // per proof
  };
  std::vector<BatchRow> batch_rows;
  {
    std::fprintf(stderr, "[kernels] proving %zu CPL-AA attestations...\n", kMaxBatch);
    const unsigned depth = 8;
    const auth::AuthParams params = auth::auth_setup(depth, rng);
    auth::RegistrationAuthority ra(depth);
    const auth::UserKey user = auth::UserKey::generate(rng);
    const auth::Certificate cert = ra.register_identity("bench-user", user.pk);
    const Fr root = ra.registry_root();
    const Bytes prefix = to_bytes("bench-task-address");
    std::vector<snark::BatchVerifyItem> items(kMaxBatch);
    set_num_threads(std::max(1u, std::thread::hardware_concurrency()));
    parallel_for(
        kMaxBatch,
        [&](std::size_t i) {
          Rng item_rng(7000 + i);
          const Bytes rest = to_bytes("bench-worker-" + std::to_string(i));
          const auth::Attestation att =
              auth::authenticate(params, prefix, rest, user, cert, root, item_rng);
          items[i] = {&params.keys.vk, auth::auth_statement(prefix, rest, root, att), att.proof};
        },
        /*min_grain=*/1);
    set_num_threads(1);

    // Rounds alternate checking the first k proofs one at a time against a
    // prepared key and in one verify_batch call, so host noise lands on
    // both sides alike; each row is the median over rounds.
    const snark::PreparedVerifyingKey pvk = snark::PreparedVerifyingKey::prepare(params.keys.vk);
    bool all_ok = true;
    std::printf("\nGroth16 verify, auth circuit (ms/proof)\n%8s %12s %12s %9s\n", "k",
                "one-by-one", "batch", "gain");
    for (const std::size_t k : kBatchSizes) {
      const std::vector<snark::BatchVerifyItem> batch(items.begin(),
                                                      items.begin() + static_cast<long>(k));
      std::vector<double> single_ms, batch_ms;
      for (int round = 0; round < 9; ++round) {
        single_ms.push_back(median_seconds(1, [&] {
          for (const snark::BatchVerifyItem& item : batch) {
            all_ok &= snark::verify(pvk, item.public_inputs, item.proof);
          }
        }) * 1e3 / static_cast<double>(k));
        batch_ms.push_back(median_seconds(1, [&] {
          const std::vector<std::uint8_t> ok = snark::verify_batch(batch);
          all_ok &= std::count(ok.begin(), ok.end(), 1) == static_cast<long>(k);
        }) * 1e3 / static_cast<double>(k));
      }
      std::sort(single_ms.begin(), single_ms.end());
      std::sort(batch_ms.begin(), batch_ms.end());
      const double single = single_ms[single_ms.size() / 2];
      const double per_proof = batch_ms[batch_ms.size() / 2];
      if (k == kMaxBatch) groth16_verify_ms = single;
      batch_rows.push_back({k, single, per_proof});
      std::printf("%8zu %12.3f %12.3f %8.2fx\n", k, single, per_proof, single / per_proof);
    }
    if (!all_ok) {
      std::fprintf(stderr, "FATAL: Groth16 verification rejected a fresh proof\n");
      return 1;
    }
  }

  // --- G1 multiexp: textbook Pippenger vs. batch-affine kernel ----------
  struct MultiexpRow {
    std::size_t n;
    double textbook_us_per_point, kernel_us_per_point;
  };
  std::vector<MultiexpRow> multiexp_rows;
  {
    const std::size_t n_max = std::size_t{1} << 16;
    // Distinct points from a cheap addition chain (a fresh scalar mult per
    // point would dominate setup time at 2^16).
    std::vector<G1> points;
    points.reserve(n_max);
    G1 p = base;
    for (std::size_t i = 0; i < n_max; ++i, p = p + G1::generator()) points.push_back(p);
    std::vector<Fr> scalars;
    scalars.reserve(n_max);
    for (std::size_t i = 0; i < n_max; ++i) scalars.push_back(Fr::random(rng));

    std::printf("\nG1 multiexp (us/point)\n%8s %12s %12s %9s\n", "n", "textbook", "kernel",
                "speedup");
    for (unsigned log_n = 10; log_n <= 16; ++log_n) {
      const std::size_t n = std::size_t{1} << log_n;
      const std::vector<G1> pts(points.begin(), points.begin() + n);
      const std::vector<Fr> ks(scalars.begin(), scalars.begin() + n);
      const int reps = log_n <= 12 ? 5 : 3;
      G1 expect, got;
      const double textbook_s =
          median_seconds(reps, [&] { expect = oracle::multiexp_textbook(pts, ks); });
      const double kernel_s = median_seconds(reps, [&] { got = multiexp(pts, ks); });
      if (!(expect == got)) {
        std::fprintf(stderr, "FATAL: multiexp kernel disagrees with textbook at n=%zu\n", n);
        return 1;
      }
      const double tb_us = textbook_s * 1e6 / static_cast<double>(n);
      const double kn_us = kernel_s * 1e6 / static_cast<double>(n);
      multiexp_rows.push_back({n, tb_us, kn_us});
      std::printf("%8zu %12.3f %12.3f %8.2fx\n", n, tb_us, kn_us, tb_us / kn_us);
    }
  }

  // --- FFT: textbook vs. cache-blocked ----------------------------------
  struct FftRow {
    std::size_t n;
    double textbook_ms, kernel_ms;
  };
  std::vector<FftRow> fft_rows;
  {
    std::printf("\nFr FFT (ms/transform)\n%8s %12s %12s %9s\n", "n", "textbook", "kernel",
                "speedup");
    for (unsigned log_n = 10; log_n <= 16; ++log_n) {
      const std::size_t n = std::size_t{1} << log_n;
      const snark::EvaluationDomain domain(n);
      std::vector<Fr> input;
      input.reserve(n);
      for (std::size_t i = 0; i < n; ++i) input.push_back(Fr::random(rng));
      const int reps = log_n <= 13 ? 9 : 5;
      const std::vector<Fr> twiddles = oracle::fft_twiddles(domain.omega(), n);
      std::vector<Fr> a = input, b = input;
      const double textbook_s = median_seconds(reps, [&] {
        a = input;
        oracle::fft_textbook(a, twiddles);
      });
      const double kernel_s = median_seconds(reps, [&] {
        b = input;
        domain.fft(b);
      });
      if (a != b) {
        std::fprintf(stderr, "FATAL: blocked FFT disagrees with textbook at n=%zu\n", n);
        return 1;
      }
      fft_rows.push_back({n, textbook_s * 1e3, kernel_s * 1e3});
      std::printf("%8zu %12.3f %12.3f %8.2fx\n", n, textbook_s * 1e3, kernel_s * 1e3,
                  textbook_s / kernel_s);
    }
  }

  // --- Thread scaling: multiexp + FFT at n = 2^14 -----------------------
  // Both kernels distribute via the process-wide pool (parallel_for), so
  // set_num_threads is the only knob. Each width re-checks the result
  // against the 1-thread baseline: scaling must not change answers.
  struct ScalingRow {
    unsigned threads;
    double multiexp_s, fft_s;
  };
  std::vector<ScalingRow> scaling_rows;
  unsigned hardware_threads = std::thread::hardware_concurrency();
  if (hardware_threads == 0) hardware_threads = 1;
  if (hardware_threads > 1) {
    const std::size_t n = std::size_t{1} << 14;
    std::vector<G1> pts;
    pts.reserve(n);
    G1 p = base;
    for (std::size_t i = 0; i < n; ++i, p = p + G1::generator()) pts.push_back(p);
    std::vector<Fr> ks;
    ks.reserve(n);
    for (std::size_t i = 0; i < n; ++i) ks.push_back(Fr::random(rng));
    const snark::EvaluationDomain domain(n);
    std::vector<Fr> fft_input;
    fft_input.reserve(n);
    for (std::size_t i = 0; i < n; ++i) fft_input.push_back(Fr::random(rng));

    std::vector<unsigned> widths{1};
    for (unsigned w = 2; w < hardware_threads; w *= 2) widths.push_back(w);
    widths.push_back(hardware_threads);

    std::printf("\nThread scaling at n=2^14 (seconds; kernels)\n%8s %12s %12s\n",
                "threads", "multiexp", "fft");
    G1 multiexp_baseline = G1::infinity();
    std::vector<Fr> fft_baseline;
    for (const unsigned w : widths) {
      set_num_threads(w);
      G1 acc_me = G1::infinity();
      const double me_s = median_seconds(3, [&] { acc_me = multiexp(pts, ks); });
      std::vector<Fr> fft_out;
      const double fft_s = median_seconds(3, [&] {
        fft_out = fft_input;
        domain.fft(fft_out);
      });
      if (w == 1) {
        multiexp_baseline = acc_me;
        fft_baseline = fft_out;
      } else if (!(acc_me == multiexp_baseline) || fft_out != fft_baseline) {
        std::fprintf(stderr, "FATAL: thread scaling changed kernel results at %u threads\n", w);
        return 1;
      }
      scaling_rows.push_back({w, me_s, fft_s});
      std::printf("%8u %12.4f %12.4f\n", w, me_s, fft_s);
    }
    set_num_threads(1);
  } else {
    std::fprintf(stderr,
                 "WARNING: single hardware thread — thread-scaling section skipped "
                 "(every width would time the same serial execution)\n");
  }

  // --- JSON --------------------------------------------------------------
  FILE* json = std::fopen("BENCH_kernels.json", "w");
  if (!json) {
    std::fprintf(stderr, "FATAL: cannot open BENCH_kernels.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json,
               "  \"field\": {\"mont_mul_ns\": %.2f, \"mont_sqr_ns\": %.2f, "
               "\"sqr_over_mul\": %.3f},\n",
               mont_mul_ns, mont_sqr_ns, mont_sqr_ns / mont_mul_ns);
  std::fprintf(json,
               "  \"g1_scalar_mul\": {\"ladder_us\": %.2f, \"glv_us\": %.2f, "
               "\"glv_speedup\": %.3f},\n",
               ladder_us, glv_us, ladder_us / glv_us);
  std::fprintf(json,
               "  \"ecdsa_verify_us\": %.2f,\n  \"ecdsa_sign_us\": %.2f,\n"
               "  \"ecdsa_oracle_verify_us\": %.2f,\n  \"ecdsa_verify_speedup\": %.3f,\n",
               ecdsa_verify_us, ecdsa_sign_us, ecdsa_oracle_verify_us,
               ecdsa_oracle_verify_us / ecdsa_verify_us);
  std::fprintf(json,
               "  \"pairing_ms\": {\"textbook\": %.3f, \"fast\": %.3f, \"speedup\": %.3f, "
               "\"g2_prepare\": %.3f, \"final_exp\": %.3f, \"product8_prepared\": %.3f},\n",
               pairing_textbook_ms, pairing_ms, pairing_textbook_ms / pairing_ms, g2_prepare_ms,
               final_exp_ms, product8_ms);
  std::fprintf(json, "  \"groth16_verify_ms\": %.3f,\n", groth16_verify_ms);
  std::fprintf(json, "  \"groth16_batch_verify_ms_per_proof\": [\n");
  for (std::size_t i = 0; i < batch_rows.size(); ++i) {
    const BatchRow& r = batch_rows[i];
    std::fprintf(json,
                 "    {\"k\": %zu, \"ms\": %.3f, \"one_by_one_ms\": %.3f, \"gain\": %.3f}%s\n",
                 r.k, r.batch_ms, r.single_ms, r.single_ms / r.batch_ms,
                 i + 1 < batch_rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"g1_multiexp_us_per_point\": [\n");
  for (std::size_t i = 0; i < multiexp_rows.size(); ++i) {
    const MultiexpRow& r = multiexp_rows[i];
    std::fprintf(json,
                 "    {\"n\": %zu, \"textbook\": %.3f, \"kernel\": %.3f, \"speedup\": %.3f}%s\n",
                 r.n, r.textbook_us_per_point, r.kernel_us_per_point,
                 r.textbook_us_per_point / r.kernel_us_per_point,
                 i + 1 < multiexp_rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"fft_ms\": [\n");
  for (std::size_t i = 0; i < fft_rows.size(); ++i) {
    const FftRow& r = fft_rows[i];
    std::fprintf(json,
                 "    {\"n\": %zu, \"textbook\": %.3f, \"kernel\": %.3f, \"speedup\": %.3f}%s\n",
                 r.n, r.textbook_ms, r.kernel_ms, r.textbook_ms / r.kernel_ms,
                 i + 1 < fft_rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"hardware_threads\": %u,\n", hardware_threads);
  if (!scaling_rows.empty()) {
    std::fprintf(json, "  \"thread_scaling_n14\": [\n");
    for (std::size_t i = 0; i < scaling_rows.size(); ++i) {
      const ScalingRow& r = scaling_rows[i];
      std::fprintf(json, "    {\"threads\": %u, \"multiexp_s\": %.6f, \"fft_s\": %.6f}%s\n",
                   r.threads, r.multiexp_s, r.fft_s,
                   i + 1 < scaling_rows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
  } else {
    std::fprintf(json,
                 "  \"thread_scaling_n14\": null,\n"
                 "  \"thread_scaling_warning\": \"single hardware thread: no widths to "
                 "ladder over\"\n}\n");
  }
  std::fclose(json);
  std::printf("\nwrote BENCH_kernels.json\n");
  return 0;
}
