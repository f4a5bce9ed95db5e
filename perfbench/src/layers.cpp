#include "layers.h"

#include <string>

namespace perfbench {

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

TraceCost calibrate_trace_cost() {
  TraceCost cost;
  const bool was = Trace::enabled();
  Trace::enable(true);
  constexpr int kSpans = 20000;
  double t0 = now_s();
  for (int i = 0; i < kSpans; ++i) Span span("calibrate");
  cost.span_s = (now_s() - t0) / kSpans;
  Trace::clear();
  Trace::enable(was);

  constexpr int kSnapshots = 50;
  t0 = now_s();
  for (int i = 0; i < kSnapshots; ++i) {
    ObsWindow w;
    w.begin();
    w.end();
  }
  cost.snapshot_s = (now_s() - t0) / (2 * kSnapshots);
  return cost;
}

std::uint64_t canonical_tx_count(const zl::chain::Node& node) {
  std::uint64_t n = 0;
  for (const zl::Bytes& h : node.chain().canonical_chain()) {
    n += node.chain().block_by_hash(h)->transactions.size();
  }
  return n;
}

void add_layer_metrics(Result& result, const LayerInputs& in, const ChainStats& chain,
                       const SyncOutcome& sync, const TraceCost& cost) {
  const std::map<std::string, Trace::Stat> spans = Trace::stats();
  const auto span_mean = [&](const char* name, double scale) -> std::pair<double, std::uint64_t> {
    const auto it = spans.find(name);
    if (it == spans.end() || it->second.count == 0) return {0.0, 0};
    return {it->second.total_s / static_cast<double>(it->second.count) * scale, it->second.count};
  };
  const auto layer_span = [&](const std::string& metric, const char* span, double scale,
                              const std::string& unit) {
    const auto [v, n] = span_mean(span, scale);
    result.layer(metric, v, unit, n);
  };

  // --- bench-side spans around public calls ---------------------------------
  layer_span("auth.authenticate_ms", "auth.authenticate", 1e3, "ms");
  layer_span("auth.classic_authenticate_ms", "auth.classic_authenticate", 1e3, "ms");
  layer_span("zebralancer.encrypt_answer_ms", "zebralancer.encrypt_answer", 1e3, "ms");
  layer_span("crypto.ecdsa_sign_ms", "crypto.ecdsa_sign", 1e3, "ms");
  layer_span("chain.submit_tx_us", "chain.submit_tx", 1e6, "us");
  layer_span("chain.sync_block_ms", "chain.sync_block", 1e3, "ms");
  layer_span("store.reopen_ms", "store.reopen", 1e3, "ms");
  for (const unsigned n : {3u, 5u, 7u, 9u, 11u}) {
    const auto it = in.prove_rewards_ms.find(n);
    const bool have = it != in.prove_rewards_ms.end();
    result.layer("zebralancer.prove_rewards_ms.n" + std::to_string(n),
                 have ? it->second.median() : 0.0, "ms", have ? it->second.count() : 0);
  }
  result.layer("snark.setup_s", in.snark_setup_s.median(), "s", in.snark_setup_s.count());
  result.layer("chain.run_for_ms_per_block",
               ratio(chain.run.wall() * 1e3, static_cast<double>(in.load_blocks)), "ms",
               in.load_blocks);

  // --- ratios from the program's obs counters and spans (load phase) ---------
  const ObsWindow& load = in.load_obs;
  const double prove_s = load.span_total_s("prover.prove");
  const std::uint64_t proves = load.span_count("prover.prove");
  result.layer("snark.prove_calls", static_cast<double>(proves), "count", proves);
  result.layer("snark.prove_ms", ratio(prove_s * 1e3, static_cast<double>(proves)), "ms", proves);
  result.layer("ec.multiexp_share", ratio(load.span_total_s("prover.multiexp"), prove_s), "ratio",
               proves);
  result.layer("snark.fft_share", ratio(load.span_total_s("prover.fft"), prove_s), "ratio", proves);
  result.layer("snark.compute_h_share", ratio(load.span_total_s("prover.compute_h"), prove_s),
               "ratio", proves);
  const auto outside = [](const ProveAccount& a) {
    return ratio(a.wall - a.inside_prove_s, a.wall);
  };
  result.layer("auth.outside_prove_share", outside(in.auth_prove), "ratio", in.auth_prove.calls);
  result.layer("zebralancer.reward_outside_prove_share", outside(in.reward_prove), "ratio",
               in.reward_prove.calls);
  const double client_wall = in.auth_prove.wall + in.reward_prove.wall;
  result.layer("snark.prove_cpu_per_wall",
               ratio(in.auth_prove.cpu + in.reward_prove.cpu, client_wall), "ratio",
               in.auth_prove.calls + in.reward_prove.calls);

  const std::uint64_t sig_hit = load.counter("validation.sig_cache.hit");
  const std::uint64_t sig_miss = load.counter("validation.sig_cache.miss");
  result.layer("chain.sig_cache_hit_rate",
               ratio(static_cast<double>(sig_hit), static_cast<double>(sig_hit + sig_miss)),
               "ratio", sig_hit + sig_miss);
  result.layer("crypto.ecdsa_verify_us", load.histogram_quantile("validation.sig_verify_us", 0.5),
               "us", load.histogram_count("validation.sig_verify_us"));
  std::uint64_t admit_all = 0;
  for (const auto& [name, v] : load.counters_with_prefix("mempool.admit.")) admit_all += v;
  const std::uint64_t admitted = load.counter("mempool.admit.admitted");
  result.layer("chain.mempool_admit_ratio",
               ratio(static_cast<double>(admitted), static_cast<double>(admit_all)), "ratio",
               admit_all);
  const std::uint64_t builds = load.span_count("mempool.build_block");
  result.layer("chain.mempool_build_block_ms",
               ratio(load.span_total_s("mempool.build_block") * 1e3, static_cast<double>(builds)),
               "ms", builds);
  result.layer("chain.mempool_size_max", static_cast<double>(chain.mempool_size_max), "count",
               1);

  // --- sync phase: one node, cold caches ---------------------------------------
  const ObsWindow& sy = sync.sync_obs;
  const std::uint64_t verifies = sy.span_count("prover.verify");
  const std::uint64_t load_verifies = load.span_count("prover.verify");
  result.layer("snark.verify_calls", static_cast<double>(load_verifies + verifies), "count",
               load_verifies + verifies);
  result.layer("snark.verify_ms",
               ratio(sy.span_total_s("prover.verify") * 1e3, static_cast<double>(verifies)), "ms",
               verifies);
  result.layer("snark.verify_calls_per_proof",
               ratio(static_cast<double>(verifies),
                     static_cast<double>(in.proofs_on_chain) * sync.replays),
               "ratio", in.proofs_on_chain);
  const std::uint64_t snark_hit = sy.counter("validation.snark_cache.hit");
  const std::uint64_t snark_miss = sy.counter("validation.snark_cache.miss");
  result.layer("chain.snark_cache_hit_rate",
               ratio(static_cast<double>(snark_hit), static_cast<double>(snark_hit + snark_miss)),
               "ratio", snark_hit + snark_miss);
  result.layer("chain.prevalidate_share",
               ratio(sy.span_total_s("validation.prevalidate"), sync.sync_wall_s), "ratio",
               sy.span_count("validation.prevalidate"));
  const double blocks_fed = static_cast<double>(sync.block_ms.count());
  result.layer("store.wal_append_bytes_per_block",
               ratio(static_cast<double>(sy.counter("store.wal.append.bytes")), blocks_fed),
               "bytes", sy.counter("store.wal.append.count"));
  result.layer("store.wal_fsync_ms_per_block",
               ratio(static_cast<double>(sy.histogram_sum("store.wal.fsync_us")) * 1e-3, blocks_fed),
               "ms", sy.histogram_count("store.wal.fsync_us"));
  result.layer("store.wal_fsync_per_block",
               ratio(static_cast<double>(sy.counter("store.wal.fsync.count")), blocks_fed),
               "ratio", sy.counter("store.wal.fsync.count"));
  const std::uint64_t saves = sy.span_count("store.snapshot.save");
  result.layer("store.snapshot_save_ms",
               ratio(sy.span_total_s("store.snapshot.save") * 1e3, static_cast<double>(saves)),
               "ms", saves);
  const ObsWindow& ro = sync.reopen_obs;
  const std::uint64_t loads = ro.span_count("store.snapshot.load");
  result.layer("store.snapshot_load_ms",
               ratio(ro.span_total_s("store.snapshot.load") * 1e3, static_cast<double>(loads)),
               "ms", loads);

  // --- counts through public getters --------------------------------------------
  result.layer("chain.txs_per_block",
               ratio(static_cast<double>(in.load_txs), static_cast<double>(in.load_blocks)), "ratio",
               in.load_blocks);
  result.layer("chain.canonical_block_ratio",
               ratio(static_cast<double>(in.final_height), static_cast<double>(in.blocks_mined)),
               "ratio", in.blocks_mined);
  result.layer("chain.messages_per_tx",
               ratio(static_cast<double>(in.load_messages), static_cast<double>(in.load_txs)),
               "ratio", in.load_txs);
  result.layer("chain.ingest_cpu_per_wall", ratio(chain.ingest.cpu(), chain.ingest.wall()),
               "ratio", chain.submit_calls);

  result.layer("chain.confirm_sim_ms_p50", in.confirm_sim_ms.median(), "sim-ms",
               in.confirm_sim_ms.count());
  result.layer("chain.confirm_sim_ms_p90", in.confirm_sim_ms.quantile(0.9), "sim-ms",
               in.confirm_sim_ms.count());

  // --- coverage and tracing cost ------------------------------------------------
  double root_s = 0, unattributed_s = 0;
  for (const Trace::Event& e : Trace::events()) {
    if (e.parent < 0) root_s += e.end - e.start;
  }
  for (const auto& [name, st] : spans) {
    if (name.rfind("phase.", 0) == 0) unattributed_s += st.self_s;
  }
  result.layer("bench.unattributed_share", ratio(unattributed_s, root_s), "ratio",
               Trace::events().size());
  const double windows =
      static_cast<double>(in.auth_prove.windows + in.reward_prove.windows);
  const double overhead_s = static_cast<double>(Trace::events().size()) * cost.span_s +
                            windows * cost.snapshot_s;
  result.layer("bench.trace_overhead_share", ratio(overhead_s, root_s), "ratio",
               Trace::events().size());
}

}  // namespace perfbench
