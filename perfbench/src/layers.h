#pragma once
// Per-layer metrics of a traced run. They come from three sources: the
// benchmark's own spans around calls into each layer's public functions,
// windows over the program's existing obs counters and spans (read only),
// and public getters of the chain and the testnet. Both workloads report the
// same set; a layer a workload never enters reports 0.

#include <map>

#include "chain_handle.h"
#include "harness.h"
#include "sync_phase.h"

namespace perfbench {

/// Wall, CPU and inner prover.prove time of client-side proving calls,
/// gathered only in a traced run.
struct ProveAccount {
  double wall = 0;
  double cpu = 0;
  double inside_prove_s = 0;
  std::uint64_t calls = 0;
  std::uint64_t windows = 0;  // obs snapshots taken (tracing cost)

  template <typename F>
  auto measure(F&& call) {
    if (!Trace::enabled()) return call();
    ObsWindow window;
    window.begin();
    const double c0 = cpu_s();
    const double t0 = now_s();
    auto result = call();
    wall += now_s() - t0;
    cpu += cpu_s() - c0;
    window.end();
    inside_prove_s += window.span_total_s("prover.prove");
    ++calls;
    windows += 2;
    return result;
  }
};

struct LayerInputs {
  ObsWindow load_obs;  // the whole load phase
  std::uint64_t load_blocks = 0;
  std::uint64_t load_txs = 0;
  std::uint64_t load_messages = 0;
  std::uint64_t final_height = 0;  // node 0
  std::uint64_t blocks_mined = 0;  // by every miner, whole run
  ProveAccount auth_prove;
  ProveAccount reward_prove;
  std::map<unsigned, Samples> prove_rewards_ms;  // by n
  Samples snark_setup_s;                         // keygen per set-up
  Samples confirm_sim_ms;                       // injection to inclusion at node 0
  std::uint64_t proofs_on_chain = 0;             // distinct SNARK proofs in blocks
};

/// Cost of one bench span and of one obs snapshot on this host, measured
/// before the workload starts; used to estimate the tracing overhead.
struct TraceCost {
  double span_s = 0;
  double snapshot_s = 0;
};
TraceCost calibrate_trace_cost();

void add_layer_metrics(Result& result, const LayerInputs& in, const ChainStats& chain,
                       const SyncOutcome& sync, const TraceCost& cost);

/// Transactions on node's canonical chain, genesis excluded.
std::uint64_t canonical_tx_count(const zl::chain::Node& node);

}  // namespace perfbench
