#pragma once
// The sync phase: a fresh durable node (chain::Node on store::RealVfs) is fed
// the finished canonical chain as block wire bytes, on a network of its own
// (no gossip, no peers). Each replay starts from cold validation caches, so
// it measures one node's validation, apply and persistence alone. After each
// replay the node is reopened from its store. Both the synced and the
// reopened node must reproduce the source node's head hash and state
// snapshot bytes exactly.
//
// A workload runs other work between replays to spread them through the run:
// on a shared host, samples taken seconds apart see different core speeds,
// and their mean is steadier than that of samples taken back to back.

#include <functional>
#include <optional>
#include <string>

#include "chain/network.h"
#include "harness.h"

namespace perfbench {

/// Everything a replay needs from the source node, copied so the source
/// network can be released before the replays run.
struct SyncSource {
  zl::chain::GenesisConfig genesis;
  std::vector<zl::Bytes> wire;  // canonical blocks, genesis excluded
  zl::Bytes head;
  std::optional<zl::Bytes> snapshot;
  std::uint64_t txs = 0;
};

SyncSource capture_sync_source(const zl::chain::Node& source);

struct SyncOutcome {
  Samples sync_s;             // wall, per replay
  Samples sync_cpu_s;         // process CPU in ref-s (see ref_ms), per replay
  Samples sync_cpu_raw_s;     // process CPU, per replay
  Samples reopen_ms;          // wall, per reopen
  Samples reopen_cpu_ms;      // reopening thread's CPU in ref-ms, per reopen
  Samples reopen_cpu_raw_ms;  // reopening thread's CPU, per reopen
  Samples block_ms;           // wall, per block fed, all replays
  unsigned replays = 0;
  ObsWindow sync_obs;    // over every replay
  ObsWindow reopen_obs;  // over every reopen
  double sync_wall_s = 0;
};

/// Replays `source` `replays` times into `<workdir>/sync-<i>`, reopening
/// after each replay. `between` runs after every replay but the last.
/// `tamper_first` (self-test only) corrupts one block of the first replay.
SyncOutcome run_sync_phase(const SyncSource& source, unsigned replays,
                           const std::string& workdir, bool tamper_first,
                           const std::function<void()>& between, Gate& gate, Ops& ops);

}  // namespace perfbench
