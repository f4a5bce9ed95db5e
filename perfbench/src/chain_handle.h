#pragma once
// The benchmark's handle on the simulated testnet. Every call into
// Node::submit_transaction and SimNetwork::run_for goes through here, so the
// chain's ingest time is the wall time spent inside those two calls, and
// confirmations are observed at the requester-side node (full node 0).

#include <memory>
#include <optional>
#include <unordered_map>

#include "harness.h"
#include "zebralancer/scenario.h"

namespace perfbench {

/// Time spent inside the chain's calls, copied out of a ChainHandle so it
/// outlives the network.
struct ChainStats {
  Stopwatch ingest;  // submit_transaction + run_for
  Stopwatch run;     // run_for
  std::uint64_t submit_calls = 0;
  std::int64_t mempool_size_max = 0;  // largest `mempool.size` gauge reading after a step
};

class ChainHandle {
 public:
  explicit ChainHandle(zl::zebralancer::TestNet& net) : net_(net) {}

  zl::zebralancer::TestNet& net() { return net_; }
  zl::chain::Node& node(unsigned i) { return net_.client_node(i); }
  const zl::chain::ChainState& state() { return node(0).chain().state(); }

  /// Inject at full node `node_index` (timed as ingest).
  void submit(unsigned node_index, const zl::chain::Transaction& tx);
  /// Advance simulated time (timed as ingest), then poll confirmations.
  void run_for(std::uint64_t ms);

  /// Start watching a transaction for inclusion at node 0.
  void watch(const zl::Bytes& tx_hash);
  /// Run until every watched transaction is included at node 0 and buried
  /// a few blocks deep (so a fork switch no longer reorders it), or until
  /// `deadline_ms` of simulated time passes. Returns true if nothing is left
  /// pending.
  bool await_all(std::uint64_t deadline_ms);
  /// Simulated time at which node 0 first showed the transaction included.
  std::optional<std::uint64_t> included_at(const zl::Bytes& tx_hash) const;
  std::size_t pending() const { return pending_.size(); }

  /// Mine at least `blocks` more blocks on node 0 (timed as ingest).
  void advance_blocks(std::uint64_t blocks);

  /// Mine quiet blocks until node 0's height is `tail` past a multiple of
  /// `interval`, with those last `tail` blocks all mined after this call.
  /// A durable node restored from this chain then always replays the same
  /// empty journal tail after its newest snapshot, whatever the seed.
  void align_tail(std::uint64_t interval, std::uint64_t tail);

  /// Receipt at node 0, if included on its canonical chain.
  std::optional<zl::chain::Receipt> receipt(const zl::Bytes& tx_hash);

  /// Zero the ingest timers and counters (called when the load starts).
  void reset_timers();

  const ChainStats& stats() const { return stats_; }

 private:
  void poll();

  zl::zebralancer::TestNet& net_;
  ChainStats stats_;
  zl::Bytes polled_head_;  // node 0's head at the last poll
  std::vector<std::string> pending_;  // tx hash hex, not yet included
  std::unordered_map<std::string, std::uint64_t> included_;
};

/// Bench-owned faucet: a few wallets funded once from the testnet faucet,
/// then used to fund many one-task addresses in a single batch of transfers.
class Funder {
 public:
  Funder(ChainHandle& chain, zl::Rng& rng, unsigned wallets, std::uint64_t each);

  /// Inject (and watch) one transfer per address at `node_index`.
  void fund(const std::vector<zl::chain::Address>& to, std::uint64_t amount,
            unsigned node_index);
  /// Build (sign) one transfer without injecting it.
  zl::chain::Transaction transfer(const zl::chain::Address& to, std::uint64_t amount);

 private:
  ChainHandle& chain_;
  std::vector<std::unique_ptr<zl::chain::Wallet>> wallets_;
  std::size_t next_ = 0;
};

}  // namespace perfbench
