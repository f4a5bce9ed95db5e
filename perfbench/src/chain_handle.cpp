#include "chain_handle.h"

#include <stdexcept>

#include "obs/metrics.h"

namespace perfbench {

using zl::Bytes;
using zl::chain::Address;
using zl::chain::Transaction;

namespace {
// Simulated milliseconds per network step while waiting: the resolution of
// every confirmation time the benchmark reports.
constexpr std::uint64_t kStepMs = 5;
// Blocks on top of a transaction before the benchmark acts on its outcome.
// With two miners, forks one block deep are common, and a fork switch can
// reorder a task's submissions; a reward proved over the losing order is
// refused. Clients therefore wait for this depth, as a careful one would.
constexpr std::uint64_t kConfirmDepth = 3;
}  // namespace

void ChainHandle::submit(unsigned node_index, const Transaction& tx) {
  zl::chain::Node& target = node(node_index);
  Span span("chain.submit_tx");
  stats_.ingest.start();
  target.submit_transaction(tx);
  stats_.ingest.stop();
  ++stats_.submit_calls;
}

void ChainHandle::run_for(std::uint64_t ms) {
  {
    Span span("chain.run_for");
    stats_.ingest.start();
    stats_.run.start();
    net_.network().run_for(ms);
    stats_.run.stop();
    stats_.ingest.stop();
  }
  static zl::obs::Gauge& mempool_size = zl::obs::Registry::instance().gauge("mempool.size");
  stats_.mempool_size_max = std::max(stats_.mempool_size_max, mempool_size.value());
  poll();
}

void ChainHandle::reset_timers() { stats_ = ChainStats{}; }

void ChainHandle::watch(const Bytes& tx_hash) { pending_.push_back(zl::to_hex(tx_hash)); }

void ChainHandle::poll() {
  const zl::chain::Blockchain& chain = node(0).chain();
  if (chain.head_hash() == polled_head_) return;
  polled_head_ = chain.head_hash();
  const std::uint64_t now = net_.network().now();
  std::erase_if(pending_, [&](const std::string& hash_hex) {
    const std::optional<std::uint64_t> block = chain.confirmation_block(zl::from_hex(hash_hex));
    if (!block) return false;
    included_.emplace(hash_hex, now);  // keeps the first sighting
    return chain.height() >= *block + kConfirmDepth;
  });
}

bool ChainHandle::await_all(std::uint64_t deadline_ms) {
  poll();
  const std::uint64_t deadline = net_.network().now() + deadline_ms;
  while (!pending_.empty() && net_.network().now() < deadline) run_for(kStepMs);
  if (!pending_.empty()) {
    log("%zu transactions still unconfirmed at sim time %llu ms (node 0 height %llu)",
        pending_.size(), static_cast<unsigned long long>(net_.network().now()),
        static_cast<unsigned long long>(node(0).chain().height()));
  }
  return pending_.empty();
}

std::optional<std::uint64_t> ChainHandle::included_at(const Bytes& tx_hash) const {
  const auto it = included_.find(zl::to_hex(tx_hash));
  if (it == included_.end()) return std::nullopt;
  return it->second;
}

void ChainHandle::advance_blocks(std::uint64_t blocks) {
  const std::uint64_t target = node(0).chain().height() + blocks;
  const std::uint64_t deadline = net_.network().now() + 600'000;
  while (node(0).chain().height() < target) {
    if (net_.network().now() >= deadline) {
      throw std::runtime_error("network stalled before reaching the target height");
    }
    run_for(kStepMs);
  }
}

void ChainHandle::align_tail(std::uint64_t interval, std::uint64_t tail) {
  const std::uint64_t start = node(0).chain().height();
  std::uint64_t target = start + tail;
  target += (interval + tail - target % interval) % interval;
  advance_blocks(target - start);
  // A fork switch may have overshot the target: keep going to the next one.
  while (node(0).chain().height() % interval != tail) advance_blocks(1);
}

std::optional<zl::chain::Receipt> ChainHandle::receipt(const Bytes& tx_hash) {
  return node(0).chain().find_receipt(tx_hash);
}

Funder::Funder(ChainHandle& chain, zl::Rng& rng, unsigned wallets, std::uint64_t each)
    : chain_(chain) {
  for (unsigned i = 0; i < wallets; ++i) {
    wallets_.push_back(std::make_unique<zl::chain::Wallet>(rng));
    chain_.net().fund(wallets_.back()->address(), each);
  }
}

Transaction Funder::transfer(const Address& to, std::uint64_t amount) {
  zl::chain::Wallet& w = *wallets_[next_++ % wallets_.size()];
  return w.make_transaction(to, amount, 21'000, "", {});
}

void Funder::fund(const std::vector<Address>& to, std::uint64_t amount, unsigned node_index) {
  for (const Address& a : to) {
    const Transaction tx = transfer(a, amount);
    chain_.watch(tx.hash());
    chain_.submit(node_index, tx);
  }
}

}  // namespace perfbench
