#include "sync_phase.h"

#include <filesystem>
#include <memory>

#include "chain/validation.h"
#include "common/thread_pool.h"
#include "store/store.h"

namespace perfbench {

using zl::Bytes;
using zl::chain::MessageKind;
using zl::chain::Node;
using zl::chain::SimNetwork;

namespace {

constexpr unsigned kReopensPerReplay = 5;

bool matches(const Node& node, const SyncSource& source) {
  return node.chain().head_hash() == source.head &&
         node.chain().state().snapshot_bytes() == source.snapshot;
}

}  // namespace

SyncSource capture_sync_source(const Node& node) {
  const zl::chain::Blockchain& chain = node.chain();
  SyncSource source{chain.genesis_config(), {}, chain.head_hash(),
                    chain.state().snapshot_bytes(), 0};
  const std::vector<Bytes> hashes = chain.canonical_chain();
  for (std::size_t i = 1; i < hashes.size(); ++i) {
    const zl::chain::Block* block = chain.block_by_hash(hashes[i]);
    source.txs += block->transactions.size();
    source.wire.push_back(zl::chain::block_to_bytes(*block));
  }
  return source;
}

namespace {

void sync_replay(const SyncSource& source, unsigned index, const std::string& workdir,
                 bool tamper, Gate& gate, Ops& ops, SyncOutcome& out) {
  gate.check(source.snapshot.has_value(), "source node state is snapshottable");
  zl::store::RealVfs vfs;
  const std::string dir = workdir + "/sync-" + std::to_string(index);
  std::filesystem::remove_all(dir);
  const zl::store::OpenOptions storage{.vfs = &vfs, .path = dir};
  std::vector<Bytes> feed = source.wire;
  if (tamper && !feed.empty()) {
    // Self-test: flip the last byte of the middle block (inside its last
    // transaction), so the block no longer matches its header.
    feed[feed.size() / 2].back() ^= 0x01;
  }

  const unsigned threads = zl::num_threads();

  // Replay: cold caches, a fresh store, every block fed in order.
  zl::chain::clear_validation_caches();
  bool synced = false;
  {
    Span phase("phase.sync.replay");
    out.sync_obs.begin();
    // Validation runs on the whole pool: the store's creation and each
    // block are timed and scaled one by one, each by one reference reading
    // before and one after it (a replay sums over a hundred blocks or more,
    // which evens out single readings). Neither wall nor CPU time includes
    // the reference work itself.
    double wall = 0, cpu = 0, cpu_ref_ms = 0;
    const auto timed = [&](const std::function<void()>& step) {
      const ScaledTiming t = time_scaled(threads, step, 1);
      wall += t.wall_s;
      cpu += t.cpu_s;
      cpu_ref_ms += t.ref_ms;
      return t.wall_s;
    };
    SimNetwork solo({});
    std::unique_ptr<Node> node;
    timed([&] {
      Span span("store.open");
      node = std::make_unique<Node>(solo, source.genesis, storage);
    });
    for (const Bytes& bytes : feed) {
      const double dw = timed([&] {
        Span span("chain.sync_block");
        try {
          node->on_message(MessageKind::kBlock, bytes);
        } catch (const std::exception& e) {
          log("sync replay %u: block rejected: %s", index, e.what());
        }
      });
      out.block_ms.add(dw * 1e3);
    }
    out.sync_cpu_raw_s.add(cpu);
    out.sync_cpu_s.add(cpu_ref_ms * 1e-3);
    out.sync_obs.end();
    out.sync_s.add(wall);
    out.sync_wall_s += wall;
    synced = matches(*node, source);
  }
  gate.check(synced, "sync replay " + std::to_string(index) +
                         " reproduces the source head hash and state snapshot");

  // Reopen from the store alone, with cold caches again (a restart).
  // Reopens are short, so each replay's store is reopened several times.
  bool reopened = true;
  for (unsigned k = 0; k < kReopensPerReplay; ++k) {
    zl::chain::clear_validation_caches();
    Span phase("phase.sync.reopen");
    // Reopening is single-threaded.
    out.reopen_obs.begin();
    SimNetwork solo({});
    std::unique_ptr<Node> node;
    const ScaledTiming t = time_scaled(1, [&] {
      Span span("store.reopen");
      node = std::make_unique<Node>(solo, source.genesis, storage);
    });
    out.reopen_cpu_raw_ms.add(t.cpu_s * 1e3);
    out.reopen_cpu_ms.add(t.ref_ms);
    out.reopen_obs.end();
    reopened &= matches(*node, source);
    out.reopen_ms.add(t.wall_s * 1e3);
  }
  gate.check(reopened, "reopened node " + std::to_string(index) +
                           " reproduces the source head hash and state snapshot");
  ops.record(synced && reopened);
  ++out.replays;
  std::filesystem::remove_all(dir);
}

}  // namespace

SyncOutcome run_sync_phase(const SyncSource& source, unsigned replays,
                           const std::string& workdir, bool tamper_first,
                           const std::function<void()>& between, Gate& gate, Ops& ops) {
  SyncOutcome out;
  for (unsigned r = 0; r < replays; ++r) {
    sync_replay(source, r, workdir, tamper_first && r == 0, gate, ops, out);
    if (r + 1 < replays) between();
  }
  return out;
}

}  // namespace perfbench
