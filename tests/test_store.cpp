// Storage engine tests: the fault-injecting VFS itself, WAL append/recovery
// invariants, snapshot atomicity and CRC fallback, the disk-backed off-chain
// store, durable Blockchain reopen — and the crash-recovery torture test,
// which enumerates EVERY schedulable power-cut point in a 50-block workload
// and proves the node recovers to the never-crashed reference from each one.
#include <gtest/gtest.h>

#include "chain/datastore.h"
#include "chain/network.h"
#include "store/fault_vfs.h"

namespace zl::chain {
namespace {

using store::FaultVfs;
using store::IoError;
using store::NoSpace;
using store::PowerCut;

// A snapshot-capable test contract (the durable analogue of test_chain's
// counter): one u64 of state, bumped by transactions across the workload.
class TallyContract : public Contract {
 public:
  void on_deploy(CallContext& ctx, const Bytes& args) override {
    ctx.charge(GasSchedule::kStorageWrite);
    if (!args.empty()) total_ = args[0];
  }
  void invoke(CallContext& ctx, const std::string& method, const Bytes&) override {
    if (method == "bump") {
      ctx.charge(GasSchedule::kStorageWrite);
      ++total_;
    } else {
      throw ContractRevert("unknown method");
    }
  }
  std::uint64_t total() const { return total_; }

  std::optional<Bytes> snapshot_state() const override {
    Bytes out;
    append_u64_be(out, total_);
    return out;
  }
  void restore_state(const Bytes& state) override { total_ = ByteReader(state).u64(); }

 private:
  std::uint64_t total_ = 0;
};

struct RegisterTally {
  RegisterTally() {
    ContractFactory::instance().register_type("tally",
                                              [] { return std::make_unique<TallyContract>(); });
  }
} register_tally;

// A pre-mined linear workload: deploy a tally contract at height 1, bump it
// every 5th block, move coins every 7th, leave the rest empty. The same
// block vector feeds the reference chain and every crash-recovery run.
struct Workload {
  GenesisConfig genesis;
  std::vector<Block> blocks;
  Address tally;
};

Workload build_workload(std::uint64_t n_blocks) {
  Rng rng(777);
  Wallet alice(rng), bob(rng);
  Workload w;
  w.genesis.allocations = {{alice.address(), 50'000'000}, {bob.address(), 50'000'000}};
  w.genesis.difficulty = 256;
  w.tally = Address::for_contract(alice.address(), 0);
  Bytes parent = w.genesis.build().hash();
  for (std::uint64_t n = 1; n <= n_blocks; ++n) {
    Block b;
    b.header.parent_hash = parent;
    b.header.number = n;
    b.header.difficulty = w.genesis.difficulty;
    b.header.timestamp = 500 + n;
    if (n == 1) {
      b.transactions.push_back(alice.make_transaction(Address(), 0, 200000, "tally", Bytes{3}));
    } else if (n % 5 == 0) {
      b.transactions.push_back(alice.make_transaction(w.tally, 0, 100000, "bump", {}));
    } else if (n % 7 == 0) {
      b.transactions.push_back(bob.make_transaction(alice.address(), 11, 21000, "", {}));
    }
    b.header.tx_root = Block::compute_tx_root(b.transactions);
    while (!proof_of_work_valid(b.header)) ++b.header.nonce;
    parent = b.hash();
    w.blocks.push_back(std::move(b));
  }
  return w;
}

// --- FaultVfs: the disk model itself ---------------------------------------

TEST(FaultVfs, SyncedBytesSurviveACut) {
  FaultVfs vfs(1);
  vfs.make_dirs("d");
  const Bytes data = to_bytes("durable-payload");
  {
    const auto f = vfs.open("d/a", true);
    f->write(0, data.data(), data.size());
    f->sync();
  }
  vfs.sync_dir("d");

  vfs.plan_crash(1);  // the very next mutating op takes the cut
  const auto f = vfs.open("d/a", true);
  const Bytes tail = to_bytes("-unsynced-tail");
  EXPECT_THROW(f->write(data.size(), tail.data(), tail.size()), PowerCut);
  EXPECT_TRUE(vfs.crashed());
  EXPECT_THROW(vfs.open("d/a", false), IoError) << "disk is off until recover()";

  vfs.recover();
  const Bytes back = store::read_file(vfs, "d/a");
  ASSERT_GE(back.size(), data.size()) << "fsync-acknowledged bytes are never lost";
  EXPECT_EQ(Bytes(back.begin(), back.begin() + static_cast<std::ptrdiff_t>(data.size())), data);
  EXPECT_LE(back.size(), data.size() + tail.size()) << "at most a prefix of the torn tail";
}

TEST(FaultVfs, UnsyncedFileVanishesWithoutDirSync) {
  FaultVfs vfs(2);
  vfs.make_dirs("d");
  const Bytes data = to_bytes("never-synced");
  const auto ghost = vfs.open("d/ghost", true);
  ghost->write(0, data.data(), data.size());
  // No sync, no sync_dir: neither the bytes nor the directory entry are
  // durable, so the file must not exist after power-on.
  vfs.plan_crash(1);
  const auto other = vfs.open("d/other", true);
  EXPECT_THROW(other->write(0, data.data(), data.size()), PowerCut);
  vfs.recover();
  EXPECT_FALSE(vfs.exists("d/ghost"));
}

TEST(FaultVfs, ShortReadsAreLoopedOverByReadHelpers) {
  FaultVfs vfs(3);
  vfs.make_dirs("d");
  Bytes data(100);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i);
  store::atomic_write_file(vfs, "d/f", data);

  vfs.set_short_reads(true);
  const auto f = vfs.open("d/f", false);
  Bytes out(100);
  EXPECT_LE(f->read(0, out.data(), out.size()), 7u) << "raw reads come back short";
  EXPECT_EQ(store::read_file(vfs, "d/f"), data) << "read_exact/read_file must loop";
}

TEST(FaultVfs, CapacityExhaustionIsANoOpWrite) {
  FaultVfs vfs(4);
  vfs.make_dirs("d");
  vfs.set_capacity(64);
  const auto f = vfs.open("d/f", true);
  const Bytes big(100, 0xab);
  EXPECT_THROW(f->write(0, big.data(), big.size()), NoSpace);
  EXPECT_EQ(f->size(), 0u) << "a failed write never happened";
  vfs.set_capacity(0);
  f->write(0, big.data(), big.size());
  EXPECT_EQ(f->size(), big.size());
}

TEST(FaultVfs, AtomicWriteFileIsAllOrNothing) {
  // Crash at every op inside a republish: readers must see the old file or
  // the new file, never a mix (the snapshot store rides on this).
  const Bytes old_content = to_bytes("AAAA-old");
  const Bytes new_content = to_bytes("BBBB-new!");
  for (std::uint64_t at = 1; at <= 4; ++at) {
    FaultVfs vfs(6);
    vfs.make_dirs("d");
    store::atomic_write_file(vfs, "d/f", old_content);
    vfs.plan_crash(at);
    bool cut = false;
    try {
      store::atomic_write_file(vfs, "d/f", new_content);
    } catch (const PowerCut&) {
      cut = true;
    }
    ASSERT_TRUE(cut) << "publish has at least 4 mutating ops (at=" << at << ")";
    vfs.recover();
    const Bytes back = store::read_file(vfs, "d/f");
    EXPECT_TRUE(back == old_content || back == new_content)
        << "torn publish observed at op " << at;
  }
}

// --- WAL --------------------------------------------------------------------

TEST(Wal, AppendSyncReopenReplaysInOrder) {
  FaultVfs vfs(10);
  const store::Wal::Options opt;
  {
    store::Wal wal(vfs, "wal", opt, [](std::uint8_t, const Bytes&, std::uint64_t) {});
    wal.append(1, to_bytes("first-record"));
    wal.append(2, to_bytes("second-record!"));
    wal.sync();
  }
  std::vector<std::pair<std::uint8_t, Bytes>> seen;
  store::Wal wal(vfs, "wal", opt, [&seen](std::uint8_t type, const Bytes& payload, std::uint64_t) {
    seen.emplace_back(type, payload);
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, 1);
  EXPECT_EQ(seen[0].second, to_bytes("first-record"));
  EXPECT_EQ(seen[1].first, 2);
  EXPECT_EQ(seen[1].second, to_bytes("second-record!"));
  EXPECT_EQ(wal.records_replayed(), 2u);
  EXPECT_EQ(wal.records_truncated(), 0u);
}

TEST(Wal, CorruptTailTruncatesWithoutLosingThePrefix) {
  FaultVfs vfs(11);
  const store::Wal::Options opt;
  {
    store::Wal wal(vfs, "wal", opt, [](std::uint8_t, const Bytes&, std::uint64_t) {});
    wal.append(1, to_bytes("first-record"));    // record at [8, 29)
    wal.append(2, to_bytes("second-record!"));  // record at [29, 52), payload from 38
    wal.sync();
  }
  vfs.corrupt("wal/wal-00000001.seg", 40, 0x01);  // bit-rot inside record 2

  std::vector<Bytes> seen;
  {
    store::Wal wal(vfs, "wal", opt,
                   [&seen](std::uint8_t, const Bytes& payload, std::uint64_t) {
                     seen.push_back(payload);
                   });
    ASSERT_EQ(seen.size(), 1u) << "log ends at the first corrupt record";
    EXPECT_EQ(seen[0], to_bytes("first-record"));
    EXPECT_EQ(wal.records_truncated(), 1u);
    wal.append(3, to_bytes("third"));  // appends resume at the truncation point
    wal.sync();
  }
  seen.clear();
  store::Wal wal(vfs, "wal", opt,
                 [&seen](std::uint8_t, const Bytes& payload, std::uint64_t) {
                   seen.push_back(payload);
                 });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], to_bytes("first-record"));
  EXPECT_EQ(seen[1], to_bytes("third"));
}

TEST(Wal, RotatesSegmentsAndReplaysAcrossThem) {
  FaultVfs vfs(12);
  store::Wal::Options opt;
  opt.max_segment_bytes = 64;  // ~2 records per segment
  opt.sync_on_append = true;
  {
    store::Wal wal(vfs, "wal", opt, [](std::uint8_t, const Bytes&, std::uint64_t) {});
    for (int i = 0; i < 10; ++i) {
      Bytes payload = to_bytes("record-payload");
      payload.push_back(static_cast<std::uint8_t>(i));
      wal.append(7, payload);
    }
    EXPECT_GT(wal.segment_index(), 1u);
  }
  std::vector<Bytes> seen;
  std::vector<std::uint64_t> segments;
  store::Wal wal(vfs, "wal", opt,
                 [&](std::uint8_t, const Bytes& payload, std::uint64_t segment) {
                   seen.push_back(payload);
                   segments.push_back(segment);
                 });
  ASSERT_EQ(seen.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(seen[i].back(), static_cast<std::uint8_t>(i));
  EXPECT_TRUE(std::is_sorted(segments.begin(), segments.end()));
  EXPECT_GT(segments.back(), segments.front());
}

TEST(Wal, GarbageHeaderSegmentIsWipedAndSafelyReused) {
  FaultVfs vfs(13);
  const store::Wal::Options opt;
  {
    store::Wal wal(vfs, "wal", opt, [](std::uint8_t, const Bytes&, std::uint64_t) {});
    wal.append(1, to_bytes("keep-me"));
    wal.sync();
  }
  // Fake the artifact a crash can leave behind: a follow-on segment whose
  // header never made it to disk intact.
  {
    const auto f = vfs.open("wal/wal-00000002.seg", true);
    const Bytes junk = to_bytes("ZLW");
    f->write(0, junk.data(), junk.size());
    f->sync();
  }
  vfs.sync_dir("wal");

  std::vector<Bytes> seen;
  {
    store::Wal wal(vfs, "wal", opt,
                   [&seen](std::uint8_t, const Bytes& payload, std::uint64_t) {
                     seen.push_back(payload);
                   });
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_GE(wal.records_truncated(), 1u);
    EXPECT_EQ(wal.segment_index(), 2u) << "appends continue in the wiped segment";
    wal.append(2, to_bytes("after-recovery"));
    wal.sync();
  }
  // The record acknowledged on top of the wiped segment must survive the
  // NEXT recovery — i.e. the garbage header was actually scrubbed, not
  // merely skipped.
  seen.clear();
  store::Wal wal(vfs, "wal", opt,
                 [&seen](std::uint8_t, const Bytes& payload, std::uint64_t) {
                   seen.push_back(payload);
                 });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1], to_bytes("after-recovery"));
}

// --- snapshots --------------------------------------------------------------

TEST(SnapshotStore, SaveLoadNewestAndRetention) {
  FaultVfs vfs(20);
  store::SnapshotStore snaps(vfs, "snaps");
  EXPECT_FALSE(snaps.load_newest().has_value());
  snaps.save({16, Bytes(32, 0xaa), to_bytes("state-at-16")});
  snaps.save({32, Bytes(32, 0xbb), to_bytes("state-at-32")});
  snaps.save({48, Bytes(32, 0xcc), to_bytes("state-at-48")});
  EXPECT_EQ(snaps.heights(), (std::vector<std::uint64_t>{32, 48})) << "keep=2 retention";
  const auto newest = snaps.load_newest();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->height, 48u);
  EXPECT_EQ(newest->head_hash, Bytes(32, 0xcc));
  EXPECT_EQ(newest->payload, to_bytes("state-at-48"));
}

TEST(SnapshotStore, CorruptNewestFallsBackToOlder) {
  FaultVfs vfs(21);
  store::SnapshotStore snaps(vfs, "snaps");
  snaps.save({16, Bytes(32, 0xaa), to_bytes("good-old-state")});
  snaps.save({32, Bytes(32, 0xbb), to_bytes("shiny-new-state")});
  vfs.corrupt("snaps/snap-00000000000000000032.zls", 30, 0xff);
  const auto fallback = snaps.load_newest();
  ASSERT_TRUE(fallback.has_value()) << "CRC failure degrades to the previous snapshot";
  EXPECT_EQ(fallback->height, 16u);
  EXPECT_EQ(fallback->payload, to_bytes("good-old-state"));
  vfs.corrupt("snaps/snap-00000000000000000016.zls", 30, 0xff);
  EXPECT_FALSE(snaps.load_newest().has_value());
}

// --- off-chain store --------------------------------------------------------

TEST(OffChainStore, DiskBackedPutGetReopenAndCorruption) {
  FaultVfs vfs(30);
  const Bytes blob1 = to_bytes("task-dataset-blob-1");
  const Bytes blob2 = to_bytes("task-dataset-blob-2");
  Bytes d1, d2;
  {
    OffChainStore disk(vfs, "blobs");
    EXPECT_TRUE(disk.durable());
    d1 = disk.put(blob1);
    d2 = disk.put(blob2);
    EXPECT_EQ(disk.put(blob1), d1) << "idempotent re-put";
    EXPECT_EQ(disk.size(), 2u);
    EXPECT_EQ(disk.get(d1), blob1);
  }
  OffChainStore reopened(vfs, "blobs");
  EXPECT_EQ(reopened.size(), 2u) << "existing blobs indexed on open";
  EXPECT_TRUE(reopened.contains(d1));
  EXPECT_EQ(reopened.get(d2), blob2);

  // Bit-rot one replica: the read degrades to not-found, never forged bytes.
  vfs.corrupt("blobs/" + to_hex(d1), 2, 0x80);
  EXPECT_FALSE(reopened.get(d1).has_value());
  EXPECT_EQ(reopened.get(d2), blob2);

  EXPECT_THROW(OffChainStore::to_digest(to_bytes("short")), std::invalid_argument);
}

// --- durable blockchain -----------------------------------------------------

TEST(DurableChain, ReopenRestoresHeadStateAndReceipts) {
  const Workload w = build_workload(20);
  Blockchain ref(w.genesis);
  for (const Block& b : w.blocks) ASSERT_TRUE(ref.add_block(b));

  FaultVfs vfs(40);
  store::OpenOptions opts;
  opts.vfs = &vfs;
  opts.path = "node";
  {
    Blockchain chain(w.genesis, opts);
    EXPECT_TRUE(chain.durable());
    for (const Block& b : w.blocks) ASSERT_TRUE(chain.add_block(b));
    ASSERT_NE(chain.journal(), nullptr);
    EXPECT_EQ(chain.journal()->size(), w.blocks.size());
    ASSERT_NE(chain.snapshots(), nullptr);
    EXPECT_EQ(chain.snapshots()->heights(), std::vector<std::uint64_t>{16});
  }

  Blockchain reopened(w.genesis, opts);
  EXPECT_EQ(reopened.head_hash(), ref.head_hash());
  EXPECT_EQ(reopened.height(), 20u);
  EXPECT_EQ(reopened.state().snapshot_bytes(), ref.state().snapshot_bytes());

  // Receipts from before the snapshot height still answer queries.
  const Bytes deploy_tx = w.blocks[0].transactions[0].hash();
  ASSERT_TRUE(reopened.find_receipt(deploy_tx).has_value());
  EXPECT_EQ(reopened.confirmation_block(deploy_tx), 1u);

  // Contract state travelled through the snapshot: deploy arg 3 + bumps at
  // heights 5, 10, 15, 20.
  const TallyContract* tally = reopened.state().contract_as<TallyContract>(w.tally);
  ASSERT_NE(tally, nullptr);
  EXPECT_EQ(tally->total(), 3u + 4u);
}

// --- the torture test -------------------------------------------------------
//
// For EVERY power-cut point the FaultVfs can schedule during a 50-block
// durable workload (enumerated by op_count() of an un-crashed run), inject
// the cut, reboot, reopen the chain from disk, re-feed the workload, and
// require the recovered node to be byte-identical to a node that never
// crashed. Additionally, any block whose add_block() returned true before
// the cut (the durability acknowledgement) must still be known after it.

TEST(Torture, EveryCrashPointRecoversToTheReference) {
  const Workload w = build_workload(50);

  Blockchain ref(w.genesis);
  for (const Block& b : w.blocks) ASSERT_TRUE(ref.add_block(b));
  const Bytes ref_head = ref.head_hash();
  const std::optional<Bytes> ref_state = ref.state().snapshot_bytes();
  ASSERT_TRUE(ref_state.has_value());

  // Enumerate the crash-point space (and check durable == in-memory result).
  std::uint64_t total_ops = 0;
  {
    FaultVfs vfs(99);
    store::OpenOptions opts;
    opts.vfs = &vfs;
    opts.path = "node";
    Blockchain chain(w.genesis, opts);
    for (const Block& b : w.blocks) ASSERT_TRUE(chain.add_block(b));
    EXPECT_EQ(chain.head_hash(), ref_head);
    EXPECT_EQ(chain.state().snapshot_bytes(), ref_state);
    total_ops = vfs.op_count();
  }
  ASSERT_GT(total_ops, 100u) << "workload must exercise journal syncs and snapshots";

  for (std::uint64_t at = 1; at <= total_ops; ++at) {
    FaultVfs vfs(99);  // same seed => identical op sequence up to the cut
    store::OpenOptions opts;
    opts.vfs = &vfs;
    opts.path = "node";
    vfs.plan_crash(at);

    std::vector<bool> acked(w.blocks.size(), false);
    bool cut = false;
    try {
      Blockchain chain(w.genesis, opts);
      for (std::size_t i = 0; i < w.blocks.size(); ++i) {
        if (chain.add_block(w.blocks[i])) acked[i] = true;
      }
    } catch (const PowerCut&) {
      cut = true;
    }
    ASSERT_TRUE(cut) << "crash point " << at << " was never reached";

    vfs.recover();
    Blockchain recovered(w.genesis, opts);
    for (std::size_t i = 0; i < w.blocks.size(); ++i) {
      if (acked[i]) {
        EXPECT_TRUE(recovered.knows(w.blocks[i].hash()))
            << "acknowledged block " << i + 1 << " lost by crash at op " << at;
      }
    }
    for (const Block& b : w.blocks) recovered.add_block(b);  // re-learn from "peers"
    ASSERT_EQ(recovered.head_hash(), ref_head) << "crash at op " << at;
    ASSERT_EQ(recovered.state().snapshot_bytes(), ref_state) << "crash at op " << at;
  }
}

}  // namespace
}  // namespace zl::chain
