// The durable segmented log store: append/roll/seal, sparse-index
// extraction, crash recovery (including torn tail writes), and the
// acceptance bar -- store-backed audits produce verdicts identical to
// the in-memory path on the same recorded scenario.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "src/sim/scenario.h"
#include "src/obs/metrics.h"
#include "src/store/log_store.h"
#include "src/util/crc32.h"
#include "src/util/prng.h"

namespace fs = std::filesystem;

namespace avm {
namespace {

class StoreFixture : public ::testing::Test {
 protected:
  // A fresh directory per test, removed on teardown.
  void SetUp() override {
    const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::path(::testing::TempDir()) / (std::string("avm_store_") + info->name())).string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  // Small segments so a few hundred entries roll several times.
  LogStoreOptions SmallSegments() {
    LogStoreOptions opts;
    opts.seal_threshold_bytes = 4096;
    opts.index_every = 4;
    opts.sync = false;  // Durability is the OS's problem in unit tests.
    return opts;
  }

  // Appends n entries with varied types and compressible content. Logs
  // filled with prefixes of one length roll at the same seqs.
  static void Fill(TamperEvidentLog& log, size_t n, const std::string& prefix = "entry-") {
    for (size_t i = 0; i < n; i++) {
      EntryType t = (i % 3 == 0)   ? EntryType::kInfo
                    : (i % 3 == 1) ? EntryType::kTraceTime
                                   : EntryType::kTraceOther;
      log.Append(t, ToBytes(prefix + std::to_string(i) + "-" + std::string(48, 'x')));
    }
  }

  // The sealed segment files in `dir`, keyed by first seq.
  static std::map<uint64_t, std::string> SealedFiles(const std::string& dir) {
    std::map<uint64_t, std::string> files;
    for (const fs::directory_entry& de : fs::directory_iterator(dir)) {
      const std::string name = de.path().filename().string();
      if (name.starts_with("seg-") && de.path().extension() == ".seal") {
        files[std::stoull(name.substr(4, 20))] = de.path().string();
      }
    }
    return files;
  }

  // Seals n Fill() entries with `prefix` into a fresh store in `dir`.
  void FillSealedStore(const std::string& dir, size_t n, const std::string& prefix = "entry-") {
    TamperEvidentLog log("bob");
    auto store = LogStore::Open(dir, "bob", SmallSegments());
    log.SetSink(store.get());
    Fill(log, n, prefix);
    store->Seal();
    log.SetSink(nullptr);
  }

  // The StoreError message LogStore::Open(dir) fails with ("" if none).
  std::string OpenError(const std::string& dir) {
    try {
      LogStore::Open(dir, SmallSegments());
    } catch (const StoreError& e) {
      return e.what();
    }
    return "";
  }

  static std::string FindActiveFile(const std::string& dir) {
    for (const fs::directory_entry& de : fs::directory_iterator(dir)) {
      if (de.path().extension() == ".log") {
        return de.path().string();
      }
    }
    return {};
  }

  // The newest raw segment: names are zero-padded first seqs, so the
  // largest name is the active file.
  static std::string NewestLogFile(const std::string& dir) {
    std::string newest;
    for (const fs::directory_entry& de : fs::directory_iterator(dir)) {
      if (de.path().extension() == ".log") {
        newest = std::max(newest, de.path().string());
      }
    }
    return newest;
  }

  // A byte-for-byte copy of a store directory: the crash image a power
  // cut would leave of a file system whose page cache reached disk.
  static void CopyDir(const std::string& from, const std::string& to) {
    fs::create_directories(to);
    for (const fs::directory_entry& de : fs::directory_iterator(from)) {
      fs::copy_file(de.path(), fs::path(to) / de.path().filename());
    }
  }

  // Record-stream bytes of the log's entries [1, n].
  static size_t StreamBytes(const TamperEvidentLog& log, uint64_t n) {
    Bytes frames;
    for (uint64_t s = 1; s <= n; s++) {
      EncodeRecord(log.At(s), frames);
    }
    return frames.size();
  }

  // A syncing store whose one segment holds the whole test, with
  // commits only on explicit Flush() calls.
  static LogStoreOptions OneSyncSegment() {
    LogStoreOptions opts;
    opts.seal_threshold_bytes = 64 * 1024;
    opts.index_every = 4;
    opts.sync = true;
    opts.sealer_threads = 0;
    opts.group_commit.max_entries = 1u << 20;
    opts.group_commit.max_bytes = 1u << 30;
    opts.group_commit.max_delay_ms = 0;
    return opts;
  }

  std::string dir_;
};

TEST_F(StoreFixture, AppendRollsAndSealsSegments) {
  TamperEvidentLog log("bob");
  auto store = LogStore::Open(dir_, "bob", SmallSegments());
  log.SetSink(store.get());
  Fill(log, 300);

  EXPECT_EQ(store->LastSeq(), 300u);
  EXPECT_EQ(store->LastHash(), log.LastHash());
  EXPECT_GE(store->SegmentCount(), 3u);
  EXPECT_GT(store->DiskBytes(), 0u);

  // Seal() is the barrier for the background sealer pool: only after it
  // is every rolled segment guaranteed promoted.
  store->Seal();
  EXPECT_EQ(store->SealedCount(), store->SegmentCount());
  // Sealed segments are LZSS-compressed (§6.4): repetitive log content
  // takes fewer bytes on disk than its wire size.
  EXPECT_LT(store->DiskBytes(), log.TotalWireSize());
}

TEST_F(StoreFixture, WatermarkAdvancesByGroupCommitPolicy) {
  LogStoreOptions opts = SmallSegments();
  opts.seal_threshold_bytes = 1u << 20;  // No rolls: isolate group commit.
  opts.sealer_threads = 0;
  opts.group_commit.max_entries = 10;
  opts.group_commit.max_bytes = 1u << 30;
  opts.group_commit.max_delay_ms = 0;  // No timer: deterministic.
  TamperEvidentLog log("bob");
  auto store = LogStore::Open(dir_, "bob", opts);
  log.SetSink(store.get());

  uint64_t prev = 0;
  for (size_t i = 0; i < 25; i++) {
    std::string content = "e";
    content += std::to_string(i);
    log.Append(EntryType::kInfo, ToBytes(content));
    // Monotone, never ahead of what exists.
    uint64_t wm = store->DurableSeq();
    EXPECT_GE(wm, prev);
    EXPECT_LE(wm, store->LastSeq());
    prev = wm;
  }
  // Entry threshold 10: two full windows committed, tail of 5 pending.
  EXPECT_EQ(store->LastSeq(), 25u);
  EXPECT_EQ(store->DurableSeq(), 20u);
  store->Flush();
  EXPECT_EQ(store->DurableSeq(), 25u);
}

TEST_F(StoreFixture, RollingFlushesTheWholeSegmentBehindTheWatermark) {
  LogStoreOptions opts = SmallSegments();
  opts.sealer_threads = 0;
  opts.group_commit.max_entries = 1u << 20;  // Only rolls force commits.
  opts.group_commit.max_bytes = 1u << 30;
  opts.group_commit.max_delay_ms = 0;
  TamperEvidentLog log("bob");
  auto store = LogStore::Open(dir_, "bob", opts);
  log.SetSink(store.get());
  size_t n = 0;
  while (store->SegmentCount() < 3) {
    log.Append(EntryType::kInfo, ToBytes("entry-" + std::to_string(n++) + std::string(48, 'x')));
  }
  // The durable prefix covers every rolled segment: rolling fsyncs the
  // old file before the next segment starts, so the watermark can lag
  // only within the active segment.
  uint64_t active_first = store->DurableSeq() + 1;
  LogSegment durable_prefix = store->Extract(1, store->DurableSeq());
  EXPECT_EQ(durable_prefix.Serialize(), log.Extract(1, store->DurableSeq()).Serialize());
  EXPECT_GT(active_first, 1u);
  store->Seal();
  EXPECT_EQ(store->DurableSeq(), store->LastSeq());
}

TEST_F(StoreFixture, ExtractMatchesInMemoryAcrossSegmentBoundaries) {
  TamperEvidentLog log("bob");
  auto store = LogStore::Open(dir_, "bob", SmallSegments());
  log.SetSink(store.get());
  Fill(log, 257);

  Prng rng(11);
  for (int trial = 0; trial < 40; trial++) {
    uint64_t from = 1 + rng.Below(257);
    uint64_t to = from + rng.Below(257 - from + 1);
    LogSegment mem = log.Extract(from, to);
    LogSegment disk = store->Extract(from, to);
    ASSERT_EQ(mem.Serialize(), disk.Serialize()) << "range [" << from << ", " << to << "]";
  }
  EXPECT_THROW(store->Extract(0, 5), std::out_of_range);
  EXPECT_THROW(store->Extract(5, 4), std::out_of_range);
  EXPECT_THROW(store->Extract(1, 258), std::out_of_range);
}

TEST_F(StoreFixture, CursorStreamsEntriesWithPriorHash) {
  TamperEvidentLog log("bob");
  auto store = LogStore::Open(dir_, "bob", SmallSegments());
  log.SetSink(store.get());
  Fill(log, 120);

  SegmentCursor cur = store->Cursor(50, 100);
  EXPECT_EQ(cur.prior_hash(), log.At(49).hash);
  uint64_t expect = 50;
  while (const LogEntry* e = cur.Next()) {
    EXPECT_EQ(e->seq, expect);
    EXPECT_EQ(e->hash, log.At(expect).hash);
    expect++;
  }
  EXPECT_EQ(expect, 101u);
}

// A window that starts mid-segment takes h_{from-1} from the entry it
// decodes on the way to `from`, so each single-segment window, and each
// one-entry HashAt, reads its sealed segment exactly once.
TEST_F(StoreFixture, CursorLoadsASealedSegmentOncePerWindow) {
  const NodeId node = "cursor-loads";
  TamperEvidentLog log(node);
  LogStoreOptions opts = SmallSegments();
  opts.seal_threshold_bytes = 64 * 1024;  // ~500 entries in the first segment.
  opts.index_every = 16;                  // Waypoints to skip up from.
  auto store = LogStore::Open(dir_, node, opts);
  log.SetSink(store.get());
  Fill(log, 1200);
  store->Seal();
  ASSERT_EQ(store->SealedCount(), store->SegmentCount());
  // The first segment must hold every window below.
  const std::map<uint64_t, std::string> sealed = SealedFiles(dir_);
  ASSERT_GE(sealed.size(), 2u);
  constexpr uint64_t kWindow = 64;
  ASSERT_GT(std::next(sealed.begin())->first, 130 + kWindow);

  const obs::Counter* loads =
      obs::Registry::Global().GetCounter("store_segment_loads_total", {{"node", node}});
  for (uint64_t from = 1; from <= 130; from++) {
    const uint64_t to = from + kWindow - 1;
    uint64_t before = loads->Value();
    LogSegment disk = store->Extract(from, to);
    EXPECT_EQ(loads->Value() - before, 1u) << "Extract from " << from;
    LogSegment mem = log.Extract(from, to);
    EXPECT_EQ(disk.prior_hash, mem.prior_hash) << "from " << from;
    ASSERT_EQ(disk.Serialize(), mem.Serialize()) << "from " << from;

    before = loads->Value();
    EXPECT_EQ(store->HashAt(from), log.At(from).hash) << "HashAt " << from;
    EXPECT_EQ(loads->Value() - before, 1u) << "HashAt " << from;
  }
}

TEST_F(StoreFixture, ReopenRecoversStateAndNodeIdentity) {
  TamperEvidentLog log("carol");
  {
    auto store = LogStore::Open(dir_, "carol", SmallSegments());
    log.SetSink(store.get());
    Fill(log, 150);
    log.SetSink(nullptr);
  }
  // Reopen without naming the node: identity comes from store.meta.
  auto reopened = LogStore::Open(dir_, SmallSegments());
  EXPECT_EQ(reopened->node(), "carol");
  EXPECT_EQ(reopened->LastSeq(), 150u);
  EXPECT_EQ(reopened->LastHash(), log.LastHash());
  EXPECT_FALSE(reopened->RecoveredTornTail());
  EXPECT_EQ(reopened->Extract(1, 150).Serialize(), log.Extract(1, 150).Serialize());

  // Backfill skips what the store already holds; appends continue.
  log.SetSink(reopened.get());
  Fill(log, 10);
  EXPECT_EQ(reopened->LastSeq(), 160u);
  EXPECT_EQ(reopened->Extract(140, 160).Serialize(), log.Extract(140, 160).Serialize());

  EXPECT_THROW(LogStore::Open(dir_, "mallory", SmallSegments()), StoreError);
}

TEST_F(StoreFixture, ReopenTruncatesTornTailGarbage) {
  TamperEvidentLog log("bob");
  {
    auto store = LogStore::Open(dir_, "bob", SmallSegments());
    log.SetSink(store.get());
    Fill(log, 50);
    log.SetSink(nullptr);
  }
  // Simulate a torn write: half a record frame of garbage at the tail.
  std::string active = FindActiveFile(dir_);
  ASSERT_FALSE(active.empty());
  {
    std::ofstream out(active, std::ios::binary | std::ios::app);
    const char garbage[] = "\xff\xff\xff\xff torn";
    out.write(garbage, sizeof(garbage));
  }
  auto store = LogStore::Open(dir_, SmallSegments());
  EXPECT_TRUE(store->RecoveredTornTail());
  EXPECT_EQ(store->LastSeq(), 50u);
  EXPECT_EQ(store->LastHash(), log.LastHash());
  EXPECT_EQ(store->Extract(1, 50).Serialize(), log.Extract(1, 50).Serialize());
}

TEST_F(StoreFixture, ReopenTruncatesHalfWrittenRecord) {
  TamperEvidentLog log("bob");
  {
    auto store = LogStore::Open(dir_, "bob", SmallSegments());
    log.SetSink(store.get());
    Fill(log, 50);
    log.SetSink(nullptr);
  }
  // Cut the last record mid-payload (power loss mid-write).
  std::string active = FindActiveFile(dir_);
  ASSERT_FALSE(active.empty());
  uint64_t size = fs::file_size(active);
  fs::resize_file(active, size - 5);

  auto store = LogStore::Open(dir_, SmallSegments());
  EXPECT_TRUE(store->RecoveredTornTail());
  // The torn entry is gone; everything before it survived.
  EXPECT_EQ(store->LastSeq(), 49u);
  EXPECT_EQ(store->LastHash(), log.At(49).hash);

  // The recorder resumes by re-attaching; backfill replays only seq 50.
  log.SetSink(store.get());
  EXPECT_EQ(store->LastSeq(), 50u);
  EXPECT_EQ(store->Extract(1, 50).Serialize(), log.Extract(1, 50).Serialize());
}

TEST_F(StoreFixture, CorruptTailRecordIsDroppedOnRecovery) {
  TamperEvidentLog log("bob");
  {
    auto store = LogStore::Open(dir_, "bob", SmallSegments());
    log.SetSink(store.get());
    Fill(log, 20);
    log.SetSink(nullptr);
  }
  std::string active = FindActiveFile(dir_);
  ASSERT_FALSE(active.empty());
  // Flip one byte in the last record's payload: the CRC catches it.
  uint64_t size = fs::file_size(active);
  {
    std::fstream f(active, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(size - 10));
    char b;
    f.seekg(static_cast<std::streamoff>(size - 10));
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(static_cast<std::streamoff>(size - 10));
    f.write(&b, 1);
  }
  auto store = LogStore::Open(dir_, SmallSegments());
  EXPECT_TRUE(store->RecoveredTornTail());
  EXPECT_EQ(store->LastSeq(), 19u);
}

// The segments must cover the log from seq 1. Here the first sealed
// segment is gone, as from a store whose oldest segments were moved to
// a "seg-*.arch" cold tier: recovery reads no such files.
TEST_F(StoreFixture, MissingLeadingSegmentFailsOpen) {
  FillSealedStore(dir_, 300);
  const std::map<uint64_t, std::string> sealed = SealedFiles(dir_);
  ASSERT_GE(sealed.size(), 2u);
  const auto first = sealed.begin();
  ASSERT_EQ(first->first, 1u);
  fs::rename(first->second, fs::path(first->second).replace_extension(".arch"));
  EXPECT_EQ(OpenError(dir_), "store is missing a segment before seq " +
                                 std::to_string(std::next(first)->first));
}

// A sealed segment from another log of the same shape starts at the
// right seq but does not chain onto the segment before it.
TEST_F(StoreFixture, UnchainedSealedSegmentFailsOpen) {
  const std::string other = dir_ + "_other";
  fs::remove_all(other);
  FillSealedStore(dir_, 300);
  FillSealedStore(other, 300, "ENTRY-");
  const std::map<uint64_t, std::string> sealed = SealedFiles(dir_);
  const std::map<uint64_t, std::string> other_sealed = SealedFiles(other);
  ASSERT_GE(sealed.size(), 2u);
  const auto second = std::next(sealed.begin());
  ASSERT_EQ(other_sealed.count(second->first), 1u);
  fs::copy_file(other_sealed.at(second->first), second->second,
                fs::copy_options::overwrite_existing);
  fs::remove_all(other);
  EXPECT_EQ(OpenError(dir_),
            "segment boundary hash mismatch at seq " + std::to_string(second->first));
}

TEST_F(StoreFixture, AppendRejectsSequenceGaps) {
  auto store = LogStore::Open(dir_, "bob", SmallSegments());
  TamperEvidentLog log("bob");
  Fill(log, 3);
  EXPECT_THROW(store->Append(log.At(2)), StoreError);
  store->Append(log.At(1));
  EXPECT_THROW(store->Append(log.At(3)), StoreError);
  store->Append(log.At(2));
  EXPECT_EQ(store->LastSeq(), 2u);
}

TEST_F(StoreFixture, AuxFileBatchedIsAtomicAndRecoverable) {
  LogStoreOptions opts = SmallSegments();
  opts.sealer_threads = 0;
  opts.group_commit.max_delay_ms = 0;
  TamperEvidentLog log("bob");
  auto store = LogStore::Open(dir_, "bob", opts);
  log.SetSink(store.get());
  Fill(log, 10);

  std::string aux = (fs::path(dir_) / "audit-test.ckpt").string();
  store->WriteAuxFileBatched(aux, ToBytes("checkpoint-v1"));
  // Visible immediately (the rename is not deferred, only the fsync).
  std::optional<Bytes> got = LogStore::ReadAuxFile(aux);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, ToBytes("checkpoint-v1"));

  // Overwrites are atomic: a reader sees old or new content, never a
  // torn file, and the fsync rides the next group commit.
  store->WriteAuxFileBatched(aux, ToBytes("checkpoint-v2-longer-content"));
  store->Flush();
  got = LogStore::ReadAuxFile(aux);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, ToBytes("checkpoint-v2-longer-content"));

  // A crash mid-write leaves only a *.tmp; recovery sweeps it and the
  // previous content survives.
  {
    std::ofstream tmp(aux + ".tmp", std::ios::binary);
    tmp << "torn half-written checkpoint";
  }
  log.SetSink(nullptr);
  store.reset();
  auto reopened = LogStore::Open(dir_, opts);
  EXPECT_FALSE(fs::exists(aux + ".tmp"));
  got = LogStore::ReadAuxFile(aux);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, ToBytes("checkpoint-v2-longer-content"));
}

// --- kill-point sweep: crash anywhere, recover to the watermark ---------

// Deterministic crash images: sealer_threads = 0 and no flush timer put
// every kill point on the appending thread, and the fault_hook copies
// the directory byte-for-byte at the first hit of the chosen site and
// lets the store carry on (kNone) -- exactly what a power cut at that
// instruction would leave behind.
// Both sync legs: a syncing store preallocates its active segment, so
// its crash images end in a zero tail that recovery must read as the
// clean end of the stream.
TEST_F(StoreFixture, KillPointSweepRecoversToWatermarkEverywhere) {
  const char* kKillPoints[] = {"group-commit", "post-dir-sync", "post-flush",     "roll",
                               "post-roll",    "pre-seal-rename", "pre-seal-unlink"};
  for (bool sync : {false, true}) {
    for (const char* point : kKillPoints) {
      if (!sync && std::string(point) == "post-dir-sync") {
        continue;  // Only a syncing store syncs its directory.
      }
      SCOPED_TRACE(std::string(point) + (sync ? " (sync)" : " (no sync)"));
      std::string live_dir = dir_ + "_live";
      std::string crash_dir = dir_ + "_crash";
      fs::remove_all(live_dir);
      fs::remove_all(crash_dir);

      LogStoreOptions opts;
      opts.seal_threshold_bytes = 2048;
      opts.index_every = 4;
      opts.sync = sync;
      opts.sealer_threads = 0;  // Promotions inline: kill points are exact.
      opts.group_commit.max_entries = 8;
      opts.group_commit.max_bytes = 1u << 30;
      opts.group_commit.max_delay_ms = 0;
      bool captured = false;
      opts.fault_hook = [&](const StoreFaultSite& at) {
        if (!captured && std::string(at.point) == point) {
          captured = true;
          CopyDir(live_dir, crash_dir);
        }
        return StoreFaultAction::kNone;
      };

      TamperEvidentLog log("bob");
      auto store = LogStore::Open(live_dir, "bob", opts);
      log.SetSink(store.get());
      uint64_t watermark_before_crash = 0;
      for (size_t i = 0; i < 400 && !captured; i++) {
        if (!captured) {
          watermark_before_crash = store->DurableSeq();
        }
        log.Append(EntryType::kInfo,
                   ToBytes("entry-" + std::to_string(i) + "-" + std::string(40, 'k')));
      }
      ASSERT_TRUE(captured) << "kill point never hit: " << point;
      log.SetSink(nullptr);
      store.reset();

      // Recovery of the crash image: everything at or below the watermark
      // observed before the crash survives, the chain is contiguous, and
      // the surviving prefix is bit-for-bit the in-memory log's prefix
      // (what a from-genesis audit of the survivor checks).
      auto recovered = LogStore::Open(crash_dir, opts);
      EXPECT_EQ(recovered->node(), "bob");
      if (std::string(point) == "post-flush") {
        // Group commits write whole records only; past the committed
        // records lies nothing, or a preallocated zero tail.
        EXPECT_FALSE(recovered->RecoveredTornTail());
      }
      uint64_t last = recovered->LastSeq();
      EXPECT_GE(last, watermark_before_crash);
      EXPECT_GE(recovered->DurableSeq(), watermark_before_crash);
      if (last > 0) {
        EXPECT_EQ(recovered->Extract(1, last).Serialize(), log.Extract(1, last).Serialize());
        EXPECT_EQ(recovered->LastHash(), log.At(last).hash);
      }
      // And the recovered store accepts new appends from where it stands:
      // continue the chain with the next entries the in-memory log holds.
      for (uint64_t s = last + 1; s <= std::min<uint64_t>(last + 5, log.LastSeq()); s++) {
        const LogEntry& e = log.At(s);
        recovered->Append(e);
        EXPECT_EQ(recovered->LastSeq(), s);
        EXPECT_EQ(recovered->LastHash(), e.hash);
      }
      recovered.reset();
      fs::remove_all(live_dir);
      fs::remove_all(crash_dir);
    }
  }
}

// A new segment's directory entry is made durable (the directory is
// synced) before any group commit advances the watermark into it.
TEST_F(StoreFixture, NewSegmentReachesTheDirectoryBeforeItsFirstCommit) {
  LogStoreOptions opts;
  opts.seal_threshold_bytes = 2048;
  opts.index_every = 4;
  opts.sync = true;
  opts.sealer_threads = 0;
  opts.group_commit.max_entries = 4;
  opts.group_commit.max_bytes = 1u << 30;
  opts.group_commit.max_delay_ms = 0;
  std::set<std::string> dir_synced;
  std::vector<std::string> committed_unsynced;
  size_t commits = 0;
  opts.fault_hook = [&](const StoreFaultSite& at) {
    const std::string point = at.point;
    if (point == "post-dir-sync") {
      dir_synced.insert(NewestLogFile(dir_));
    } else if (point == "post-flush") {
      commits++;
      const std::string active = NewestLogFile(dir_);
      if (dir_synced.count(active) == 0) {
        committed_unsynced.push_back(active);
      }
    }
    return StoreFaultAction::kNone;
  };
  TamperEvidentLog log("bob");
  auto store = LogStore::Open(dir_, "bob", opts);
  log.SetSink(store.get());
  Fill(log, 200);
  EXPECT_GE(dir_synced.size(), 3u);
  EXPECT_GT(commits, dir_synced.size());
  EXPECT_TRUE(committed_unsynced.empty()) << committed_unsynced.front();
  log.SetSink(nullptr);
}

// The zero tail of a preallocated segment is the clean end of the
// stream, but a torn record in front of it is still a torn tail.
TEST_F(StoreFixture, TornRecordBeforePreallocatedZerosIsTruncated) {
  TamperEvidentLog log("bob");
  Fill(log, 31);
  const std::string live = dir_ + "_live";
  fs::remove_all(live);
  {
    auto store = LogStore::Open(live, "bob", OneSyncSegment());
    for (uint64_t s = 1; s <= 30; s++) {
      store->Append(log.At(s));
    }
    store->Flush();
    CopyDir(live, dir_);
  }
  fs::remove_all(live);
  const std::string active = FindActiveFile(dir_);
  ASSERT_FALSE(active.empty());
  const size_t stream_end = kSegmentHeaderSize + StreamBytes(log, 30);
  if (fs::file_size(active) == stream_end) {
    GTEST_SKIP() << "file system did not preallocate the active segment";
  }
  // Power loss mid-write of entry 31: half its frame, then zeros.
  Bytes frame;
  EncodeRecord(log.At(31), frame);
  {
    std::fstream f(active, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(stream_end));
    f.write(reinterpret_cast<const char*>(frame.data()),
            static_cast<std::streamsize>(frame.size() / 2));
  }
  auto store = LogStore::Open(dir_, OneSyncSegment());
  EXPECT_TRUE(store->RecoveredTornTail());
  EXPECT_EQ(store->LastSeq(), 30u);
  EXPECT_EQ(store->LastHash(), log.At(30).hash);
  EXPECT_EQ(store->Extract(1, 30).Serialize(), log.Extract(1, 30).Serialize());
  store->Append(log.At(31));
  EXPECT_EQ(store->Extract(25, 31).Serialize(), log.Extract(25, 31).Serialize());
}

// Appends to a reopened syncing store land at the end of the record
// stream, not at the end of the file: the preallocated tail lies
// between the two (an O_APPEND write path fails here). Closing trims
// the file to header + stream bytes.
TEST_F(StoreFixture, ReopenedSyncStoreAppendsAtStreamEndNotAtEof) {
  TamperEvidentLog log("bob");
  const std::string live = dir_ + "_live";
  fs::remove_all(live);
  {
    auto store = LogStore::Open(live, "bob", OneSyncSegment());
    log.SetSink(store.get());
    Fill(log, 40);
    store->Flush();
    CopyDir(live, dir_);  // Crash image: the preallocated tail is still there.
    log.SetSink(nullptr);
  }
  fs::remove_all(live);
  const std::string active = FindActiveFile(dir_);
  ASSERT_FALSE(active.empty());
  if (fs::file_size(active) == kSegmentHeaderSize + StreamBytes(log, 40)) {
    GTEST_SKIP() << "file system did not preallocate the active segment";
  }
  {
    auto store = LogStore::Open(dir_, OneSyncSegment());
    EXPECT_FALSE(store->RecoveredTornTail());
    EXPECT_EQ(store->LastSeq(), 40u);
    log.SetSink(store.get());
    Fill(log, 20);
    store->Flush();
    EXPECT_EQ(store->Extract(1, 60).Serialize(), log.Extract(1, 60).Serialize());
    log.SetSink(nullptr);
  }
  EXPECT_EQ(fs::file_size(active), kSegmentHeaderSize + StreamBytes(log, 60));
  auto reopened = LogStore::Open(dir_, OneSyncSegment());
  EXPECT_FALSE(reopened->RecoveredTornTail());
  EXPECT_EQ(reopened->LastSeq(), 60u);
  EXPECT_EQ(reopened->Extract(1, 60).Serialize(), log.Extract(1, 60).Serialize());
}

// Sealing trims the preallocation away: a store reopened from a crash
// image mid-segment seals to the same bytes as one never interrupted.
TEST_F(StoreFixture, SealAfterReopenMatchesAnUninterruptedStore) {
  TamperEvidentLog log("bob");
  Fill(log, 80);
  auto sealed_bytes = [](const std::string& dir) {
    Bytes out;
    for (const fs::directory_entry& de : fs::directory_iterator(dir)) {
      if (de.path().extension() == ".seal") {
        EXPECT_TRUE(out.empty()) << "more than one sealed segment";
        std::ifstream in(de.path(), std::ios::binary);
        out.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
      }
    }
    return out;
  };
  const std::string whole = dir_ + "_whole";
  const std::string live = dir_ + "_live";
  fs::remove_all(whole);
  fs::remove_all(live);
  {
    auto store = LogStore::Open(whole, "bob", OneSyncSegment());
    for (uint64_t s = 1; s <= 80; s++) {
      store->Append(log.At(s));
    }
    store->Seal();
  }
  {
    auto store = LogStore::Open(live, "bob", OneSyncSegment());
    for (uint64_t s = 1; s <= 40; s++) {
      store->Append(log.At(s));
    }
    store->Flush();
    CopyDir(live, dir_);
  }
  {
    auto store = LogStore::Open(dir_, OneSyncSegment());
    ASSERT_EQ(store->LastSeq(), 40u);
    for (uint64_t s = 41; s <= 80; s++) {
      store->Append(log.At(s));
    }
    store->Seal();
  }
  const Bytes expect = sealed_bytes(whole);
  ASSERT_FALSE(expect.empty());
  EXPECT_EQ(sealed_bytes(dir_), expect);
  fs::remove_all(whole);
  fs::remove_all(live);
}

KvScenarioConfig FastKv(uint64_t seed) {
  KvScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();
  cfg.seed = seed;
  cfg.snapshot_interval = 200 * kMicrosPerMilli;
  cfg.client.op_period_us = 5 * kMicrosPerMilli;
  return cfg;
}

TEST_F(StoreFixture, StoreBackedFullAuditMatchesInMemory) {
  KvScenario kv(FastKv(21));
  kv.Start();
  LogStoreOptions opts = SmallSegments();
  opts.seal_threshold_bytes = 64 * 1024;
  auto store = LogStore::Open(dir_, kv.server().id(), opts);
  kv.server().SpillTo(store.get());
  kv.RunFor(2 * kMicrosPerSecond);
  kv.Finish();

  std::vector<Authenticator> auths = kv.CollectAuthsForServer();
  Auditor auditor("client", &kv.registry());
  AuditOutcome mem = auditor.AuditFull(kv.server(), InMemorySegmentSource(kv.server().log()),
                                       kv.reference_server_image(), auths);
  AuditOutcome disk =
      auditor.AuditFull(kv.server(), *store, kv.reference_server_image(), auths);
  EXPECT_TRUE(mem.ok) << mem.Describe();
  EXPECT_EQ(mem.ok, disk.ok);
  EXPECT_EQ(mem.Describe(), disk.Describe());
  EXPECT_EQ(mem.log_bytes, disk.log_bytes);

  // The streaming syntactic triage agrees without materializing the log.
  CheckResult stream = StreamingSyntacticCheck(*store, auths, kv.registry(), auditor.config());
  EXPECT_TRUE(stream.ok) << stream.reason;
}

TEST_F(StoreFixture, StoreBackedSpotChecksMatchInMemoryIncludingCheatVerdicts) {
  KvScenario kv(FastKv(22));
  kv.Start();
  auto store = LogStore::Open(dir_, kv.server().id(), SmallSegments());
  kv.server().SpillTo(store.get());
  // Corrupt the server state mid-run; exactly one window must fail,
  // identically on both paths.
  kv.server().SetCheatHook([](Machine& m, SimTime now) {
    if (now == 700 * kMicrosPerMilli) {
      m.WriteMem32(kKvTableAddr + 32, 0xdead);
    }
  });
  kv.RunFor(2 * kMicrosPerSecond);
  kv.Finish();

  std::vector<SnapshotIndexEntry> snaps = IndexSnapshots(kv.server().log());
  std::vector<SnapshotIndexEntry> snaps_disk = IndexSnapshots(*store);
  ASSERT_GE(snaps.size(), 4u);
  ASSERT_EQ(snaps.size(), snaps_disk.size());
  for (size_t i = 0; i < snaps.size(); i++) {
    EXPECT_EQ(snaps[i].seq, snaps_disk[i].seq);
    EXPECT_EQ(snaps[i].meta.snapshot_id, snaps_disk[i].meta.snapshot_id);
  }

  std::vector<Authenticator> auths = kv.CollectAuthsForServer();
  std::vector<std::pair<uint64_t, uint64_t>> windows;
  for (size_t i = 0; i + 1 < snaps.size(); i++) {
    windows.emplace_back(snaps[i].meta.snapshot_id, snaps[i + 1].meta.snapshot_id);
  }
  Auditor auditor("client", &kv.registry());
  std::vector<AuditOutcome> mem =
      auditor.SpotCheckMany(kv.server(), InMemorySegmentSource(kv.server().log()), windows, auths);
  std::vector<AuditOutcome> disk = auditor.SpotCheckMany(kv.server(), *store, windows, auths);
  ASSERT_EQ(mem.size(), disk.size());
  int failures = 0;
  for (size_t i = 0; i < mem.size(); i++) {
    EXPECT_EQ(mem[i].ok, disk[i].ok) << "window " << i;
    EXPECT_EQ(mem[i].Describe(), disk[i].Describe()) << "window " << i;
    failures += mem[i].ok ? 0 : 1;
  }
  EXPECT_EQ(failures, 1);
}

TEST_F(StoreFixture, FreshProcessStyleAuditFromDiskOnly) {
  KvScenario kv(FastKv(23));
  kv.Start();
  {
    auto store = LogStore::Open(dir_, kv.server().id(), SmallSegments());
    kv.server().SpillTo(store.get());
    kv.RunFor(kMicrosPerSecond);
    kv.Finish();
    kv.server().log().SetSink(nullptr);
    store->Seal();
  }
  // A fresh auditor opens the directory cold, as a separate process
  // would, and audits without ever touching the in-memory log.
  auto store = LogStore::Open(dir_, SmallSegments());
  EXPECT_EQ(store->LastSeq(), kv.server().log().LastSeq());
  std::vector<Authenticator> auths = kv.CollectAuthsForServer();
  Auditor auditor("client", &kv.registry());
  AuditOutcome mem = auditor.AuditFull(kv.server(), InMemorySegmentSource(kv.server().log()),
                                       kv.reference_server_image(), auths);
  AuditOutcome disk = auditor.AuditFull(kv.server(), *store, kv.reference_server_image(), auths);
  EXPECT_TRUE(disk.ok) << disk.Describe();
  EXPECT_EQ(mem.Describe(), disk.Describe());
}

TEST_F(StoreFixture, TamperedSealedSegmentFailsCleanly) {
  TamperEvidentLog log("bob");
  Prng rng(5);
  Signer signer("bob", SignatureScheme::kRsa768, rng);
  KeyRegistry registry;
  registry.RegisterSigner(signer);
  auto store = LogStore::Open(dir_, "bob", SmallSegments());
  log.SetSink(store.get());
  // kInfo only: opaque content, so the syntactic check exercises just
  // the chain/authenticator/store layers this test is about.
  for (int i = 0; i < 100; i++) {
    log.Append(EntryType::kInfo, ToBytes("note-" + std::to_string(i) + std::string(48, 'x')));
  }
  store->Seal();
  std::vector<Authenticator> auths = {log.Authenticate(signer)};

  AuditConfig cfg;
  ASSERT_TRUE(StreamingSyntacticCheck(*store, auths, registry, cfg).ok);

  // Flip one byte in the middle of a sealed segment's body.
  for (const fs::directory_entry& de : fs::directory_iterator(dir_)) {
    if (de.path().extension() == ".seal") {
      std::fstream f(de.path(), std::ios::binary | std::ios::in | std::ios::out);
      char b;
      f.seekg(200);
      f.read(&b, 1);
      b = static_cast<char>(b ^ 0x55);
      f.seekp(200);
      f.write(&b, 1);
      break;
    }
  }
  // The store layer reports corruption as a failed check, not a crash.
  auto fresh = LogStore::Open(dir_, SmallSegments());
  CheckResult r = StreamingSyntacticCheck(*fresh, auths, registry, cfg);
  EXPECT_FALSE(r.ok);
  // Direct extraction surfaces the same corruption as a clean error.
  EXPECT_THROW((void)fresh->Extract(1, 100), StoreError);
}

// Bit-identity pin for the on-disk record frame (u32 payload length,
// u32 CRC-32C of the payload, then seq, type, length-prefixed content
// and chain hash). The golden bytes were recorded from the original
// two-buffer encoder; the second record is appended after the first to
// pin that EncodeRecord extends `out` rather than replacing it.
TEST(RecordFrame, GoldenBytes) {
  LogEntry a;
  a.seq = 1;
  a.type = EntryType::kTraceTime;
  a.content = ToBytes("abc");
  for (size_t i = 0; i < a.hash.v.size(); i++) {
    a.hash.v[i] = static_cast<uint8_t>(0x40 + i);
  }
  LogEntry b;
  b.seq = 0x1122334455667788ULL;
  b.type = EntryType::kSend;
  b.content.resize(70);
  for (size_t i = 0; i < b.content.size(); i++) {
    b.content[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  for (size_t i = 0; i < b.hash.v.size(); i++) {
    b.hash.v[i] = static_cast<uint8_t>(i * 9 + 7);
  }
  const std::string kFrameA =
      "300000001263caff01000000000000000403000000616263404142434445464748494a4b4c4d4e4f50515253545556"
      "5758595a5b5c5d5e5f";
  const std::string kFrameB =
      "73000000339aaa1c88776655443322110146000000030a11181f262d343b424950575e656c737a81888f969da4ab"
      "b2b9c0c7ced5dce3eaf1f8ff060d141b222930373e454c535a61686f767d848b9299a0a7aeb5bcc3cad1d8dfe607"
      "1019222b343d464f58616a737c858e97a0a9b2bbc4cdd6dfe8f1fa030c151e";
  Bytes out;
  EncodeRecord(a, out);
  EXPECT_EQ(HexEncode(out), kFrameA);
  EncodeRecord(b, out);
  EXPECT_EQ(HexEncode(out), kFrameA + kFrameB);

  size_t offset = 0;
  LogEntry back = DecodeRecordAt(out, &offset);
  EXPECT_EQ(back.seq, a.seq);
  EXPECT_EQ(back.content, a.content);
  back = DecodeRecordAt(out, &offset);
  EXPECT_EQ(back.seq, b.seq);
  EXPECT_EQ(back.hash, b.hash);
  EXPECT_EQ(offset, out.size());
}

// The store's on-disk framing depends on CRC-32C; the hardware
// (SSE4.2 / ARMv8-CE) path and the table fallback must compute the
// identical function on arbitrary buffers, seeds, and chains.
TEST(Crc32cDispatch, HardwareAndPortableAgree) {
  Prng rng(0xc32c);
  for (int i = 0; i < 300; i++) {
    size_t len = static_cast<size_t>(rng.Range(0, 300));
    Bytes buf = rng.RandomBytes(len);
    uint32_t seed = (i % 3 == 0) ? 0 : static_cast<uint32_t>(rng.Next());
    ASSERT_EQ(Crc32c(buf, seed), Crc32cPortable(buf, seed))
        << "len=" << len << " seed=" << seed << " hw=" << Crc32cHardwareAvailable();
  }
  // Multi-buffer chaining must agree too (the store CRCs header and
  // body as one chained stream).
  Bytes a = rng.RandomBytes(1001);
  Bytes b = rng.RandomBytes(77);
  EXPECT_EQ(Crc32c(b, Crc32c(a)), Crc32cPortable(b, Crc32cPortable(a)));
  // Odd alignments/lengths around the 4/8-byte fast-path boundaries.
  Bytes c = rng.RandomBytes(64);
  for (size_t off = 0; off < 9 && off < c.size(); off++) {
    ByteView v(c.data() + off, c.size() - off);
    EXPECT_EQ(Crc32c(v), Crc32cPortable(v));
  }
}

}  // namespace
}  // namespace avm
