// Concurrency stress for the v2 store: one recording thread appending
// under group commit while background sealers promote
// segments between tiers, reader threads stream ranges mid-promotion,
// and a checkpoint thread exercises the batched aux-file path. This is
// the suite CI runs under TSan (-DAVM_SANITIZE=thread): its job is to
// make the threading contract in src/store/log_store.h racy-by-
// construction if the implementation ever regresses.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/store/log_store.h"
#include "src/util/prng.h"

namespace fs = std::filesystem;

namespace avm {
namespace {

// Entry content derivable from the sequence number alone, so readers
// can verify what they stream without touching the (single-writer)
// in-memory log.
Bytes ContentFor(uint64_t seq) {
  return ToBytes("entry-" + std::to_string(seq) + "-" + std::string(40, 'k'));
}

constexpr uint64_t kEntries = 4000;

// What a run leaves behind: the sealed store's size and its log head.
struct StressResult {
  uint64_t disk_bytes = 0;
  Hash256 last_hash;
};

// With `sync`, group commits fdatasync off the lock while readers write
// the active segment's pending records out under it, and every segment
// is preallocated and trimmed when it rolls. `fault_hook` is installed
// on the store when set.
StressResult RunStress(const std::string& name, bool sync,
                       std::function<StoreFaultAction(const StoreFaultSite&)> fault_hook = {}) {
  std::string dir = (fs::path(::testing::TempDir()) / name).string();
  fs::remove_all(dir);

  LogStoreOptions opts;
  opts.seal_threshold_bytes = 4096;  // Roll every ~60 entries.
  opts.index_every = 4;
  opts.sync = sync;
  opts.sealer_threads = 2;
  opts.group_commit.max_entries = 16;
  opts.group_commit.max_bytes = 1u << 30;
  opts.group_commit.max_delay_ms = 1;  // Flusher thread in play too.
  opts.fault_hook = std::move(fault_hook);

  constexpr int kReaders = 3;

  // The writer appends through a TamperEvidentLog exactly like a
  // recorder would, but readers only ever touch the store: the spilled
  // log's tip and ring change under append and are not shared.
  TamperEvidentLog log("bob");
  auto store = LogStore::Open(dir, "bob", opts);
  log.SetSink(store.get());

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (uint64_t i = 1; i <= kEntries; i++) {
      log.Append(EntryType::kInfo, ContentFor(i));
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  std::atomic<uint64_t> ranges_read{0};
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&, r] {
      Prng rng(1000 + static_cast<uint64_t>(r));
      while (!done.load(std::memory_order_acquire) || ranges_read < 50) {
        uint64_t last = store->LastSeq();
        if (last < 2) {
          std::this_thread::yield();
          continue;
        }
        uint64_t from = rng.Range(1, last);
        uint64_t to = rng.Range(from, std::min<uint64_t>(last, from + 200));
        if (r == 0) {
          // Extract: whole range materialized at once.
          LogSegment seg = store->Extract(from, to);
          ASSERT_EQ(seg.entries.size(), to - from + 1);
          for (const LogEntry& e : seg.entries) {
            ASSERT_EQ(e.content, ContentFor(e.seq));
          }
        } else {
          // Cursor: streaming, tolerates promotion mid-iteration.
          SegmentCursor cur = store->Cursor(from, to);
          uint64_t expect = from;
          while (const LogEntry* e = cur.Next()) {
            ASSERT_EQ(e->seq, expect);
            ASSERT_EQ(e->content, ContentFor(e->seq));
            expect++;
          }
          ASSERT_EQ(expect, to + 1);
        }
        ranges_read.fetch_add(1, std::memory_order_relaxed);
        // Watermark reads are lock-free and never ahead of the log. The
        // watermark is read first: the writer may append and commit
        // between the two reads.
        const uint64_t durable = store->DurableSeq();
        ASSERT_LE(durable, store->LastSeq());
      }
    });
  }

  // Checkpoint-style aux writes ride the group-commit fsync batch.
  std::string aux = (fs::path(dir) / "stress.ckpt").string();
  std::thread checkpointer([&] {
    uint64_t version = 0;
    while (!done.load(std::memory_order_acquire)) {
      store->WriteAuxFileBatched(aux, ToBytes("ckpt-" + std::to_string(version++)));
      std::optional<Bytes> back = LogStore::ReadAuxFile(aux);
      ASSERT_TRUE(back.has_value());  // Never torn, never missing.
      std::this_thread::yield();
    }
  });

  writer.join();
  checkpointer.join();
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_GE(ranges_read.load(), 50u);

  // Shutdown barrier, then full consistency against the writer's log.
  log.SetSink(nullptr);
  store->Seal();
  EXPECT_EQ(store->LastSeq(), kEntries);
  EXPECT_EQ(store->DurableSeq(), kEntries);
  EXPECT_EQ(store->SealedCount(), store->SegmentCount());
  EXPECT_EQ(store->LastHash(), log.LastHash());
  TamperEvidentLog ref("bob");  // Sinkless twin: the reference contents.
  for (uint64_t i = 1; i <= kEntries; i++) {
    ref.Append(EntryType::kInfo, ContentFor(i));
  }
  EXPECT_EQ(store->Extract(1, kEntries).Serialize(), ref.Extract(1, kEntries).Serialize());
  StressResult result{store->DiskBytes(), store->LastHash()};

  store.reset();
  fs::remove_all(dir);
  return result;
}

TEST(StoreStressTest, ConcurrentAppendPromoteReadAux) { RunStress("avm_store_stress", false); }

TEST(StoreStressTest, ConcurrentAppendPromoteReadAuxSyncing) {
  RunStress("avm_store_stress_sync", true);
}

// The store's one fault seam under concurrency: a hook that counts
// every site and always answers kNone runs on the writer, the sealers
// and the flusher at once, and changes nothing -- the sealed store's
// bytes and log head match a run without the hook.
TEST(StoreStressTest, CountingFaultHookOnEveryThreadChangesNothing) {
  std::mutex mu;
  std::map<std::string, uint64_t> calls;
  std::map<std::string, std::set<std::thread::id>> threads;
  auto counting_hook = [&](const StoreFaultSite& site) {
    std::lock_guard<std::mutex> lk(mu);
    calls[site.point]++;
    threads[site.point].insert(std::this_thread::get_id());
    return StoreFaultAction::kNone;
  };
  const StressResult plain = RunStress("avm_store_stress_plain", true);
  const StressResult hooked = RunStress("avm_store_stress_hooked", true, counting_hook);
  EXPECT_EQ(hooked.disk_bytes, plain.disk_bytes);
  EXPECT_EQ(hooked.last_hash, plain.last_hash);

  std::lock_guard<std::mutex> lk(mu);
  EXPECT_EQ(calls["append-write"], kEntries);
  EXPECT_GT(calls["group-commit"], 0u);
  EXPECT_GT(calls["post-dir-sync"], 0u);
  // Every rolled segment was sealed on a pool worker, never on the
  // writer (the only thread that appends).
  EXPECT_GT(calls["pre-seal-rename"], 0u);
  EXPECT_EQ(calls["pre-seal-unlink"], calls["pre-seal-rename"]);
  ASSERT_EQ(threads["append-write"].size(), 1u);
  EXPECT_EQ(threads["pre-seal-rename"].count(*threads["append-write"].begin()), 0u);
}

}  // namespace
}  // namespace avm
