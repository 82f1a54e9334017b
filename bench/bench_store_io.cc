// Log store I/O: append/seal/extract throughput and on-disk footprint.
//
// Figure 3 measures the AVMM log in memory (~2.6 MB/min for the game
// workload); §6.4 notes the log compresses well because most of it is
// near-regular TimeTracker entries. This bench records a real game log,
// pushes it through the durable store, and reports (a) sustained append
// and seal throughput, (b) on-disk bytes per entry -- sealed+LZSS vs.
// raw -- against the in-memory WireSize baseline, (c) range
// extraction cost from disk vs. from memory, and (d) the cost of one
// durable group commit in kv-durable's shape, with a turn's two
// commits in sequence and overlapped.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/sim/scenario.h"
#include "src/store/log_store.h"
#include "src/util/clock.h"
#include "src/util/prng.h"
#include "src/util/threadpool.h"

namespace fs = std::filesystem;

namespace avm {
namespace {

std::unique_ptr<LogStore> FreshStore(const std::string& dir, const NodeId& node, bool compress) {
  fs::remove_all(dir);
  LogStoreOptions opts;
  opts.seal_threshold_bytes = 1u << 20;
  opts.compress_sealed = compress;
  opts.sync = false;  // Measure the store, not the disk cache flush.
  return LogStore::Open(dir, node, opts);
}

// Sustained append under a concurrent auditor: appends the whole log
// while a reader thread continuously extracts windows (the mid-audit
// case the v2 tiers are built for). Returns MB/s of wire data appended,
// including the final group commit but not the shutdown Seal().
double SustainedAppend(const TamperEvidentLog& log, const std::string& dir,
                       LogStoreOptions opts) {
  fs::remove_all(dir);
  const LogSegment all = log.Extract(1, log.LastSeq());
  auto store = LogStore::Open(dir, log.owner(), opts);
  std::atomic<bool> done{false};
  std::thread auditor([&] {
    Prng rng(29);
    while (!done.load(std::memory_order_acquire)) {
      uint64_t last = store->LastSeq();
      if (last < 2) {
        std::this_thread::yield();
        continue;
      }
      uint64_t len = std::min<uint64_t>(512, last);
      uint64_t from = 1 + rng.Below(last - len + 1);
      (void)store->Extract(from, from + len - 1);
    }
  });
  WallTimer timer;
  for (const LogEntry& e : all.entries) {
    store->Append(e);
  }
  store->Flush();
  double secs = timer.ElapsedSeconds();
  done.store(true, std::memory_order_release);
  auditor.join();
  store->Seal();
  fs::remove_all(dir);
  return (log.TotalWireSize() / (1024.0 * 1024.0)) / secs;
}

// kv-durable's commit shape: two syncing stores (a server's and a
// client's) each take one ~1.2 KB entry and a forced group commit per
// simulator turn. Without a pool the two commits of a turn run one
// after the other; with one they are issued together through
// ParallelFor, as ScenarioWorld's turn barrier issues them. Returns
// wall microseconds per commit (per turn / 2). The turns stay inside
// one segment, so every commit is a data sync of the active file and
// none is a roll.
double DurableCommitRun(const std::string& base, const TamperEvidentLog& a,
                        const TamperEvidentLog& b, ThreadPool* pool) {
  LogStoreOptions opts;
  opts.sync = true;
  opts.group_commit.max_delay_ms = 0;  // Only the explicit commits below.
  fs::remove_all(base + "-a");
  fs::remove_all(base + "-b");
  auto sa = LogStore::Open(base + "-a", a.owner(), opts);
  auto sb = LogStore::Open(base + "-b", b.owner(), opts);
  WallTimer timer;
  for (uint64_t seq = 1; seq <= a.LastSeq(); seq++) {
    sa->Append(a.At(seq));
    sb->Append(b.At(seq));
    if (pool == nullptr) {
      sa->Flush();
      sb->Flush();
    } else {
      pool->ParallelFor(2, [&](size_t i) { (i == 0 ? sa : sb)->Flush(); });
    }
  }
  const double us = 1e6 * timer.ElapsedSeconds() / static_cast<double>(2 * a.LastSeq());
  sa.reset();
  sb.reset();
  fs::remove_all(base + "-a");
  fs::remove_all(base + "-b");
  return us;
}

void Run() {
  BenchJson json("store_io");
  json.EmbedObsSnapshot();
  // Record a 3-player game: the same workload Figure 3 measures.
  GameScenarioConfig cfg;
  cfg.run = RunConfig::AvmmRsa768();
  cfg.num_players = 3;
  cfg.seed = 13;
  GameScenario game(cfg);
  game.Start();
  game.RunFor(20 * kMicrosPerSecond);
  game.Finish();

  const TamperEvidentLog& log = game.player(0).log();
  const LogSegment all = log.Extract(1, log.LastSeq());
  size_t n = log.size();
  double wire_mb = log.TotalWireSize() / (1024.0 * 1024.0);
  std::printf("  workload: %zu entries, %.2f MB wire size (%.1f bytes/entry in memory)\n\n", n,
              wire_mb, static_cast<double>(log.TotalWireSize()) / n);

  std::string base = (fs::temp_directory_path() / "avm_bench_store").string();
  // One append+seal of the whole log per run, kStoreRuns runs of each
  // configuration in alternating order: a single run reads anywhere
  // from 30 to 80 MB/s, too wide to resolve a seal-speed change.
  constexpr int kStoreRuns = 9;
  struct StoreConfig {
    bool compress;
    const char* name;
    const char* metric;
    std::vector<double> secs;
    std::vector<uint64_t> disk_bytes;
  };
  StoreConfig configs[] = {{false, "sealed, uncompressed", "append_seal_raw", {}, {}},
                           {true, "sealed + LZSS (default)", "append_seal_lzss", {}, {}}};
  for (int run = 0; run < kStoreRuns; run++) {
    for (int k = 0; k < 2; k++) {
      StoreConfig& c = configs[run % 2 == 0 ? k : 1 - k];
      auto store = FreshStore(base + (c.compress ? "-lzss" : "-raw"), log.owner(), c.compress);
      WallTimer append_timer;
      for (const LogEntry& e : all.entries) {
        store->Append(e);
      }
      store->Seal();
      c.secs.push_back(append_timer.ElapsedSeconds());
      c.disk_bytes.push_back(store->DiskBytes());
    }
  }
  std::printf("  append + seal, %d runs of each in alternating order:\n", kStoreRuns);
  std::printf("  %-26s %12s %12s %12s %14s\n", "store", "median MB/s", "best MB/s", "entries/s",
              "disk B/entry");
  for (StoreConfig& c : configs) {
    std::sort(c.secs.begin(), c.secs.end());
    const double median_s = c.secs[c.secs.size() / 2];
    const double min_s = c.secs.front();
    const bool same_bytes = std::all_of(c.disk_bytes.begin(), c.disk_bytes.end(),
                                        [&](uint64_t b) { return b == c.disk_bytes.front(); });
    const double bytes_per_entry = static_cast<double>(c.disk_bytes.front()) / n;
    std::printf("  %-26s %12.1f %12.1f %12.0f %14.1f%s\n", c.name, wire_mb / median_s,
                wire_mb / min_s, n / median_s, bytes_per_entry,
                same_bytes ? "" : "  (disk bytes differ between runs: BUG)");
    json.Add(c.metric, wire_mb / median_s, "MB/s");
    json.Add(std::string(c.metric) + "_best", wire_mb / min_s, "MB/s");
    json.Add(c.compress ? "disk_bytes_per_entry_lzss" : "disk_bytes_per_entry_raw",
             bytes_per_entry, "bytes");
  }

  // Durable group commit: kDurableRuns runs of kDurableTurns turns with
  // the two commits of a turn in sequence, alternating in this process
  // with as many runs that overlap them (rows differ far more between
  // processes than within one); the median run and the best one, in
  // microseconds per commit.
  constexpr int kDurableRuns = 7;
  constexpr uint64_t kDurableTurns = 400;
  TamperEvidentLog durable_a("server");
  TamperEvidentLog durable_b("client");
  Prng durable_rng(41);
  for (uint64_t t = 0; t < kDurableTurns; t++) {
    // 1147 content bytes frame to a 1200-byte record.
    durable_a.Append(EntryType::kInfo, durable_rng.RandomBytes(1147));
    durable_b.Append(EntryType::kInfo, durable_rng.RandomBytes(1147));
  }
  ThreadPool commit_pool(2);
  std::vector<double> commit_us;
  std::vector<double> overlapped_us;
  for (int run = 0; run < kDurableRuns; run++) {
    for (int k = 0; k < 2; k++) {
      const bool overlap = (run + k) % 2 == 1;
      (overlap ? overlapped_us : commit_us)
          .push_back(DurableCommitRun(base + "-durable", durable_a, durable_b,
                                      overlap ? &commit_pool : nullptr));
    }
  }
  std::sort(commit_us.begin(), commit_us.end());
  std::sort(overlapped_us.begin(), overlapped_us.end());
  const double commit_median = commit_us[commit_us.size() / 2];
  const double overlapped_median = overlapped_us[overlapped_us.size() / 2];
  std::printf("\n  durable group commit, two syncing stores taking one 1.2 KB commit each per\n"
              "  turn (%d alternating runs of %llu turns each):\n"
              "  %-34s median %6.1f us/commit, best %6.1f\n"
              "  %-34s median %6.1f us/commit, best %6.1f  (%.2fx)\n",
              kDurableRuns, static_cast<unsigned long long>(kDurableTurns),
              "the two commits in sequence", commit_median, commit_us.front(),
              "the two commits overlapped", overlapped_median, overlapped_us.front(),
              commit_median / overlapped_median);
  json.Add("durable_commit_us", commit_median, "us");
  json.Add("durable_commit_us_best", commit_us.front(), "us");
  json.Add("durable_commit_overlapped_us", overlapped_median, "us");
  json.Add("durable_commit_overlapped_us_best", overlapped_us.front(), "us");
  json.Add("durable_commit_overlap_speedup", commit_median / overlapped_median, "x");

  // The v2 headline: sustained append with a concurrent audit reader.
  // Baseline = synchronous seal (inline LZSS on the recording thread)
  // with a commit per append; v2 = background sealer pool + batched
  // group commit. Same entries, same durability surrogate (fflush).
  LogStoreOptions sync_seal;
  sync_seal.seal_threshold_bytes = 1u << 18;
  sync_seal.sync = false;
  sync_seal.sealer_threads = 0;
  sync_seal.group_commit.max_entries = 1;  // Commit every append: v1 shape.
  LogStoreOptions v2 = sync_seal;
  v2.sealer_threads = 2;
  v2.group_commit = GroupCommitPolicy{};  // Batched: {256 KiB, 256, 20 ms}.
  double base_mbs = SustainedAppend(log, base + "-sustained-base", sync_seal);
  double v2_mbs = SustainedAppend(log, base + "-sustained-v2", v2);
  std::printf("\n  sustained append + concurrent audit reader:\n");
  std::printf("  %-40s %10.1f MB/s\n", "synchronous seal, commit/append", base_mbs);
  std::printf("  %-40s %10.1f MB/s  (%.1fx)\n", "v2: sealer pool + group commit", v2_mbs,
              v2_mbs / base_mbs);
  json.Add("sustained_append_sync_seal", base_mbs, "MB/s");
  json.Add("sustained_append_v2", v2_mbs, "MB/s");
  json.Add("sustained_append_speedup", v2_mbs / base_mbs, "x");

  // Extraction: whole-log and 1000-entry windows, disk vs. memory.
  auto store = LogStore::Open(base + "-lzss");
  LogSegment seg_disk, seg_mem;
  double full_disk_s = obs::TimeSection(
      "bench.extract_disk", [&] { seg_disk = store->Extract(1, store->LastSeq()); });
  double full_mem_s =
      obs::TimeSection("bench.extract_mem", [&] { seg_mem = log.Extract(1, log.LastSeq()); });
  std::printf("\n  full extract (%zu entries): disk %.3fs, memory %.3fs (match: %s)\n",
              seg_disk.entries.size(), full_disk_s, full_mem_s,
              seg_disk.Serialize() == seg_mem.Serialize() ? "yes" : "NO");

  Prng rng(7);
  constexpr int kWindows = 50;
  const uint64_t kWindowLen = std::min<uint64_t>(1000, log.LastSeq());
  WallTimer win_disk;
  for (int i = 0; i < kWindows; i++) {
    uint64_t from = 1 + rng.Below(log.LastSeq() - kWindowLen + 1);
    (void)store->Extract(from, from + kWindowLen - 1);
  }
  double win_disk_s = win_disk.ElapsedSeconds();
  std::printf("  %d x %llu-entry windows from disk: %.1f ms/window (sparse index + one\n"
              "  segment decompressed per window; memory stays O(segment))\n",
              kWindows, static_cast<unsigned long long>(kWindowLen),
              1000.0 * win_disk_s / kWindows);

  json.Add("extract_full_disk", full_disk_s, "s");
  json.Add("extract_window_ms", 1000.0 * win_disk_s / kWindows, "ms");

  // Telemetry on/off: the full append+seal path must lay down
  // bit-identical bytes on disk and stay under the <2% overhead budget
  // CI asserts on telemetry_overhead_pct (store spans fire per group
  // commit / per seal, never per entry). Median of interleaved pairs.
  std::vector<uint64_t> disk_bytes;
  auto sweep_once = [&](bool on) {
    obs::SetEnabled(on);
    obs::ResetTrace();
    auto s2 = FreshStore(base + "-obs", log.owner(), true);
    WallTimer t;
    for (const LogEntry& e : all.entries) {
      s2->Append(e);
    }
    s2->Seal();
    const double s = t.ElapsedSeconds();
    disk_bytes.push_back(s2->DiskBytes());
    return s;
  };
  const PairedOverhead ab = MeasurePairedOverhead(kTelemetryPairs, sweep_once);
  obs::SetEnabled(false);
  const bool disk_identical =
      std::all_of(disk_bytes.begin(), disk_bytes.end(),
                  [&](uint64_t b) { return b == disk_bytes.front(); });
  std::printf("\n  telemetry overhead (append+seal, median of %d interleaved off/on pairs):\n"
              "  off %.3fs, on %.3fs (median paired overhead %+.2f%%)\n",
              ab.pairs, ab.off_s, ab.on_s, ab.median_pct);
  std::printf("  disk bytes identical across all %zu runs: %s (%llu bytes)\n", disk_bytes.size(),
              disk_identical ? "yes" : "NO (BUG)",
              static_cast<unsigned long long>(disk_bytes.front()));
  json.Add("telemetry_overhead_pct", ab.median_pct, "%");
  json.Add("telemetry_overhead_pairs", ab.pairs, "count");
  json.Add("telemetry_disk_identical", disk_identical ? 1 : 0, "bool");

  fs::remove_all(base + "-raw");
  fs::remove_all(base + "-lzss");
  fs::remove_all(base + "-obs");
}

}  // namespace
}  // namespace avm

int main() {
  avm::PrintHeader("Log store I/O: durable segments for the Figure 3 log",
                   "log grows ~MB/min and compresses well (§6.4); the store must keep up");
  avm::PrintScaleNote();
  avm::Run();
  return 0;
}
