// Figure 9 + §6.12: efficiency of spot checking.
//
// Paper (MySQL + sql-bench, 75 min, snapshot every 5 min): the time to
// spot-check a k-chunk and the data transferred are roughly proportional
// to k, plus a fixed per-chunk cost for transferring memory/disk
// snapshots and decompressing. Snapshots take ~5 s; incremental disk
// snapshots are 1.9-91 MB while each memory snapshot is a full 530 MB
// dump.
//
// Here the key-value scenario records 60 simulated seconds with a
// snapshot every 5 s (12 segments, mirroring the paper's 15), then all
// k-chunks for k in {1,3,5,9,12} are audited. Chunks starting at the
// very beginning are excluded, exactly as in the paper.
#include <vector>

#include "bench/bench_common.h"
#include "src/audit/auditor.h"
#include "src/sim/scenario.h"

namespace avm {
namespace {

constexpr double kLinearR2 = 0.95;

// Fits y = a + b*k by least squares and prints the line, its R^2 and
// whether it counts as growing about linearly in k.
void PrintLinearity(const char* what, const std::vector<double>& k, const std::vector<double>& y) {
  const double n = static_cast<double>(k.size());
  if (k.size() < 3) {
    std::printf("    %-14s too few chunk sizes to fit\n", what);
    return;
  }
  double sk = 0, sy = 0, skk = 0, sky = 0;
  for (size_t i = 0; i < k.size(); i++) {
    sk += k[i];
    sy += y[i];
    skk += k[i] * k[i];
    sky += k[i] * y[i];
  }
  const double slope = (n * sky - sk * sy) / (n * skk - sk * sk);
  const double offset = (sy - slope * sk) / n;
  double ss_res = 0, ss_tot = 0;
  for (size_t i = 0; i < k.size(); i++) {
    const double fit = offset + slope * k[i];
    ss_res += (y[i] - fit) * (y[i] - fit);
    ss_tot += (y[i] - sy / n) * (y[i] - sy / n);
  }
  const double r2 = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 1.0;
  const bool linear = r2 >= kLinearR2 && slope > 0;
  std::printf("    %-14s = %6.1f%% + %5.1f%% * k   R^2 %.3f   grows ~linearly in k: %s\n", what,
              offset, slope, r2, linear ? "yes" : "NO");
}

void Run() {
  KvScenarioConfig cfg;
  cfg.run = RunConfig::AvmmRsa768();
  cfg.seed = 9;
  cfg.snapshot_interval = 5 * kMicrosPerSecond;
  cfg.client.op_period_us = 20 * kMicrosPerMilli;
  KvScenario kv(cfg);
  kv.Start();
  kv.RunFor(60 * kMicrosPerSecond);
  kv.Finish();

  std::vector<SnapshotIndexEntry> snaps = IndexSnapshots(kv.server().log());
  std::printf("  recorded %zu snapshots over %.0f simulated s\n", snaps.size(),
              static_cast<double>(kv.now()) / kMicrosPerSecond);

  // §6.12 snapshot characteristics.
  const SnapshotStore& store = kv.server().snapshot_store();
  uint64_t base = store.Get(0).meta.stored_bytes;
  uint64_t min_incr = UINT64_MAX, max_incr = 0;
  for (uint64_t id = 1; id < store.Count(); id++) {
    uint64_t b = store.Get(id).meta.stored_bytes;
    min_incr = std::min(min_incr, b);
    max_incr = std::max(max_incr, b);
  }
  std::printf("  base snapshot (full memory): %.0f KB; increments: %.1f - %.1f KB\n",
              base / 1024.0, min_incr / 1024.0, max_incr / 1024.0);
  std::printf("  (paper: full 530 MB memory dumps vs 1.9-91 MB incremental disk)\n\n");

  std::vector<Authenticator> auths = kv.CollectAuthsForServer();
  Auditor auditor("client", &kv.registry());

  // Full-audit baseline for normalization: the median of several runs,
  // because one full audit's replay time alone spreads by ~2x run to run.
  constexpr int kFullAudits = 5;
  std::vector<double> full_times;
  double full_data = 0;
  for (int i = 0; i < kFullAudits; i++) {
    AuditOutcome full = auditor.AuditFull(kv.server(), InMemorySegmentSource(kv.server().log()),
                                          kv.reference_server_image(), auths);
    if (!full.ok) {
      std::printf("  unexpected: full audit failed: %s\n", full.Describe().c_str());
      return;
    }
    full_times.push_back(full.semantic_seconds);
    full_data = static_cast<double>(full.log_bytes);
  }
  const double full_time = Median(full_times);
  std::printf("  full audit replay: median %.3f s of %d (min %.3f, max %.3f)\n\n", full_time,
              kFullAudits, *std::min_element(full_times.begin(), full_times.end()),
              *std::max_element(full_times.begin(), full_times.end()));

  std::printf("  %-4s %10s %16s %12s %18s\n", "k", "chunks", "replay time %", "data %",
              "(averages, vs full audit)");
  size_t num_segments = snaps.size() - 1;
  InMemorySegmentSource source(kv.server().log());
  std::vector<double> ks, replay_pct, data_pct;
  for (size_t k : {1u, 3u, 5u, 9u, 12u}) {
    if (k > num_segments) {
      continue;
    }
    double sum_time = 0, sum_data = 0;
    int count = 0;
    // Exclude chunks that start at the beginning of the log, as the
    // paper does (they are atypical: no snapshot transfer, less load).
    for (size_t start = 1; start + k <= num_segments; start++) {
      AuditOutcome audit = auditor.SpotCheck(kv.server(), source, snaps[start].meta.snapshot_id,
                                             snaps[start + k].meta.snapshot_id, auths);
      if (!audit.ok) {
        std::printf("  unexpected spot-check failure: %s\n", audit.Describe().c_str());
        return;
      }
      sum_time += audit.semantic_seconds;
      sum_data += static_cast<double>(audit.log_bytes + audit.snapshot_bytes);
      count++;
    }
    if (count == 0) {
      continue;
    }
    ks.push_back(static_cast<double>(k));
    replay_pct.push_back(100.0 * sum_time / count / full_time);
    data_pct.push_back(100.0 * sum_data / count / full_data);
    std::printf("  %-4zu %10d %15.1f%% %11.1f%%\n", k, count, replay_pct.back(), data_pct.back());
  }
  PrintRule();
  // The paper's shape: cost ~proportional to k plus a fixed per-chunk
  // offset, i.e. a straight line in k. Checked by a least-squares fit.
  std::printf("  shape check vs paper (least-squares line in k; linear = R^2 >= %.2f,\n",
              kLinearR2);
  std::printf("  slope > 0):\n");
  PrintLinearity("replay time %", ks, replay_pct);
  PrintLinearity("data %", ks, data_pct);
  std::printf("  (data%% can exceed 100%% for large k because spot checks transfer\n");
  std::printf("   snapshot increments the full audit does not need.)\n");
}

}  // namespace
}  // namespace avm

int main() {
  avm::PrintHeader("Figure 9 / Section 6.12: spot-checking efficiency on the KV workload",
                   "cost ~proportional to chunk size + fixed snapshot-transfer cost");
  avm::PrintScaleNote();
  avm::Run();
  return 0;
}
