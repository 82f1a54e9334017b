// §6.11 / §8: the audit service — checkpointed re-audits and fleet
// sharding.
//
// Paper: one auditor follows many accountable machines over long
// uptimes; §6.11 measures how far auditing lags the execution. The two
// levers this bench quantifies are (a) the audit *checkpoint*: a
// re-audit resumes from the last verified watermark instead of
// replaying from genesis, and (b) *sharding*: independent auditees'
// audits fan out across the service's workers.
#include <algorithm>
#include <filesystem>
#include <map>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/audit/checkpoint.h"
#include "src/audit/fleet.h"
#include "src/obs/export.h"
#include "src/sim/scenario.h"
#include "src/store/log_store.h"

namespace avm {
namespace {

namespace fs = std::filesystem;

// Cold vs checkpoint-resumed full audit of one long-lived kv server.
// The checkpoint is planted at >= 50% of the log (the ISSUE's target),
// so the resumed audit reads and replays at most half the history.
void RunColdVsResumed(BenchJson& json) {
  KvScenarioConfig cfg;
  cfg.run = RunConfig::AvmmRsa768();
  cfg.seed = 611;
  cfg.client.op_period_us = 4 * kMicrosPerMilli;
  KvScenario kv(cfg);
  kv.Start();
  std::string dir = (fs::temp_directory_path() / "avm_bench_fleet_ckpt").string();
  fs::remove_all(dir);
  LogStoreOptions opts;
  opts.seal_threshold_bytes = 128 * 1024;
  opts.sync = false;
  auto store = LogStore::Open(dir, "kvserver", opts);
  kv.server().SpillTo(store.get());
  kv.RunFor(15 * kMicrosPerSecond);
  kv.Finish();
  kv.server().log().SetSink(nullptr);
  store->Seal();
  std::vector<Authenticator> auths = kv.CollectAuthsForServer();
  const uint64_t last = store->LastSeq();

  AuditConfig acfg;
  acfg.mem_size = cfg.run.mem_size;
  acfg.threads = 1;
  // One capture at ~60% of the log (2*cadence > last, so exactly one).
  CheckpointConfig ck;
  ck.every_entries = last * 6 / 10;
  Auditor auditor("auditor", &kv.registry(), acfg, ck);

  // Cold: no checkpoint on disk; this run verifies from genesis and
  // plants the watermark.
  ResumeInfo cold_info;
  AuditOutcome cold;
  double cold_s = obs::TimeSection("bench.cold_audit", [&] {
    cold = auditor.AuditFull(kv.server(), *store, kv.reference_server_image(), auths, dir,
                             &cold_info);
  });

  // Resumed: same audit again, now from the watermark.
  ResumeInfo res_info;
  AuditOutcome resumed;
  double resumed_s = obs::TimeSection("bench.resumed_audit", [&] {
    resumed = auditor.AuditFull(kv.server(), *store, kv.reference_server_image(), auths, dir,
                                &res_info);
  });

  bool verdicts_same = cold.ok == resumed.ok &&
                       cold.syntactic.reason == resumed.syntactic.reason &&
                       cold.semantic.reason == resumed.semantic.reason;
  double watermark_frac =
      last == 0 ? 0 : static_cast<double>(res_info.resumed_from) / static_cast<double>(last);
  uint64_t ckpt_bytes = 0;
  if (auto raw = LogStore::ReadAuxFile(
          (fs::path(dir) / AuditCheckpointFileName("auditor")).string())) {
    ckpt_bytes = raw->size();
  }

  PrintRule();
  std::printf("  checkpointed re-audit: kv server, %llu log entries, %.0f sim s\n",
              static_cast<unsigned long long>(last),
              static_cast<double>(kv.now()) / kMicrosPerSecond);
  std::printf("  %-34s %10s %14s\n", "audit", "wall s", "entries read");
  std::printf("  %-34s %10.3f %14llu\n", "cold (from genesis)", cold_s,
              static_cast<unsigned long long>(cold_info.entries_scanned));
  std::printf("  %-34s %10.3f %14llu\n", "resumed (from checkpoint)", resumed_s,
              static_cast<unsigned long long>(res_info.entries_scanned));
  std::printf("  watermark at %.0f%% of the log; checkpoint file %.1f KB\n",
              100.0 * watermark_frac, ckpt_bytes / 1024.0);
  std::printf("  resumed speedup: %.2fx; verdicts identical: %s\n",
              cold_s / std::max(resumed_s, 1e-9), verdicts_same ? "yes" : "NO (BUG)");

  json.Add("log_entries", static_cast<double>(last), "entries");
  json.Add("cold_audit_s", cold_s, "s");
  json.Add("resumed_audit_s", resumed_s, "s");
  json.Add("resume_speedup", cold_s / std::max(resumed_s, 1e-9), "x");
  json.Add("resume_watermark_fraction", watermark_frac, "ratio");
  json.Add("checkpoint_bytes", static_cast<double>(ckpt_bytes), "B");
  json.Add("verdicts_identical", verdicts_same ? 1 : 0, "bool");
  fs::remove_all(dir);
}

// Audited entries/second as the fleet service's worker count grows:
// K game worlds + M kv stores, one full audit per auditee, stateless
// (checkpoints off) so the sweep isolates sharding.
void RunShardSweep(BenchJson& json) {
  FleetScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();  // Replay-dominated: the §6.6 shape.
  cfg.num_games = 2;
  cfg.players_per_game = 2;
  cfg.num_kv = 2;
  cfg.seed = 611;
  cfg.game.client.render_iters = 500;
  FleetScenario fleet(cfg);
  fleet.Start();
  std::string base = (fs::temp_directory_path() / "avm_bench_fleet_shard").string();
  fs::remove_all(base);
  fleet.SpillLogsTo(base);
  fleet.RunFor(4 * kMicrosPerSecond);
  fleet.Finish();

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("\n");
  PrintRule();
  std::printf("  fleet shard sweep: %d auditees (2 games x 3 nodes + 2 kv), full audits\n",
              cfg.num_games * (1 + cfg.players_per_game) + cfg.num_kv);
  std::printf("  %-10s %10s %16s %10s\n", "workers", "wall s", "entries/s", "faults");

  double base_rate = 0;
  for (unsigned workers : {1u, 2u, 4u}) {
    if (workers > 1 && workers > hw) {
      continue;
    }
    FleetAuditConfig fcfg;
    fcfg.workers = workers;
    fcfg.audit.mem_size = cfg.run.mem_size;
    fcfg.audit.threads = 1;
    fcfg.checkpoint.every_entries = 0;
    FleetAuditService service(nullptr, fcfg);
    for (FleetScenario::AuditeeRef& a : fleet.Auditees()) {
      FleetAuditService::Registration reg;
      reg.node = a.global_name;
      reg.target = a.avmm;
      reg.source = a.store;
      reg.reference_image = *a.reference_image;
      reg.auths = a.collect_auths();
      reg.registry = a.registry;
      service.RegisterAuditee(std::move(reg));
    }
    WallTimer t;
    for (FleetScenario::AuditeeRef& a : fleet.Auditees()) {
      service.SubmitFullAudit(a.global_name);
    }
    service.Drain();
    double wall = t.ElapsedSeconds();
    // The fleet operator's scrape surface: Prometheus text, a metrics
    // snapshot, and a Perfetto-loadable Chrome trace of this run's
    // spans. Overwritten per sweep point; the last (largest) run wins.
    std::string export_err;
    if (!obs::WritePrometheus("OBS_fleet_audit.prom", &export_err) ||
        !obs::WriteSnapshotJson("OBS_fleet_audit.snapshot.json", &export_err) ||
        !obs::WriteChromeTrace("OBS_fleet_audit.trace.json", &export_err)) {
      std::fprintf(stderr, "  OBS EXPORT FAILED: %s\n", export_err.c_str());
    }
    FleetStats stats = service.stats();
    double rate = static_cast<double>(stats.entries_scanned) / std::max(wall, 1e-9);
    if (workers == 1) {
      base_rate = rate;
      std::printf("  %-10u %10.3f %16.0f %10llu\n", workers, wall, rate,
                  static_cast<unsigned long long>(stats.faults_detected));
    } else {
      std::printf("  %-10u %10.3f %16.0f %10llu   (%.2fx vs workers=1)\n", workers, wall, rate,
                  static_cast<unsigned long long>(stats.faults_detected), rate / base_rate);
    }
    json.Add("entries_per_s_workers_" + std::to_string(workers), rate, "entries/s");
  }
  std::printf("  obs: %.3f s in fleet.service spans across %llu jobs; exported\n"
              "  OBS_fleet_audit.{prom,snapshot.json,trace.json}\n",
              obs::PhaseSeconds(obs::kPhaseFleetService),
              static_cast<unsigned long long>(obs::PhaseCount(obs::kPhaseFleetService)));
  fs::remove_all(base);
}

}  // namespace
}  // namespace avm

int main() {
  avm::PrintHeader("Audit service: checkpointed re-audits + fleet sharding (§6.11/§8)",
                   "one auditor follows many machines; audit lag is the §6.11 metric");
  avm::PrintScaleNote();
  avm::obs::SetEnabled(true);
  avm::obs::ResetTrace();
  avm::BenchJson json("fleet_audit");
  json.EmbedObsSnapshot();
  avm::RunColdVsResumed(json);
  avm::RunShardSweep(json);
  return 0;
}
