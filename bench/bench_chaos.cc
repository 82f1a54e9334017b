// Chaos bench: what the injected faults *cost* the hardened audit
// service, in numbers the robustness story can cite.
//
// Two measurements:
//   (a) throughput degradation — the same fleet of auditees is fully
//       audited twice, once clean and once under an audit-seam fault
//       plan (worker deaths on first attempts + slow-peer stalls); the
//       retry machinery must converge on identical verdicts, and the
//       entries/s delta is the price of the chaos;
//   (b) recovery time — one auditee's store is poisoned at the first
//       checkpoint capture (injected fsync failure); the job wall time
//       including retry + recover_source reopen, against the same job
//       on a healthy store, is the cost of one self-healing cycle.
//
// Everything derives from one root seed (kSeed), so a surprising
// number reproduces exactly.
#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "src/audit/checkpoint.h"
#include "src/audit/fleet.h"
#include "src/chaos/fault_plan.h"
#include "src/sim/scenario.h"
#include "src/store/log_store.h"

namespace avm {
namespace {

namespace fs = std::filesystem;
using chaos::FaultEvent;
using chaos::FaultInjector;
using chaos::FaultPlan;
using chaos::FaultType;

constexpr uint64_t kSeed = 84;

// Registers every auditee of `fleet` with `service` and runs one full
// audit of each; returns the wall seconds and reports verdict health.
double AuditAll(FleetScenario& fleet, FleetAuditService& service, unsigned* verdicts_ok,
                unsigned* jobs_failed) {
  std::map<NodeId, uint64_t> jobs;
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
    jobs[a.global_name] = service.SubmitFullAudit(a.global_name);
  }
  service.Drain();
  double wall = t.ElapsedSeconds();
  *verdicts_ok = 0;
  *jobs_failed = 0;
  for (const auto& [node, id] : jobs) {
    std::optional<FleetJobResult> r = service.Result(id);
    if (r.has_value() && !r->job_error && r->outcome.ok) {
      (*verdicts_ok)++;
    }
    if (r.has_value() && r->job_error) {
      (*jobs_failed)++;
    }
  }
  return wall;
}

// (a) Clean vs chaos-ridden fleet audit of the same finished run.
void RunThroughputDegradation(BenchJson& json) {
  FleetScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();  // Replay-dominated, like §6.6.
  cfg.num_games = 1;
  cfg.players_per_game = 2;
  cfg.num_kv = 1;
  cfg.seed = kSeed;
  cfg.game.client.render_iters = 300;
  FleetScenario fleet(cfg);
  fleet.Start();
  std::string base = (fs::temp_directory_path() / "avm_bench_chaos_fleet").string();
  fs::remove_all(base);
  fleet.SpillLogsTo(base);
  fleet.RunFor(2 * kMicrosPerSecond);
  fleet.Finish();
  const size_t auditees = fleet.Auditees().size();

  AuditConfig acfg;
  acfg.threads = 1;

  // Baseline: no injector anywhere.
  FleetAuditConfig clean_cfg;
  clean_cfg.workers = 2;
  clean_cfg.audit = acfg;
  FleetAuditService clean(nullptr, clean_cfg);
  unsigned clean_ok = 0, clean_failed = 0;
  double clean_wall = AuditAll(fleet, clean, &clean_ok, &clean_failed);
  const uint64_t entries = clean.stats().entries_scanned;
  double clean_rate = static_cast<double>(entries) / std::max(clean_wall, 1e-9);

  // Chaos: every job's first attempt stalls (slow peer), and two first
  // attempts die outright; the retry policy must absorb all of it.
  FaultPlan plan;
  plan.seed = chaos::DeriveSeed(kSeed, "bench-degradation");
  FaultEvent stall;
  stall.type = FaultType::kAuditSlowPeer;
  stall.when.site = "full-audit";
  stall.when.to_seq = 1;  // First attempts only.
  stall.delay_us = 200 * kMicrosPerMilli;
  plan.Add(stall);
  FaultEvent death;
  death.type = FaultType::kAuditWorkerDeath;
  death.when.site = "full-audit";
  death.when.to_seq = 1;
  death.when.max_fires = 2;
  plan.Add(death);
  FaultInjector injector(plan);

  FleetAuditConfig chaos_cfg;
  chaos_cfg.workers = 2;
  chaos_cfg.audit = acfg;
  chaos_cfg.fault_hook = injector.AuditJobHook();
  chaos_cfg.retry.backoff_initial_us = 2000;
  FleetAuditService chaotic(nullptr, chaos_cfg);
  unsigned chaos_ok = 0, chaos_failed = 0;
  double chaos_wall = AuditAll(fleet, chaotic, &chaos_ok, &chaos_failed);
  double chaos_rate =
      static_cast<double>(chaotic.stats().entries_scanned) / std::max(chaos_wall, 1e-9);
  double degradation_pct = clean_rate <= 0 ? 0 : 100.0 * (1.0 - chaos_rate / clean_rate);

  PrintRule();
  std::printf("  throughput under audit-seam chaos: %zu auditees, root seed %llu\n", auditees,
              static_cast<unsigned long long>(kSeed));
  std::printf("  plan: %s\n", plan.Describe().c_str());
  std::printf("  %-26s %10s %14s %8s %8s\n", "run", "wall s", "entries/s", "ok", "failed");
  std::printf("  %-26s %10.3f %14.0f %8u %8u\n", "clean", clean_wall, clean_rate, clean_ok,
              clean_failed);
  std::printf("  %-26s %10.3f %14.0f %8u %8u   (%llu retries, %llu faults injected)\n",
              "chaos (stalls + deaths)", chaos_wall, chaos_rate, chaos_ok, chaos_failed,
              static_cast<unsigned long long>(chaotic.stats().job_retries),
              static_cast<unsigned long long>(injector.injected_total()));
  std::printf("  degradation: %.1f%%; all verdicts survive: %s\n", degradation_pct,
              (chaos_ok == clean_ok && chaos_failed == 0) ? "yes" : "NO (BUG)");

  json.Add("auditees", static_cast<double>(auditees), "nodes");
  json.Add("clean_entries_per_s", clean_rate, "entries/s");
  json.Add("chaos_entries_per_s", chaos_rate, "entries/s");
  json.Add("throughput_degradation", degradation_pct, "%");
  json.Add("chaos_job_retries", static_cast<double>(chaotic.stats().job_retries), "retries");
  json.Add("chaos_jobs_failed", static_cast<double>(chaos_failed), "jobs");
  json.Add("verdicts_survive_chaos", (chaos_ok == clean_ok && chaos_failed == 0) ? 1 : 0,
           "bool");
  fs::remove_all(base);
}

// (b) Wall time of one self-healing cycle: poisoned store -> failed
// attempt -> backoff -> recover_source reopen -> clean verdict.
void RunRecoveryTime(BenchJson& json) {
  KvScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();
  cfg.seed = kSeed;
  KvScenario kv(cfg);
  kv.Start();
  std::string dir = (fs::temp_directory_path() / "avm_bench_chaos_recover").string();
  fs::remove_all(dir);
  LogStoreOptions opts;
  opts.sync = false;
  auto store = LogStore::Open(dir, "kvserver", opts);
  kv.server().SpillTo(store.get());
  kv.RunFor(2 * kMicrosPerSecond);
  kv.Finish();
  kv.server().SpillTo(nullptr);
  store->Flush();
  std::vector<Authenticator> auths = kv.CollectAuthsForServer();

  AuditConfig acfg;
  acfg.mem_size = cfg.run.mem_size;
  acfg.threads = 1;

  auto run_job = [&](FleetAuditService& service, LogStore* src, LogStore* ckpt_store,
                     std::function<RecoveredSource()> recover) {
    FleetAuditService::Registration reg;
    reg.node = "kv/server";
    reg.target = &kv.server();
    reg.source = src;
    reg.reference_image = kv.reference_server_image();
    reg.auths = auths;
    reg.checkpoint_dir = dir;
    reg.checkpoint_store = ckpt_store;
    reg.recover_source = std::move(recover);
    service.RegisterAuditee(std::move(reg));
    WallTimer t;
    uint64_t job = service.SubmitFullAudit("kv/server");
    service.Drain();
    double wall = t.ElapsedSeconds();
    std::optional<FleetJobResult> r = service.Result(job);
    if (!r.has_value() || r->job_error || !r->outcome.ok) {
      std::fprintf(stderr, "  UNEXPECTED JOB FAILURE: %s\n",
                   r.has_value() ? r->error.c_str() : "no result");
    }
    return std::make_pair(wall, r);
  };

  // Healthy-store reference job (checkpoints on, no faults). Remove the
  // planted checkpoint afterwards so both jobs audit from genesis.
  FleetAuditConfig hcfg;
  hcfg.workers = 1;
  hcfg.audit = acfg;
  hcfg.checkpoint.every_entries = 300;
  FleetAuditService healthy(&kv.registry(), hcfg);
  auto [healthy_s, healthy_r] = run_job(healthy, store.get(), store.get(), nullptr);
  fs::remove(fs::path(dir) / AuditCheckpointFileName(hcfg.auditor));

  // Poisoned store: the first checkpoint capture hits an injected fsync
  // failure, which poisons the store until recover_source reopens it.
  store.reset();
  FaultPlan plan;
  plan.seed = chaos::DeriveSeed(kSeed, "bench-recovery");
  FaultEvent poison;
  poison.type = FaultType::kStoreFsyncFail;
  poison.when.site = "aux-write";
  poison.when.node = "kvserver";
  poison.when.max_fires = 1;
  plan.Add(poison);
  FaultInjector injector(plan);
  LogStoreOptions armed;
  armed.sync = false;
  armed.fault_hook = injector.StoreHook("kvserver");
  store = LogStore::Open(dir, armed);

  std::unique_ptr<LogStore> recovered;
  FleetAuditConfig fcfg;
  fcfg.workers = 1;
  fcfg.audit = acfg;
  fcfg.checkpoint.every_entries = 300;
  fcfg.retry.backoff_initial_us = 2000;
  FleetAuditService service(&kv.registry(), fcfg);
  auto [faulted_s, faulted_r] = run_job(service, store.get(), store.get(), [&]() {
    store.reset();
    LogStoreOptions clean;
    clean.sync = false;
    recovered = LogStore::Open(dir, clean);
    RecoveredSource rs;
    rs.source = recovered.get();
    rs.checkpoint_store = recovered.get();
    return rs;
  });
  double overhead_s = faulted_s - healthy_s;
  FleetStats stats = service.stats();

  std::printf("\n");
  PrintRule();
  std::printf("  self-healing cycle: injected fsync failure at the first checkpoint capture\n");
  std::printf("  plan: %s\n", plan.Describe().c_str());
  std::printf("  %-34s %10s %10s\n", "job", "wall s", "attempts");
  std::printf("  %-34s %10.3f %10llu\n", "healthy store", healthy_s,
              static_cast<unsigned long long>(healthy_r ? healthy_r->attempts : 0));
  std::printf("  %-34s %10.3f %10llu\n", "poisoned store + self-heal", faulted_s,
              static_cast<unsigned long long>(faulted_r ? faulted_r->attempts : 0));
  std::printf("  recovery overhead: %.3f s (%llu retry, %llu store reopen)\n", overhead_s,
              static_cast<unsigned long long>(stats.job_retries),
              static_cast<unsigned long long>(stats.store_recoveries));

  json.Add("healthy_job_s", healthy_s, "s");
  json.Add("recovered_job_s", faulted_s, "s");
  json.Add("recovery_overhead_s", overhead_s, "s");
  json.Add("recovery_attempts",
           static_cast<double>(faulted_r ? faulted_r->attempts : 0), "attempts");
  json.Add("store_recoveries", static_cast<double>(stats.store_recoveries), "reopens");
  json.Add("recovered_verdict_ok",
           (faulted_r && !faulted_r->job_error && faulted_r->outcome.ok) ? 1 : 0, "bool");
  store.reset();
  recovered.reset();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace avm

int main() {
  avm::PrintHeader("Chaos engine: audit throughput under faults + self-healing cost",
                   "every composed fault ends in evidence or an honest verdict (§2.2)");
  avm::PrintScaleNote();
  avm::obs::SetEnabled(true);
  avm::obs::ResetTrace();
  avm::BenchJson json("chaos");
  json.EmbedObsSnapshot();
  avm::RunThroughputDegradation(json);
  avm::RunRecoveryTime(json);
  return 0;
}
