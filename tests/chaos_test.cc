// The chaos sweep: composed, multi-layer fault scenarios driven by one
// declarative FaultPlan, each asserting the paper's universal
// guarantee — *evidence or an honest verdict, never a silent pass* —
// while the hardened FleetAuditService retries, recovers and
// quarantines its way through the injected faults.
//
// Every scenario derives all nondeterminism from one root seed
// (parameterized; override with AVM_CHAOS_SEED=7,21,...). A failing
// assertion prints the reproducing seed via SCOPED_TRACE, and TearDown
// drops a repro file into AVM_CHAOS_ARTIFACT_DIR (default
// "chaos-artifacts") with the seed and the exact plan.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/audit/fleet.h"
#include "src/chaos/adversary.h"
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

std::string TempDir(const std::string& name) {
  std::string dir = (fs::temp_directory_path() / ("avm_chaos_" + name)).string();
  fs::remove_all(dir);
  return dir;
}

// Same verdict-equality contract as the fleet tests: everything an
// operator acts on must match bit for bit.
void ExpectSameVerdict(const AuditOutcome& a, const AuditOutcome& b, const std::string& what) {
  EXPECT_EQ(a.ok, b.ok) << what;
  EXPECT_EQ(a.syntactic.ok, b.syntactic.ok) << what;
  EXPECT_EQ(a.syntactic.reason, b.syntactic.reason) << what;
  EXPECT_EQ(a.syntactic.bad_seq, b.syntactic.bad_seq) << what;
  EXPECT_EQ(a.semantic.ok, b.semantic.ok) << what;
  EXPECT_EQ(a.semantic.reason, b.semantic.reason) << what;
  EXPECT_EQ(a.semantic.diverged_seq, b.semantic.diverged_seq) << what;
  EXPECT_EQ(a.evidence.has_value(), b.evidence.has_value()) << what;
  if (a.evidence.has_value() && b.evidence.has_value()) {
    EXPECT_EQ(static_cast<int>(a.evidence->kind), static_cast<int>(b.evidence->kind)) << what;
    EXPECT_EQ(a.evidence->accused, b.evidence->accused) << what;
  }
}

AuditConfig SeqCfg() {
  AuditConfig cfg;
  cfg.threads = 1;
  return cfg;
}

std::vector<uint64_t> ChaosSeeds() {
  std::vector<uint64_t> seeds;
  const char* env = std::getenv("AVM_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    std::string s(env);
    size_t pos = 0;
    while (pos < s.size()) {
      size_t comma = s.find(',', pos);
      if (comma == std::string::npos) {
        comma = s.size();
      }
      seeds.push_back(std::strtoull(s.substr(pos, comma - pos).c_str(), nullptr, 10));
      pos = comma + 1;
    }
  }
  if (seeds.empty()) {
    seeds.push_back(7);
  }
  return seeds;
}

class ChaosTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    std::ostringstream msg;
    msg << "chaos root seed = " << GetParam() << " (rerun: AVM_CHAOS_SEED=" << GetParam()
        << " ./chaos_test)";
    trace_.emplace(__FILE__, __LINE__, msg.str());
  }

  // Record the plan under test so a failure's artifact names the exact
  // schedule, not just the seed.
  void NotePlan(const FaultPlan& plan) { plans_ += plan.Describe() + "\n"; }

  void TearDown() override {
    trace_.reset();
    if (!HasFailure()) {
      return;
    }
    const char* env = std::getenv("AVM_CHAOS_ARTIFACT_DIR");
    fs::path dir = (env != nullptr && *env != '\0') ? fs::path(env) : fs::path("chaos-artifacts");
    std::error_code ec;
    fs::create_directories(dir, ec);
    const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string(info->test_suite_name()) + "." + info->name();
    for (char& c : name) {
      if (c == '/') {
        c = '_';
      }
    }
    std::ofstream out(dir / (name + ".repro.txt"));
    out << "test: " << info->test_suite_name() << "." << info->name() << "\n"
        << "seed: " << GetParam() << "\n"
        << "rerun: AVM_CHAOS_SEED=" << GetParam() << " ./chaos_test --gtest_filter='"
        << info->test_suite_name() << "." << info->name() << "'\n"
        << "plans:\n"
        << plans_;
  }

  uint64_t seed() const { return GetParam(); }

 private:
  std::optional<::testing::ScopedTrace> trace_;
  std::string plans_;
};

// A finished kv run teed into a LogStore whose fault hook is plan-
// driven. `crashed` reports whether the run itself died on an injected
// store fault (the tee propagates the StoreError into RunFor).
struct ChaosKvRun {
  ChaosKvRun(uint64_t seed, const std::string& dir_name, FaultInjector* injector,
             bool hook_store, SimTime duration, RunConfig run = RunConfig::AvmmNoSig()) {
    dir = TempDir(dir_name);
    KvScenarioConfig cfg;
    cfg.run = run;
    cfg.seed = seed;
    cfg.chaos = injector;
    scenario = std::make_unique<KvScenario>(cfg);
    scenario->Start();
    LogStoreOptions opts;
    opts.sync = false;
    if (hook_store && injector != nullptr) {
      opts.fault_hook = injector->StoreHook("kvserver");
    }
    store = LogStore::Open(dir, "kvserver", opts);
    scenario->server().SpillTo(store.get());
    try {
      scenario->RunFor(duration);
      scenario->Finish();
      store->Flush();
    } catch (const StoreError& e) {
      crashed = true;
      crash_what = e.what();
    }
  }
  ~ChaosKvRun() {
    if (scenario != nullptr) {
      scenario->server().SpillTo(nullptr);
    }
    store.reset();
    scenario.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  std::string dir;
  std::unique_ptr<KvScenario> scenario;
  std::unique_ptr<LogStore> store;
  bool crashed = false;
  std::string crash_what;
};

// --------------------------------------------------------------------------
// 1. store crash -> auditee serves an equivocating fork of the surviving
//    prefix (layers: store + avmm).
TEST_P(ChaosTest, CrashThenEquivocate) {
  FaultPlan plan;
  plan.seed = chaos::DeriveSeed(seed(), "crash-then-equivocate");
  FaultEvent crash;
  crash.type = FaultType::kStoreCrashPoint;
  crash.when.site = "append-write";
  crash.when.node = "kvserver";
  crash.when.from_seq = 600;  // Let a meaningful prefix accumulate first.
  crash.when.max_fires = 1;
  plan.Add(crash);
  FaultEvent fork;
  fork.type = FaultType::kAvmmEquivocate;
  fork.when.node = "kvserver";
  fork.seq = 0;  // Mid-prefix, picked by the adversary.
  plan.Add(fork);
  NotePlan(plan);
  FaultInjector injector(plan);

  ChaosKvRun run(seed(), "crash_equivocate", &injector, /*hook_store=*/true,
                 3 * kMicrosPerSecond);
  ASSERT_TRUE(run.crashed) << "the injected append crash must surface";
  EXPECT_NE(run.crash_what.find("injected crash"), std::string::npos) << run.crash_what;
  EXPECT_EQ(injector.fires(0), 1u);

  // Crash recovery: reopen the store; the surviving prefix is intact.
  run.scenario->server().SpillTo(nullptr);
  run.store.reset();
  LogStoreOptions clean;
  clean.sync = false;
  run.store = LogStore::Open(run.dir, clean);
  // The crash fired on entry 600's append, so exactly 599 survive.
  const uint64_t prefix = run.store->LastSeq();
  ASSERT_EQ(prefix, 599u);

  // An honest audit of the surviving prefix passes: peers' auths
  // filtered to the prefix plus a fresh prefix commitment (§4.3).
  std::vector<Authenticator> auths;
  for (const Authenticator& a : run.scenario->CollectAuthsForServer()) {
    if (a.seq <= prefix) {
      auths.push_back(a);
    }
  }
  auths.push_back(run.scenario->server().CommitLogAt(prefix));
  Auditor ref("auditor", &run.scenario->registry(), SeqCfg());
  AuditOutcome honest = ref.AuditFull(run.scenario->server(), *run.store,
                                      run.scenario->reference_server_image(), auths);
  EXPECT_TRUE(honest.ok) << honest.Describe();

  // The same machine now serves a self-consistent fork of that prefix.
  // The fork contradicts the issued authenticators: evidence, not a
  // silent pass.
  chaos::AdversarialSource adversary(*run.store);
  ASSERT_EQ(adversary.ApplyDue(injector, run.scenario->now()), 1u);
  AuditOutcome forked = ref.AuditFull(run.scenario->server(), adversary,
                                      run.scenario->reference_server_image(), auths);
  EXPECT_FALSE(forked.ok) << "equivocation after a crash must be caught";
  EXPECT_FALSE(forked.syntactic.ok && forked.semantic.ok);
}

// --------------------------------------------------------------------------
// 2. a mid-run partition heals, then the auditee rewinds its log while
//    the fleet's online session watches (layers: net + avmm).
TEST_P(ChaosTest, RewindMidAuditUnderPartition) {
  FaultPlan plan;
  plan.seed = chaos::DeriveSeed(seed(), "rewind-partition");
  FaultEvent part;
  part.type = FaultType::kNetPartition;
  part.a = "kvserver";
  part.b = "kvclient";
  part.when.after_us = 200 * kMicrosPerMilli;
  part.when.before_us = 500 * kMicrosPerMilli;
  plan.Add(part);
  FaultEvent rewind;
  rewind.type = FaultType::kAvmmRewind;
  rewind.when.node = "kvserver";
  rewind.seq = 0;  // Mid-log.
  plan.Add(rewind);
  NotePlan(plan);
  FaultInjector injector(plan);

  ChaosKvRun run(seed(), "rewind_partition", &injector, /*hook_store=*/false,
                 2 * kMicrosPerSecond);
  ASSERT_FALSE(run.crashed);
  EXPECT_GT(injector.fires(0), 0u) << "the partition must have dropped frames";

  // The healed run is honestly auditable despite the partition: the
  // transport retransmitted through it (§4.1 assumption 1).
  std::vector<Authenticator> auths = run.scenario->CollectAuthsForServer();
  Auditor ref("auditor", &run.scenario->registry(), SeqCfg());
  AuditOutcome clean = ref.AuditFull(run.scenario->server(), *run.store,
                                     run.scenario->reference_server_image(), auths);
  EXPECT_TRUE(clean.ok) << clean.Describe();

  // The fleet's online session is mid-audit (one poll in) when the
  // auditee rewinds the very source object it serves.
  chaos::AdversarialSource adversary(*run.store);
  FleetAuditConfig fcfg;
  fcfg.workers = 1;
  fcfg.audit = SeqCfg();
  FleetAuditService service(&run.scenario->registry(), fcfg);
  FleetAuditService::Registration reg;
  reg.node = "kv/server";
  reg.target = &run.scenario->server();
  reg.source = &adversary;
  reg.reference_image = run.scenario->reference_server_image();
  reg.auths = auths;
  service.RegisterAuditee(std::move(reg));

  uint64_t poll1 = service.SubmitOnlinePoll("kv/server");
  service.Drain();
  ASSERT_TRUE(service.Result(poll1).has_value());
  EXPECT_EQ(service.Result(poll1)->online_status, OnlinePollStatus::kAdvanced);

  const uint64_t before = adversary.LastSeq();
  ASSERT_EQ(adversary.ApplyDue(injector, run.scenario->now()), 1u);
  ASSERT_LT(adversary.LastSeq(), before);

  uint64_t poll2 = service.SubmitOnlinePoll("kv/server");
  service.Drain();
  ASSERT_TRUE(service.Result(poll2).has_value());
  EXPECT_EQ(service.Result(poll2)->online_status, OnlinePollStatus::kTargetRewound)
      << "a rewind mid-audit must surface as its own status";
  EXPECT_EQ(service.stats().targets_rewound, 1u);

  // And a full audit of the rewound log is an honest failure — the
  // issued authenticators reach past its new end.
  uint64_t full = service.SubmitFullAudit("kv/server");
  service.Drain();
  ASSERT_TRUE(service.Result(full).has_value());
  EXPECT_FALSE(service.Result(full)->outcome.ok) << "rewound log must never audit clean";
}

// --------------------------------------------------------------------------
// 3. two colluding auditees serve equivocating forks while the network
//    drops frames (layers: net + avmm + fleet).
TEST_P(ChaosTest, ColludingAuditeesUnderLoss) {
  FaultPlan plan;
  plan.seed = chaos::DeriveSeed(seed(), "colluders");
  FaultEvent drop;
  drop.type = FaultType::kNetDrop;
  drop.when.probability = 0.02;
  drop.when.before_us = 1200 * kMicrosPerMilli;  // Let Finish() settle cleanly.
  plan.Add(drop);
  for (const char* node : {"player1", "player2"}) {
    FaultEvent fork;
    fork.type = FaultType::kAvmmEquivocate;
    fork.when.node = node;
    fork.seq = 0;
    plan.Add(fork);
  }
  NotePlan(plan);
  FaultInjector injector(plan);

  FleetScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();
  cfg.num_games = 1;
  cfg.players_per_game = 2;
  cfg.num_kv = 1;
  cfg.seed = seed();
  cfg.game.client.render_iters = 300;
  cfg.chaos = &injector;
  FleetScenario fleet(cfg);
  fleet.Start();
  std::string base = TempDir("colluders");
  fleet.SpillLogsTo(base);
  fleet.RunFor(1500 * kMicrosPerMilli);
  fleet.Finish();
  EXPECT_GT(injector.fires(0), 0u) << "the lossy network must have dropped frames";

  // Both players now serve forks; the server and kv stay honest.
  std::map<NodeId, std::unique_ptr<chaos::AdversarialSource>> forks;
  for (FleetScenario::AuditeeRef& a : fleet.Auditees()) {
    if (a.local_name == "player1" || a.local_name == "player2") {
      auto fork = std::make_unique<chaos::AdversarialSource>(*a.store);
      ASSERT_EQ(fork->ApplyDue(injector, 0), 1u) << a.global_name;
      forks[a.global_name] = std::move(fork);
    }
  }
  ASSERT_EQ(forks.size(), 2u);

  FleetAuditConfig fcfg;
  fcfg.workers = 2;
  fcfg.audit = SeqCfg();
  FleetAuditService service(nullptr, fcfg);
  std::map<NodeId, uint64_t> jobs;
  for (FleetScenario::AuditeeRef& a : fleet.Auditees()) {
    FleetAuditService::Registration reg;
    reg.node = a.global_name;
    reg.target = a.avmm;
    auto it = forks.find(a.global_name);
    reg.source = it != forks.end() ? static_cast<const SegmentSource*>(it->second.get())
                                   : static_cast<const SegmentSource*>(a.store);
    reg.reference_image = *a.reference_image;
    reg.auths = a.collect_auths();
    reg.registry = a.registry;
    service.RegisterAuditee(std::move(reg));
    jobs[a.global_name] = service.SubmitFullAudit(a.global_name);
  }
  service.Drain();

  for (FleetScenario::AuditeeRef& a : fleet.Auditees()) {
    std::optional<FleetJobResult> r = service.Result(jobs[a.global_name]);
    ASSERT_TRUE(r.has_value()) << a.global_name;
    if (forks.count(a.global_name) != 0) {
      EXPECT_FALSE(r->outcome.ok) << a.global_name << ": colluders must both be caught";
    } else {
      EXPECT_TRUE(r->outcome.ok) << a.global_name << ": " << r->outcome.Describe();
    }
  }
  EXPECT_EQ(service.stats().faults_detected, 2u);
  fs::remove_all(base);
}

// --------------------------------------------------------------------------
// 4. the checkpoint save hits an injected store failure mid-audit; the
//    fleet retries, the recover callback reopens the poisoned store, and
//    the verdict lands unchanged — across sign modes (store + audit).
TEST_P(ChaosTest, StoreCrashDuringCheckpointSignModes) {
  struct ModeCase {
    const char* name;
    RunConfig run;
  };
  const ModeCase kModes[] = {
      {"sync", RunConfig::AvmmRsa768()},
      {"batched", RunConfig::AvmmRsa768Batched(8)},
  };
  for (const ModeCase& mode : kModes) {
    SCOPED_TRACE(mode.name);
    FaultPlan plan;
    plan.seed = chaos::DeriveSeed(seed(), std::string("ckpt-crash-") + mode.name);
    FaultEvent fault;
    fault.type = FaultType::kStoreFsyncFail;  // Poisons: only a reopen recovers.
    fault.when.site = "aux-write";
    fault.when.node = "kvserver";
    fault.when.max_fires = 1;
    plan.Add(fault);
    NotePlan(plan);
    FaultInjector injector(plan);

    // Clean run first; the fault arms only the audit-time store.
    ChaosKvRun run(seed(), std::string("ckpt_crash_") + mode.name, nullptr,
                   /*hook_store=*/false, 2 * kMicrosPerSecond, mode.run);
    ASSERT_FALSE(run.crashed);
    std::vector<Authenticator> auths = run.scenario->CollectAuthsForServer();

    // Reference verdict (no checkpoint writes, no faults).
    Auditor ref("auditor", &run.scenario->registry(), SeqCfg());
    AuditOutcome expect = ref.AuditFull(run.scenario->server(), *run.store,
                                        run.scenario->reference_server_image(), auths);
    ASSERT_TRUE(expect.ok) << expect.Describe();

    // Reopen the store with the fault hook armed; checkpoint captures
    // ride its batched aux path and hit the injected failure.
    run.scenario->server().SpillTo(nullptr);
    run.store.reset();
    LogStoreOptions armed;
    armed.sync = false;
    armed.fault_hook = injector.StoreHook("kvserver");
    run.store = LogStore::Open(run.dir, armed);

    std::unique_ptr<LogStore> recovered;
    FleetAuditConfig fcfg;
    fcfg.workers = 1;
    fcfg.audit = SeqCfg();
    fcfg.checkpoint.every_entries = 300;
    fcfg.retry.backoff_initial_us = 1000;  // Keep the test fast.
    FleetAuditService service(&run.scenario->registry(), fcfg);
    FleetAuditService::Registration reg;
    reg.node = "kv/server";
    reg.target = &run.scenario->server();
    reg.source = run.store.get();
    reg.reference_image = run.scenario->reference_server_image();
    reg.auths = auths;
    reg.checkpoint_dir = run.dir;
    reg.checkpoint_store = run.store.get();
    reg.recover_source = [&run, &recovered]() {
      // The poisoned-store repair: close and reopen (recovery truncates
      // nothing here — the log itself was never damaged).
      run.store.reset();
      LogStoreOptions clean;
      clean.sync = false;
      recovered = LogStore::Open(run.dir, clean);
      RecoveredSource rs;
      rs.source = recovered.get();
      rs.checkpoint_store = recovered.get();
      return rs;
    };
    service.RegisterAuditee(std::move(reg));

    uint64_t job = service.SubmitFullAudit("kv/server");
    service.Drain();
    std::optional<FleetJobResult> r = service.Result(job);
    ASSERT_TRUE(r.has_value());
    EXPECT_GE(r->attempts, 2u) << "the first attempt must have died on the store fault";
    EXPECT_FALSE(r->job_error) << r->error;
    ExpectSameVerdict(expect, r->outcome, std::string(mode.name) + "/after-recovery");
    FleetStats stats = service.stats();
    EXPECT_GE(stats.job_retries, 1u);
    EXPECT_EQ(stats.store_recoveries, 1u);
    EXPECT_EQ(stats.jobs_failed, 0u);
    EXPECT_EQ(injector.fires(0), 1u);
  }
}

// --------------------------------------------------------------------------
// 5. worker deaths on first attempts while the run's network drops
//    frames; retries converge on the reference verdicts (net + audit).
TEST_P(ChaosTest, WorkerDeathUnderNetDrop) {
  FaultPlan plan;
  plan.seed = chaos::DeriveSeed(seed(), "worker-death-drop");
  FaultEvent drop;
  drop.type = FaultType::kNetDrop;
  drop.when.probability = 0.02;
  drop.when.before_us = 1200 * kMicrosPerMilli;
  plan.Add(drop);
  FaultEvent death;
  death.type = FaultType::kAuditWorkerDeath;
  death.when.site = "full-audit";
  death.when.to_seq = 1;  // Only first attempts die.
  death.when.max_fires = 3;
  plan.Add(death);
  NotePlan(plan);
  FaultInjector injector(plan);

  FleetScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();
  cfg.num_games = 1;
  cfg.players_per_game = 2;
  cfg.num_kv = 1;
  cfg.seed = seed();
  cfg.game.client.render_iters = 300;
  cfg.chaos = &injector;
  FleetScenario fleet(cfg);
  fleet.Start();
  std::string base = TempDir("worker_death");
  fleet.SpillLogsTo(base);
  fleet.RunFor(1500 * kMicrosPerMilli);
  fleet.Finish();

  FleetAuditConfig fcfg;
  fcfg.workers = 2;
  fcfg.audit = SeqCfg();
  fcfg.checkpoint.every_entries = 300;
  fcfg.fault_hook = injector.AuditJobHook();
  fcfg.retry.backoff_initial_us = 1000;
  FleetAuditService service(nullptr, fcfg);
  std::map<NodeId, uint64_t> jobs;
  for (FleetScenario::AuditeeRef& a : fleet.Auditees()) {
    FleetAuditService::Registration reg;
    reg.node = a.global_name;
    reg.target = a.avmm;
    reg.source = a.store;
    reg.reference_image = *a.reference_image;
    reg.auths = a.collect_auths();
    reg.checkpoint_dir = a.store->dir();
    reg.registry = a.registry;
    service.RegisterAuditee(std::move(reg));
    jobs[a.global_name] = service.SubmitFullAudit(a.global_name);
  }
  service.Drain();

  unsigned retried = 0;
  for (FleetScenario::AuditeeRef& a : fleet.Auditees()) {
    std::optional<FleetJobResult> r = service.Result(jobs[a.global_name]);
    ASSERT_TRUE(r.has_value()) << a.global_name;
    EXPECT_FALSE(r->job_error) << a.global_name << ": " << r->error;
    if (r->attempts > 1) {
      retried++;
    }
    // Every verdict equals the direct single-auditee audit — worker
    // deaths and the lossy run changed nothing an auditor reports.
    Auditor direct("auditor", a.registry, SeqCfg());
    AuditOutcome expect =
        direct.AuditFull(*a.avmm, *a.store, *a.reference_image, a.collect_auths());
    ExpectSameVerdict(expect, r->outcome, a.global_name);
    EXPECT_TRUE(r->outcome.ok) << a.global_name << ": " << r->outcome.Describe();
  }
  EXPECT_EQ(retried, 3u) << "exactly the three injected deaths retry";
  EXPECT_EQ(service.stats().job_retries, 3u);
  EXPECT_EQ(service.stats().jobs_failed, 0u);
  fs::remove_all(base);
}

// --------------------------------------------------------------------------
// 6. a persistently broken store drives the auditee into quarantine; the
//    degraded verdict is explicit; repair + rehabilitation re-audits
//    true (store + audit).
TEST_P(ChaosTest, QuarantineAndRecovery) {
  FaultPlan plan;
  plan.seed = chaos::DeriveSeed(seed(), "quarantine");
  FaultEvent fault;
  fault.type = FaultType::kStoreFsyncFail;  // Poisons the store for good.
  fault.when.site = "aux-write";
  fault.when.node = "kvserver";
  fault.when.max_fires = 1;
  plan.Add(fault);
  NotePlan(plan);
  FaultInjector injector(plan);

  ChaosKvRun run(seed(), "quarantine", nullptr, /*hook_store=*/false, kMicrosPerSecond);
  ASSERT_FALSE(run.crashed);
  std::vector<Authenticator> auths = run.scenario->CollectAuthsForServer();

  run.scenario->server().SpillTo(nullptr);
  run.store.reset();
  LogStoreOptions armed;
  armed.sync = false;
  armed.fault_hook = injector.StoreHook("kvserver");
  run.store = LogStore::Open(run.dir, armed);

  FleetAuditConfig fcfg;
  fcfg.workers = 1;
  fcfg.audit = SeqCfg();
  fcfg.checkpoint.every_entries = 300;
  fcfg.retry.max_attempts = 2;
  fcfg.retry.backoff_initial_us = 1000;
  fcfg.retry.quarantine_after = 2;  // Two exhausted jobs -> quarantine.
  FleetAuditService service(&run.scenario->registry(), fcfg);
  auto register_with_store = [&](LogStore* store) {
    FleetAuditService::Registration reg;
    reg.node = "kv/server";
    reg.target = &run.scenario->server();
    reg.source = store;
    reg.reference_image = run.scenario->reference_server_image();
    reg.auths = auths;
    reg.checkpoint_dir = run.dir;
    reg.checkpoint_store = store;
    service.RegisterAuditee(std::move(reg));
  };
  register_with_store(run.store.get());

  // Jobs 1 and 2: the first checkpoint capture poisons the store; every
  // attempt after that dies in CheckWritableLocked. Both jobs exhaust
  // their attempts -> the auditee is quarantined.
  uint64_t job1 = service.SubmitFullAudit("kv/server");
  service.Drain();
  uint64_t job2 = service.SubmitFullAudit("kv/server");
  service.Drain();
  ASSERT_TRUE(service.Result(job1)->job_error);
  ASSERT_TRUE(service.Result(job2)->job_error);
  EXPECT_EQ(service.stats().quarantines, 1u);

  // Job 3 answers from quarantine: explicit degraded failure, no audit
  // runs, never a silent pass.
  uint64_t job3 = service.SubmitFullAudit("kv/server");
  service.Drain();
  std::optional<FleetJobResult> r3 = service.Result(job3);
  ASSERT_TRUE(r3.has_value());
  EXPECT_TRUE(r3->quarantined);
  EXPECT_TRUE(r3->job_error);
  EXPECT_FALSE(r3->outcome.ok);
  EXPECT_NE(r3->error.find("quarantined"), std::string::npos) << r3->error;
  EXPECT_EQ(service.stats().degraded_results, 1u);
  EXPECT_FALSE(service.stats().last_error.empty());

  // Operator repair: reopen the store cleanly, re-register, release the
  // quarantine. The recovered auditee re-audits true.
  run.store.reset();
  LogStoreOptions clean;
  clean.sync = false;
  run.store = LogStore::Open(run.dir, clean);
  register_with_store(run.store.get());
  service.Rehabilitate("kv/server");
  EXPECT_EQ(service.stats().quarantine_releases, 1u);

  uint64_t job4 = service.SubmitFullAudit("kv/server");
  service.Drain();
  std::optional<FleetJobResult> r4 = service.Result(job4);
  ASSERT_TRUE(r4.has_value());
  EXPECT_FALSE(r4->job_error) << r4->error;
  EXPECT_TRUE(r4->outcome.ok) << r4->outcome.Describe();
  EXPECT_EQ(r4->attempts, 1u);
}

// --------------------------------------------------------------------------
// 7. corrupt + duplicated + reordered frames: the signed transport
//    rejects garbage, retransmission recovers, and both honest machines
//    still audit clean (net faults composed with the full audit path).
TEST_P(ChaosTest, CorruptDuplicateReorderFrames) {
  FaultPlan plan;
  plan.seed = chaos::DeriveSeed(seed(), "frame-chaos");
  FaultEvent corrupt;
  corrupt.type = FaultType::kNetCorruptFrame;
  corrupt.when.probability = 0.03;
  corrupt.when.before_us = 800 * kMicrosPerMilli;
  plan.Add(corrupt);
  FaultEvent dup;
  dup.type = FaultType::kNetDuplicate;
  dup.when.probability = 0.1;
  dup.count = 1;
  plan.Add(dup);
  FaultEvent reorder;
  reorder.type = FaultType::kNetReorder;
  reorder.when.probability = 0.2;
  reorder.delay_us = 3000;
  plan.Add(reorder);
  NotePlan(plan);
  FaultInjector injector(plan);

  ChaosKvRun run(seed(), "frame_chaos", &injector, /*hook_store=*/false,
                 kMicrosPerSecond, RunConfig::AvmmRsa768());
  ASSERT_FALSE(run.crashed);
  EXPECT_GT(injector.injected_total(), 0u);

  std::vector<Authenticator> auths = run.scenario->CollectAuthsForServer();
  Auditor ref("auditor", &run.scenario->registry(), SeqCfg());
  AuditOutcome server = ref.AuditFull(run.scenario->server(), *run.store,
                                      run.scenario->reference_server_image(), auths);
  EXPECT_TRUE(server.ok) << "honest node must audit clean under frame chaos: "
                         << server.Describe();
}

// --------------------------------------------------------------------------
// 8. the determinism contract: an installed injector with an EMPTY plan
//    changes nothing — logs and verdicts are bit-for-bit identical to a
//    run with no injector anywhere.
TEST_P(ChaosTest, EmptyPlanBitIdentical) {
  auto audit = [](ChaosKvRun& run) {
    std::vector<Authenticator> auths = run.scenario->CollectAuthsForServer();
    Auditor ref("auditor", &run.scenario->registry(), SeqCfg());
    return ref.AuditFull(run.scenario->server(), *run.store,
                         run.scenario->reference_server_image(), auths);
  };

  ChaosKvRun bare(seed(), "empty_plan_bare", nullptr, false, kMicrosPerSecond);
  ASSERT_FALSE(bare.crashed);

  FaultPlan empty;
  empty.seed = chaos::DeriveSeed(seed(), "empty");
  FaultInjector injector(empty);
  ChaosKvRun wired(seed(), "empty_plan_wired", &injector, /*hook_store=*/true,
                   kMicrosPerSecond);
  ASSERT_FALSE(wired.crashed);

  ASSERT_EQ(bare.store->LastSeq(), wired.store->LastSeq());
  const uint64_t last = bare.store->LastSeq();
  for (uint64_t s : {uint64_t{1}, last / 2, last}) {
    EXPECT_EQ(bare.store->HashAt(s), wired.store->HashAt(s)) << "seq " << s;
  }
  ExpectSameVerdict(audit(bare), audit(wired), "empty-plan");
  EXPECT_EQ(injector.injected_total(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest, ::testing::ValuesIn(ChaosSeeds()),
                         [](const ::testing::TestParamInfo<uint64_t>& tpi) {
                           return "seed" + std::to_string(tpi.param);
                         });

}  // namespace
}  // namespace avm
