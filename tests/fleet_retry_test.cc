// Unit tests for the FleetAuditService self-healing policy (retry,
// exponential backoff, per-job timeout, quarantine) on a virtual clock:
// the schedule is asserted exactly, not statistically. The composed
// end-to-end behavior (real injected store faults, recovery via store
// reopen) lives in chaos_test.cc; here each policy knob is isolated
// with the plain fault_hook seam.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/audit/fleet.h"
#include "src/sim/scenario.h"
#include "src/tel/segment_source.h"

namespace avm {
namespace {

AuditConfig SeqCfg() {
  AuditConfig cfg;
  cfg.threads = 1;
  return cfg;
}

// One short, honest kv run whose server the tests audit in memory.
class FleetRetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    KvScenarioConfig cfg;
    cfg.run = RunConfig::AvmmNoSig();
    cfg.seed = 11;
    scenario_ = std::make_unique<KvScenario>(cfg);
    scenario_->Start();
    scenario_->RunFor(300 * kMicrosPerMilli);
    scenario_->Finish();
    source_.emplace(scenario_->server().log());
    auths_ = scenario_->CollectAuthsForServer();
  }

  FleetAuditService::Registration MakeReg() {
    FleetAuditService::Registration reg;
    reg.node = "kv/server";
    reg.target = &scenario_->server();
    reg.source = &*source_;
    reg.reference_image = scenario_->reference_server_image();
    reg.auths = auths_;
    return reg;
  }

  // Virtual-clock pump: workers cannot observe vclock_ advancing, so
  // nudge time forward and Kick() until `done` (bounded; ~4s real).
  bool PumpUntil(FleetAuditService& svc, const std::function<bool()>& done) {
    for (int i = 0; i < 20000 && !done(); i++) {
      vclock_ += 5000;
      svc.Kick();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return done();
  }

  std::unique_ptr<KvScenario> scenario_;
  std::optional<InMemorySegmentSource> source_;
  std::vector<Authenticator> auths_;
  std::atomic<uint64_t> vclock_{1};
};

TEST_F(FleetRetryTest, BackoffScheduleIsExponential) {
  FleetAuditConfig fcfg;
  fcfg.workers = 1;
  fcfg.audit = SeqCfg();
  fcfg.clock = [this] { return vclock_.load(); };
  fcfg.retry.max_attempts = 4;
  fcfg.retry.backoff_initial_us = 10'000;
  fcfg.retry.backoff_multiplier = 2.0;
  fcfg.retry.backoff_max_us = 5'000'000;
  fcfg.fault_hook = [](const NodeId&, FleetJobType, unsigned) {
    FleetJobFault f;
    f.fail = true;
    f.what = "injected: always down";
    return f;
  };
  FleetAuditService service(&scenario_->registry(), fcfg);
  service.RegisterAuditee(MakeReg());

  uint64_t job = service.SubmitFullAudit("kv/server");
  ASSERT_TRUE(PumpUntil(service, [&] { return service.Result(job).has_value(); }));
  std::optional<FleetJobResult> r = service.Result(job);
  EXPECT_TRUE(r->job_error);
  EXPECT_EQ(r->attempts, 4u);
  EXPECT_NE(r->error.find("always down"), std::string::npos) << r->error;
  ASSERT_EQ(r->backoffs_us.size(), 3u);
  EXPECT_EQ(r->backoffs_us[0], 10'000u);
  EXPECT_EQ(r->backoffs_us[1], 20'000u);
  EXPECT_EQ(r->backoffs_us[2], 40'000u);
  FleetStats stats = service.stats();
  EXPECT_EQ(stats.job_retries, 3u);
  EXPECT_EQ(stats.jobs_failed, 1u);
  EXPECT_NE(stats.last_error.find("always down"), std::string::npos);
}

TEST_F(FleetRetryTest, BackoffCapsAtMax) {
  FleetAuditConfig fcfg;
  fcfg.workers = 1;
  fcfg.audit = SeqCfg();
  fcfg.clock = [this] { return vclock_.load(); };
  fcfg.retry.max_attempts = 5;
  fcfg.retry.backoff_initial_us = 10'000;
  fcfg.retry.backoff_multiplier = 10.0;
  fcfg.retry.backoff_max_us = 50'000;
  fcfg.fault_hook = [](const NodeId&, FleetJobType, unsigned) {
    FleetJobFault f;
    f.fail = true;
    return f;
  };
  FleetAuditService service(&scenario_->registry(), fcfg);
  service.RegisterAuditee(MakeReg());

  uint64_t job = service.SubmitFullAudit("kv/server");
  ASSERT_TRUE(PumpUntil(service, [&] { return service.Result(job).has_value(); }));
  std::optional<FleetJobResult> r = service.Result(job);
  EXPECT_EQ(r->attempts, 5u);
  // 10ms, then 100ms / 1s / 10s all clamped to the 50ms ceiling.
  ASSERT_EQ(r->backoffs_us.size(), 4u);
  EXPECT_EQ(r->backoffs_us[0], 10'000u);
  EXPECT_EQ(r->backoffs_us[1], 50'000u);
  EXPECT_EQ(r->backoffs_us[2], 50'000u);
  EXPECT_EQ(r->backoffs_us[3], 50'000u);
  // With no injected message the failure still carries a reason.
  EXPECT_NE(r->error.find("injected worker death"), std::string::npos) << r->error;
}

TEST_F(FleetRetryTest, QuarantineThresholdAndAutoRelease) {
  std::atomic<bool> broken{true};
  FleetAuditConfig fcfg;
  fcfg.workers = 1;
  fcfg.audit = SeqCfg();
  fcfg.clock = [this] { return vclock_.load(); };
  fcfg.retry.max_attempts = 1;  // Fail fast; quarantine is the subject.
  fcfg.retry.quarantine_after = 2;
  fcfg.retry.quarantine_release_us = 1'000'000;
  fcfg.fault_hook = [&broken](const NodeId&, FleetJobType, unsigned) {
    FleetJobFault f;
    f.fail = broken.load();
    f.what = "injected: auditee store down";
    return f;
  };
  FleetAuditService service(&scenario_->registry(), fcfg);
  service.RegisterAuditee(MakeReg());

  // Two consecutive exhausted jobs cross the threshold.
  uint64_t job1 = service.SubmitFullAudit("kv/server");
  service.Drain();
  EXPECT_EQ(service.stats().quarantines, 0u);
  uint64_t job2 = service.SubmitFullAudit("kv/server");
  service.Drain();
  EXPECT_TRUE(service.Result(job1)->job_error);
  EXPECT_TRUE(service.Result(job2)->job_error);
  EXPECT_EQ(service.stats().quarantines, 1u);

  // While quarantined: every job answers degraded, with the cause.
  uint64_t job3 = service.SubmitFullAudit("kv/server");
  service.Drain();
  std::optional<FleetJobResult> r3 = service.Result(job3);
  EXPECT_TRUE(r3->quarantined);
  EXPECT_TRUE(r3->job_error);
  EXPECT_FALSE(r3->outcome.ok);  // Degraded is a failure, never a pass.
  EXPECT_NE(r3->error.find("quarantined"), std::string::npos) << r3->error;
  EXPECT_NE(r3->error.find("auditee store down"), std::string::npos) << r3->error;
  EXPECT_EQ(service.stats().degraded_results, 1u);

  // Repair + let the quarantine window lapse: the recovered auditee
  // leaves quarantine on its own and re-audits true.
  broken = false;
  vclock_ += 2'000'000;
  uint64_t job4 = service.SubmitFullAudit("kv/server");
  ASSERT_TRUE(PumpUntil(service, [&] { return service.Result(job4).has_value(); }));
  std::optional<FleetJobResult> r4 = service.Result(job4);
  EXPECT_FALSE(r4->job_error) << r4->error;
  EXPECT_TRUE(r4->outcome.ok) << r4->outcome.Describe();
  EXPECT_EQ(service.stats().quarantine_releases, 1u);
}

TEST_F(FleetRetryTest, RehabilitateReleasesAndUnknownNodeThrows) {
  std::atomic<bool> broken{true};
  FleetAuditConfig fcfg;
  fcfg.workers = 1;
  fcfg.audit = SeqCfg();
  fcfg.clock = [this] { return vclock_.load(); };
  fcfg.retry.max_attempts = 1;
  fcfg.retry.quarantine_after = 1;
  // quarantine_release_us = 0: only Rehabilitate() releases.
  fcfg.fault_hook = [&broken](const NodeId&, FleetJobType, unsigned) {
    FleetJobFault f;
    f.fail = broken.load();
    return f;
  };
  FleetAuditService service(&scenario_->registry(), fcfg);
  service.RegisterAuditee(MakeReg());

  uint64_t job1 = service.SubmitFullAudit("kv/server");
  service.Drain();
  EXPECT_TRUE(service.Result(job1)->job_error);
  EXPECT_EQ(service.stats().quarantines, 1u);

  // Time alone never releases a manual-only quarantine.
  vclock_ += 3'600'000'000ull;
  uint64_t job2 = service.SubmitFullAudit("kv/server");
  service.Drain();
  EXPECT_TRUE(service.Result(job2)->quarantined);

  EXPECT_THROW(service.Rehabilitate("no/such/node"), std::out_of_range);

  broken = false;
  service.Rehabilitate("kv/server");
  EXPECT_EQ(service.stats().quarantine_releases, 1u);
  uint64_t job3 = service.SubmitFullAudit("kv/server");
  service.Drain();
  std::optional<FleetJobResult> r3 = service.Result(job3);
  EXPECT_FALSE(r3->job_error) << r3->error;
  EXPECT_TRUE(r3->outcome.ok) << r3->outcome.Describe();
}

// A source that dies with a non-std exception: the worker must survive
// and surface an honest error string, not crash or hang Drain().
class ThrowingSource final : public SegmentSource {
 public:
  explicit ThrowingSource(NodeId node) : node_(std::move(node)) {}
  const NodeId& node() const override { return node_; }
  uint64_t LastSeq() const override { throw 42; }
  LogSegment Extract(uint64_t, uint64_t) const override { throw 42; }
  void Scan(uint64_t, uint64_t, const EntryVisitor&) const override { throw 42; }

 private:
  NodeId node_;
};

TEST_F(FleetRetryTest, WorkerExceptionSurfacedAsFailedJob) {
  ThrowingSource bad("kvserver");
  FleetAuditConfig fcfg;
  fcfg.workers = 1;
  fcfg.audit = SeqCfg();
  fcfg.clock = [this] { return vclock_.load(); };
  fcfg.retry.max_attempts = 2;
  fcfg.retry.backoff_initial_us = 1000;
  FleetAuditService service(&scenario_->registry(), fcfg);
  FleetAuditService::Registration reg = MakeReg();
  reg.source = &bad;
  service.RegisterAuditee(std::move(reg));

  uint64_t job = service.SubmitFullAudit("kv/server");
  ASSERT_TRUE(PumpUntil(service, [&] { return service.Result(job).has_value(); }));
  std::optional<FleetJobResult> r = service.Result(job);
  EXPECT_TRUE(r->job_error);
  EXPECT_EQ(r->attempts, 2u);
  EXPECT_EQ(r->error, "unknown non-standard exception");
  EXPECT_FALSE(r->outcome.ok);
  EXPECT_NE(r->outcome.syntactic.reason.find("audit job aborted"), std::string::npos)
      << r->outcome.syntactic.reason;
  EXPECT_EQ(service.stats().last_error, "unknown non-standard exception");
  EXPECT_EQ(service.stats().jobs_failed, 1u);
}

TEST_F(FleetRetryTest, SlowPeerStallTripsTimeoutThenRetrySucceeds) {
  // Real clock: the stall and the timeout race actual wall time.
  std::atomic<unsigned> calls{0};
  FleetAuditConfig fcfg;
  fcfg.workers = 1;
  fcfg.audit = SeqCfg();
  fcfg.retry.max_attempts = 3;
  fcfg.retry.backoff_initial_us = 1000;
  fcfg.retry.job_timeout_us = 100'000;
  fcfg.fault_hook = [&calls](const NodeId&, FleetJobType, unsigned attempt) {
    calls++;
    FleetJobFault f;
    if (attempt == 1) {
      f.stall_us = 250'000;  // Slow peer: well past the 100ms timeout.
    }
    return f;
  };
  FleetAuditService service(&scenario_->registry(), fcfg);
  service.RegisterAuditee(MakeReg());

  uint64_t job = service.SubmitFullAudit("kv/server");
  service.Drain();
  std::optional<FleetJobResult> r = service.Result(job);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->job_error) << r->error;
  EXPECT_TRUE(r->outcome.ok) << r->outcome.Describe();
  EXPECT_EQ(r->attempts, 2u);
  EXPECT_GE(calls.load(), 2u);
  EXPECT_EQ(service.stats().job_retries, 1u);
  EXPECT_NE(service.stats().last_error.find("timeout"), std::string::npos)
      << service.stats().last_error;
}

}  // namespace
}  // namespace avm
