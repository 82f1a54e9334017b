#include "src/util/threadpool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "src/audit/auditor.h"
#include "src/sim/scenario.h"

namespace avm {
namespace {

TEST(ThreadPoolTest, ResolveThreadsZeroMeansHardware) {
  EXPECT_GE(ResolveThreads(0), 1u);
  EXPECT_EQ(ResolveThreads(1), 1u);
  EXPECT_EQ(ResolveThreads(7), 7u);
}

TEST(ThreadPoolTest, SingleThreadSubmitRunsInlineInOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 8; i++) {
    pool.Submit([&order, i] { order.push_back(i); });
    // Inline execution: the task already ran when Submit returned.
    ASSERT_EQ(order.size(), static_cast<size_t>(i + 1));
  }
  pool.Wait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ThreadPoolTest, SingleThreadParallelForIsTheSequentialLoop) {
  ThreadPool pool(1);
  std::vector<size_t> order;
  pool.ParallelFor(16, [&](size_t i) { order.push_back(i); });
  std::vector<size_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { hits[i]++; });
  for (size_t i = 0; i < kN; i++) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SubmitWaitCompletesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; i++) {
    pool.Submit([&done] { done++; });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPoolTest, ParallelForRethrowsSmallestIndexException) {
  for (unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    try {
      pool.ParallelFor(100, [](size_t i) {
        if (i == 17 || i == 63) {
          throw std::runtime_error("boom at " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 17");
    }
    // The pool stays usable after an exception.
    std::atomic<int> ok{0};
    pool.ParallelFor(10, [&](size_t) { ok++; });
    EXPECT_EQ(ok.load(), 10);
  }
}

TEST(ThreadPoolTest, WaitRethrowsEarliestSubmittedException) {
  for (unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    for (int i = 0; i < 20; i++) {
      pool.Submit([i] {
        if (i == 5 || i == 12) {
          throw std::runtime_error("task " + std::to_string(i));
        }
      });
    }
    try {
      pool.Wait();
      FAIL() << "expected an exception (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 5");
    }
    // The error is consumed: a second Wait is clean.
    pool.Wait();
  }
}

// The determinism contract: a parallel audit must return verdicts
// identical to the sequential (threads=1) audit of the same log — for
// full audits and spot checks.
class ParallelAuditParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // RSA-768 signing (the default run config) so the parallel signature
    // path does real work; dense snapshots give several spot-check windows.
    KvScenarioConfig cfg;
    cfg.seed = 21;
    cfg.snapshot_interval = kMicrosPerSecond;
    cfg.client.op_period_us = 5 * kMicrosPerMilli;
    kv_ = std::make_unique<KvScenario>(cfg);
    kv_->Start();
    kv_->RunFor(4 * kMicrosPerSecond);
    kv_->Finish();
    auths_ = kv_->CollectAuthsForServer();
  }

  Auditor MakeAuditor(unsigned threads) {
    AuditConfig acfg;
    acfg.threads = threads;
    return Auditor("client", &kv_->registry(), acfg);
  }

  std::unique_ptr<KvScenario> kv_;
  std::vector<Authenticator> auths_;
};

void ExpectSameOutcome(const AuditOutcome& seq, const AuditOutcome& par) {
  EXPECT_EQ(seq.ok, par.ok);
  EXPECT_EQ(seq.syntactic.ok, par.syntactic.ok);
  EXPECT_EQ(seq.syntactic.reason, par.syntactic.reason);
  EXPECT_EQ(seq.syntactic.bad_seq, par.syntactic.bad_seq);
  EXPECT_EQ(seq.semantic.ok, par.semantic.ok);
  EXPECT_EQ(seq.semantic.reason, par.semantic.reason);
  EXPECT_EQ(seq.semantic.diverged_seq, par.semantic.diverged_seq);
  EXPECT_EQ(seq.log_bytes, par.log_bytes);
  EXPECT_EQ(seq.Describe(), par.Describe());
}

TEST_F(ParallelAuditParityTest, FullAuditVerdictsMatchSequential) {
  InMemorySegmentSource source(kv_->server().log());
  AuditOutcome seq =
      MakeAuditor(1).AuditFull(kv_->server(), source, kv_->reference_server_image(), auths_);
  AuditOutcome par =
      MakeAuditor(4).AuditFull(kv_->server(), source, kv_->reference_server_image(), auths_);
  EXPECT_TRUE(seq.ok) << seq.Describe();
  ExpectSameOutcome(seq, par);
}

TEST_F(ParallelAuditParityTest, SpotCheckManyVerdictsMatchSequential) {
  std::vector<SnapshotIndexEntry> snaps = IndexSnapshots(kv_->server().log());
  ASSERT_GE(snaps.size(), 3u);
  std::vector<std::pair<uint64_t, uint64_t>> windows;
  for (size_t i = 0; i + 1 < snaps.size(); i++) {
    windows.emplace_back(snaps[i].meta.snapshot_id, snaps[i + 1].meta.snapshot_id);
  }
  Auditor sequential = MakeAuditor(1);
  Auditor parallel = MakeAuditor(4);
  InMemorySegmentSource source(kv_->server().log());
  std::vector<AuditOutcome> seq = sequential.SpotCheckMany(kv_->server(), source, windows, auths_);
  std::vector<AuditOutcome> par = parallel.SpotCheckMany(kv_->server(), source, windows, auths_);
  ASSERT_EQ(seq.size(), windows.size());
  ASSERT_EQ(par.size(), windows.size());
  for (size_t i = 0; i < windows.size(); i++) {
    EXPECT_TRUE(seq[i].ok) << "window " << i << ": " << seq[i].Describe();
    ExpectSameOutcome(seq[i], par[i]);
  }
}

TEST_F(ParallelAuditParityTest, TamperedLogFailsTheWholeSegmentCheck) {
  // Corrupt one mid-log entry: the whole-segment check that evidence
  // verification uses must reject it. (The audit engine's verdicts on
  // tampered logs are compared across thread counts in
  // pipeline_audit_test.)
  LogSegment seg = kv_->server().log().Extract(1, kv_->server().log().LastSeq());
  ASSERT_GT(seg.entries.size(), 10u);
  const size_t victim = seg.entries.size() / 2;
  seg.entries[victim].content.push_back(0x5a);

  CheckResult seq = VerifyAgainstAuthenticators(seg, auths_, kv_->registry());
  EXPECT_FALSE(seq.ok);
  EXPECT_EQ(seq.reason, "hash chain broken");
  EXPECT_EQ(seq.bad_seq, seg.entries[victim].seq);
}

}  // namespace
}  // namespace avm
