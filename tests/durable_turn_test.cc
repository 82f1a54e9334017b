// The turn barrier of durable recording (RunConfig::durable_commit):
// ScenarioWorld::RunFor runs every node's due forced group commit at
// one barrier per turn, on a pool when two or more are due, and inline
// on the calling thread otherwise. These tests watch the store's
// "group-commit" fault site, which every commit passes, from the
// thread that runs it:
//  - a durable kv pair overlaps the two commits of a turn on two
//    threads, with one helper thread for its two nodes;
//  - a run without durable commit, and a durable run where at most one
//    node can be due per turn, commit only on the calling thread and
//    start no thread;
//  - two commits that fail in the same turn throw the earlier node's
//    error, every time, and leave no worker behind.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/sim/scenario.h"
#include "src/store/log_store.h"

namespace fs = std::filesystem;

namespace avm {
namespace {

// Threads in this process, read from /proc (Linux).
size_t ProcessThreads() {
  return static_cast<size_t>(
      std::distance(fs::directory_iterator("/proc/self/task"), fs::directory_iterator()));
}

// ProcessThreads() once no thread is still on its way out.
size_t SettledProcessThreads() {
  size_t n = ProcessThreads();
  for (int i = 0; i < 100; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const size_t again = ProcessThreads();
    if (again == n) {
      break;
    }
    n = again;
  }
  return n;
}

// The thread count to compare against. It starts and joins one thread
// first, because a sanitizer runtime may start a thread of its own at
// the process's first thread creation.
size_t BaselineThreads() {
  std::thread([] {}).join();
  return SettledProcessThreads();
}

// One group commit as the fault hook saw it.
struct Commit {
  std::string node;
  std::thread::id thread;
};

// Every group commit of one kv pair's stores, and a switch that makes
// them fail.
struct CommitWatch {
  std::mutex mu;
  std::vector<Commit> commits;
  std::atomic<bool> fail{false};
  // Held inside each commit so that a helper thread has time to take
  // the other one of a turn.
  std::chrono::microseconds hold{0};

  std::vector<Commit> Take() {
    std::lock_guard<std::mutex> lk(mu);
    return std::exchange(commits, {});
  }
};

struct KvRunOptions {
  bool durable = true;
  bool spill_client = true;
  // Large thresholds leave only the commits the transport forces.
  bool forced_only = false;
};

// A seed-5 kv pair (no signatures) whose stores report every group
// commit to `watch`.
class WatchedKv {
 public:
  WatchedKv(const std::string& name, const KvRunOptions& o, CommitWatch* watch)
      : dir_((fs::path(::testing::TempDir()) / name).string()) {
    fs::remove_all(dir_);
    KvScenarioConfig cfg;
    cfg.run = RunConfig::AvmmNoSig();
    cfg.run.durable_commit = o.durable;
    cfg.seed = 5;
    kv_ = std::make_unique<KvScenario>(cfg);
    kv_->Start();
    std::vector<Avmm*> spilled = {&kv_->server()};
    if (o.spill_client) {
      spilled.push_back(&kv_->client());
    }
    for (Avmm* node : spilled) {
      LogStoreOptions opts;
      opts.sync = false;
      opts.sealer_threads = 0;
      opts.group_commit.max_delay_ms = 0;
      if (o.forced_only) {
        opts.group_commit.max_entries = size_t{1} << 30;
        opts.group_commit.max_bytes = size_t{1} << 40;
      }
      opts.fault_hook = [watch, id = node->id()](const StoreFaultSite& site) {
        if (std::strcmp(site.point, "group-commit") != 0) {
          return StoreFaultAction::kNone;
        }
        {
          std::lock_guard<std::mutex> lk(watch->mu);
          watch->commits.push_back({id, std::this_thread::get_id()});
        }
        std::this_thread::sleep_for(watch->hold);
        return watch->fail.load() ? StoreFaultAction::kFsyncFail : StoreFaultAction::kNone;
      };
      stores_.push_back(LogStore::Open((fs::path(dir_) / node->id()).string(), node->id(), opts));
      node->SpillTo(stores_.back().get());
      nodes_.push_back(node);
    }
  }
  ~WatchedKv() {
    for (Avmm* node : nodes_) {
      node->SpillTo(nullptr);
    }
    stores_.clear();
    kv_.reset();
    fs::remove_all(dir_);
  }

  KvScenario& kv() { return *kv_; }
  std::string StoreDir(const NodeId& id) const { return (fs::path(dir_) / id).string(); }

 private:
  std::string dir_;
  std::unique_ptr<KvScenario> kv_;
  std::vector<std::unique_ptr<LogStore>> stores_;
  std::vector<Avmm*> nodes_;
};

constexpr SimTime kTurn = 1000;  // KvScenarioConfig's default quantum.

uint64_t Forced(Avmm& node) {
  return node.transport().stats().durable_forced_flushes;
}

TEST(DurableTurn, TwoDueCommitsOverlapOnTwoThreads) {
  if (!fs::exists("/proc/self/task")) {
    GTEST_SKIP() << "counts threads through /proc/self/task";
  }
  const size_t baseline = BaselineThreads();
  CommitWatch watch;
  watch.hold = std::chrono::microseconds(300);
  KvRunOptions o;
  o.forced_only = true;
  WatchedKv run("avm_durable_turn_overlap", o, &watch);
  EXPECT_EQ(ProcessThreads(), baseline) << "construction, Start or SpillTo started a thread";

  size_t both_due = 0;
  size_t overlapped = 0;
  std::set<std::thread::id> helpers;
  for (int turn = 0; turn < 300; turn++) {
    const uint64_t server0 = Forced(run.kv().server());
    const uint64_t client0 = Forced(run.kv().client());
    run.kv().RunFor(kTurn);
    std::vector<Commit> commits = watch.Take();
    if (Forced(run.kv().server()) == server0 || Forced(run.kv().client()) == client0) {
      continue;
    }
    both_due++;
    bool server_seen = false;
    bool client_seen = false;
    std::thread::id server_thread;
    std::thread::id client_thread;
    for (const Commit& c : commits) {
      (c.node == "kvserver" ? server_seen : client_seen) = true;
      (c.node == "kvserver" ? server_thread : client_thread) = c.thread;
      if (c.thread != std::this_thread::get_id()) {
        helpers.insert(c.thread);
      }
    }
    ASSERT_TRUE(server_seen && client_seen) << "turn " << turn;
    if (server_thread != client_thread) {
      overlapped++;
    }
  }
  std::printf("%zu turns with two due commits, %zu of them on two threads\n", both_due, overlapped);
  EXPECT_GT(both_due, 50u);
  EXPECT_GT(overlapped, 0u) << "no turn ran its two forced commits on two threads";
  EXPECT_EQ(helpers.size(), 1u) << "two nodes need one helper thread";
  EXPECT_EQ(SettledProcessThreads(), baseline + 1) << "two nodes need one helper thread";
}

// Runs `o` for 300 turns and checks that every group commit ran on this
// thread and that no thread was started.
void ExpectOnlyTheCallingThreadCommits(const char* name, const KvRunOptions& o) {
  SCOPED_TRACE(name);
  const size_t baseline = BaselineThreads();
  CommitWatch watch;
  WatchedKv run(name, o, &watch);
  run.kv().RunFor(300 * kTurn);
  run.kv().Finish();
  std::vector<Commit> commits = watch.Take();
  EXPECT_FALSE(commits.empty());
  for (const Commit& c : commits) {
    EXPECT_EQ(c.thread, std::this_thread::get_id()) << c.node << " committed on another thread";
  }
  EXPECT_EQ(SettledProcessThreads(), baseline);
}

TEST(DurableTurn, WithoutDurableCommitNothingLeavesTheCallingThread) {
  if (!fs::exists("/proc/self/task")) {
    GTEST_SKIP() << "counts threads through /proc/self/task";
  }
  KvRunOptions o;
  o.durable = false;
  ExpectOnlyTheCallingThreadCommits("avm_durable_turn_off", o);
}

TEST(DurableTurn, OneDueCommitPerTurnRunsInline) {
  if (!fs::exists("/proc/self/task")) {
    GTEST_SKIP() << "counts threads through /proc/self/task";
  }
  // The client keeps no store, so its watermark is its log's tip and it
  // never waits for a commit: at most the server's is due.
  KvRunOptions o;
  o.spill_client = false;
  ExpectOnlyTheCallingThreadCommits("avm_durable_turn_one", o);
}

TEST(DurableTurn, FailedCommitsThrowTheEarlierNodesError) {
  if (!fs::exists("/proc/self/task")) {
    GTEST_SKIP() << "counts threads through /proc/self/task";
  }
  KvRunOptions o;
  o.forced_only = true;
  // A twin run finds the first turn past the warm-up in which both
  // nodes force a commit; the run is a function of its seed.
  int fail_turn = -1;
  {
    CommitWatch watch;
    WatchedKv twin("avm_durable_turn_twin", o, &watch);
    for (int turn = 0; turn < 300 && fail_turn < 0; turn++) {
      const uint64_t server0 = Forced(twin.kv().server());
      const uint64_t client0 = Forced(twin.kv().client());
      twin.kv().RunFor(kTurn);
      if (turn >= 20 && Forced(twin.kv().server()) > server0 &&
          Forced(twin.kv().client()) > client0) {
        fail_turn = turn;
      }
    }
  }
  ASSERT_GE(fail_turn, 0) << "no turn forced a commit at both nodes";

  const size_t baseline = BaselineThreads();
  for (int rep = 0; rep < 5; rep++) {
    SCOPED_TRACE("repetition " + std::to_string(rep));
    {
      CommitWatch watch;
      watch.hold = std::chrono::microseconds(200);
      WatchedKv run("avm_durable_turn_fail", o, &watch);
      run.kv().RunFor(fail_turn * kTurn);
      watch.Take();
      watch.fail = true;
      std::string what;
      try {
        run.kv().RunFor(kTurn);
      } catch (const StoreError& e) {
        what = e.what();
      }
      EXPECT_EQ(what, "injected group-commit failure in " + run.StoreDir("kvserver") +
                          "; reopen to recover");
      size_t failed_server = 0;
      size_t failed_client = 0;
      for (const Commit& c : watch.Take()) {
        (c.node == "kvserver" ? failed_server : failed_client)++;
      }
      EXPECT_EQ(failed_server, 1u);
      EXPECT_EQ(failed_client, 1u) << "the client's commit did not run in the failing turn";
    }
    EXPECT_EQ(SettledProcessThreads(), baseline) << "a worker outlived its world";
  }
}

}  // namespace
}  // namespace avm
