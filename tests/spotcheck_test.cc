#include <gtest/gtest.h>

#include "src/audit/evidence.h"
#include "src/sim/scenario.h"

namespace avm {
namespace {

KvScenarioConfig FastKv(uint64_t seed = 5) {
  KvScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();
  cfg.seed = seed;
  cfg.snapshot_interval = 200 * kMicrosPerMilli;  // Dense snapshots for tests.
  cfg.client.op_period_us = 5 * kMicrosPerMilli;
  return cfg;
}

struct KvFixture : public ::testing::Test {
  void Run(SimTime duration, KvScenarioConfig cfg = FastKv()) {
    scenario = std::make_unique<KvScenario>(cfg);
    scenario->Start();
    scenario->RunFor(duration);
    scenario->Finish();
  }
  std::unique_ptr<KvScenario> scenario;
};

TEST_F(KvFixture, ServerProcessesRequests) {
  Run(2 * kMicrosPerSecond);
  // Client issued ~400 ops; server replied to each.
  EXPECT_GT(scenario->server().stats().guest_packets_delivered, 100u);
  EXPECT_GT(scenario->server().stats().guest_packets_sent, 100u);
  EXPECT_GT(scenario->client().stats().guest_packets_delivered, 100u);
}

TEST_F(KvFixture, PeriodicSnapshotsTaken) {
  Run(2 * kMicrosPerSecond);
  std::vector<SnapshotIndexEntry> snaps = IndexSnapshots(scenario->server().log());
  // Initial + ~10 periodic + final.
  EXPECT_GE(snaps.size(), 8u);
  // Increments shrink after the base snapshot (incremental property).
  EXPECT_GT(snaps[0].meta.incremental_pages, snaps[2].meta.incremental_pages);
}

TEST_F(KvFixture, FullAuditOfIrqDrivenServerPasses) {
  Run(2 * kMicrosPerSecond);
  std::vector<Authenticator> auths = scenario->CollectAuthsForServer();
  AuditConfig acfg;
  Auditor auditor("client", &scenario->registry(), acfg);
  AuditOutcome audit =
      auditor.AuditFull(scenario->server(), InMemorySegmentSource(scenario->server().log()),
                        scenario->reference_server_image(), auths);
  EXPECT_TRUE(audit.ok) << audit.Describe();
}

TEST_F(KvFixture, SpotCheckEveryAdjacentChunkPasses) {
  Run(3 * kMicrosPerSecond);
  std::vector<SnapshotIndexEntry> snaps = IndexSnapshots(scenario->server().log());
  ASSERT_GE(snaps.size(), 5u);
  std::vector<Authenticator> auths = scenario->CollectAuthsForServer();
  Auditor auditor("client", &scenario->registry());
  InMemorySegmentSource source(scenario->server().log());
  for (size_t i = 0; i + 1 < snaps.size(); i++) {
    AuditOutcome audit = auditor.SpotCheck(scenario->server(), source, snaps[i].meta.snapshot_id,
                                           snaps[i + 1].meta.snapshot_id, auths);
    EXPECT_TRUE(audit.ok) << "chunk " << i << ": " << audit.Describe();
  }
}

TEST_F(KvFixture, SpotCheckCostScalesWithChunkSize) {
  Run(4 * kMicrosPerSecond);
  std::vector<SnapshotIndexEntry> snaps = IndexSnapshots(scenario->server().log());
  ASSERT_GE(snaps.size(), 8u);
  std::vector<Authenticator> auths = scenario->CollectAuthsForServer();
  Auditor auditor("client", &scenario->registry());
  InMemorySegmentSource source(scenario->server().log());

  AuditOutcome small = auditor.SpotCheck(scenario->server(), source, snaps[1].meta.snapshot_id,
                                         snaps[2].meta.snapshot_id, auths);
  AuditOutcome large = auditor.SpotCheck(scenario->server(), source, snaps[1].meta.snapshot_id,
                                         snaps[6].meta.snapshot_id, auths);
  ASSERT_TRUE(small.ok);
  ASSERT_TRUE(large.ok);
  EXPECT_GT(large.semantic.instructions_replayed, 3 * small.semantic.instructions_replayed);
  EXPECT_GT(large.log_bytes, small.log_bytes);
}

TEST_F(KvFixture, SpotCheckCatchesMidRunPoke) {
  // Poke the server's KV table between snapshots 2 and 3; chunks before
  // the poke pass, the chunk containing it fails, later chunks pass
  // (the §3.5 caveat: an unchecked bad segment corrupts state silently,
  // so a spot-checker must land on the right chunk).
  KvScenarioConfig cfg = FastKv(9);
  scenario = std::make_unique<KvScenario>(cfg);
  scenario->Start();
  SimTime poke_at = 500 * kMicrosPerMilli;
  scenario->server().SetCheatHook([poke_at](Machine& m, SimTime now) {
    if (now == poke_at) {
      m.WriteMem32(kKvTableAddr, 0x1337);
    }
  });
  scenario->RunFor(2 * kMicrosPerSecond);
  scenario->Finish();

  std::vector<SnapshotIndexEntry> snaps = IndexSnapshots(scenario->server().log());
  ASSERT_GE(snaps.size(), 6u);
  std::vector<Authenticator> auths = scenario->CollectAuthsForServer();
  Auditor auditor("client", &scenario->registry());
  InMemorySegmentSource source(scenario->server().log());

  int failures = 0;
  int failed_chunk = -1;
  for (size_t i = 0; i + 1 < snaps.size(); i++) {
    AuditOutcome audit = auditor.SpotCheck(scenario->server(), source, snaps[i].meta.snapshot_id,
                                           snaps[i + 1].meta.snapshot_id, auths);
    if (!audit.ok) {
      failures++;
      failed_chunk = static_cast<int>(i);
      EXPECT_TRUE(audit.evidence.has_value());
    }
  }
  EXPECT_EQ(failures, 1);
  // The poke at t=500ms falls in the chunk between snapshots at 400 and
  // 600 ms (ids are dense from 0 at t=0... chunk index 2).
  EXPECT_EQ(failed_chunk, 2);
}

TEST_F(KvFixture, SpotCheckEvidenceVerifiesForThirdParty) {
  KvScenarioConfig cfg = FastKv(10);
  scenario = std::make_unique<KvScenario>(cfg);
  scenario->Start();
  scenario->server().SetCheatHook([](Machine& m, SimTime now) {
    if (now == 700 * kMicrosPerMilli) {
      m.WriteMem32(kKvTableAddr + 64, 0xbad);
    }
  });
  scenario->RunFor(2 * kMicrosPerSecond);
  scenario->Finish();

  std::vector<SnapshotIndexEntry> snaps = IndexSnapshots(scenario->server().log());
  std::vector<Authenticator> auths = scenario->CollectAuthsForServer();
  Auditor auditor("client", &scenario->registry());
  InMemorySegmentSource source(scenario->server().log());

  std::optional<Evidence> evidence;
  for (size_t i = 0; i + 1 < snaps.size(); i++) {
    AuditOutcome audit = auditor.SpotCheck(scenario->server(), source, snaps[i].meta.snapshot_id,
                                           snaps[i + 1].meta.snapshot_id, auths);
    if (!audit.ok) {
      evidence = audit.evidence;
      break;
    }
  }
  ASSERT_TRUE(evidence.has_value());
  // Third party verifies using only the registry + shipped snapshots.
  Evidence wire = Evidence::Deserialize(evidence->Serialize());
  EvidenceVerdict verdict =
      VerifyEvidence(wire, scenario->registry(), scenario->reference_server_image());
  EXPECT_TRUE(verdict.fault_confirmed) << verdict.detail;
}

TEST_F(KvFixture, TransferBytesGrowWithStartSnapshot) {
  Run(3 * kMicrosPerSecond);
  const SnapshotStore& store = scenario->server().snapshot_store();
  ASSERT_GE(store.Count(), 4u);
  EXPECT_LT(store.TransferBytesUpTo(1), store.TransferBytesUpTo(3));
}

}  // namespace
}  // namespace avm
