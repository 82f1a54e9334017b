// Durable logs: record a game to a LogStore, then audit from disk.
//
// The paper's log outlives the session that produced it: the machine
// keeps it until an auditor asks (§4.3), which for a long-running node
// means disk, not heap. Here player1's AVMM spills its tamper-evident
// log to a segmented store while the game runs. Afterwards an auditor
// "in a fresh process" opens the directory cold -- knowing nothing but
// the path -- triages the whole log with the streaming syntactic check,
// and spot-checks a snapshot window, all straight from the sealed
// segments. Verdicts are identical to auditing the same run (same seed)
// kept in memory.
#include <cstdio>
#include <filesystem>

#include "src/sim/scenario.h"
#include "src/store/log_store.h"

namespace fs = std::filesystem;

int main() {
  using namespace avm;
  std::string dir = (fs::temp_directory_path() / "avm_durable_audit").string();
  fs::remove_all(dir);

  // --- recording side --------------------------------------------------
  GameScenarioConfig cfg;
  cfg.run = RunConfig::AvmmRsa768();
  cfg.run.snapshot_interval = 5 * kMicrosPerSecond;  // Enables spot checks.
  cfg.num_players = 2;
  cfg.seed = 42;
  GameScenario game(cfg);
  game.Start();
  {
    auto store = LogStore::Open(dir, game.player_id(0));
    game.player(0).SpillTo(store.get());
    game.RunFor(20 * kMicrosPerSecond);
    game.Finish();
    store->Seal();
    std::printf("recorded %llu entries to %s\n",
                static_cast<unsigned long long>(store->LastSeq()), dir.c_str());
    std::printf("  %zu segments (%zu sealed), %.1f KB on disk vs %.1f KB wire size\n",
                store->SegmentCount(), store->SealedCount(), store->DiskBytes() / 1024.0,
                game.player(0).log().TotalWireSize() / 1024.0);
    game.player(0).SpillTo(nullptr);
  }  // The store closes; only the directory survives.

  // --- auditing side ---------------------------------------------------
  // A fresh auditor opens the store knowing only the directory path (the
  // node identity is read back from store.meta).
  auto store = LogStore::Open(dir);
  std::printf("\nreopened store for node '%s': %llu entries%s\n", store->node().c_str(),
              static_cast<unsigned long long>(store->LastSeq()),
              store->RecoveredTornTail() ? " (torn tail truncated)" : "");

  // The recorder serves its log from the same directory: its spilled log
  // keeps only a bounded tail in memory, and the spot check below asks
  // it to commit to an older seq.
  game.player(0).SpillTo(store.get());
  std::vector<Authenticator> auths = game.CollectAuths(store->node());
  Auditor auditor("server", &game.registry());

  // Streaming triage: chain, authenticators and message checks over the
  // whole log, one segment in memory at a time.
  CheckResult triage = StreamingSyntacticCheck(*store, auths, game.registry(), auditor.config());
  std::printf("streaming syntactic check -> %s\n", triage.ok ? "PASS" : triage.reason.c_str());
  if (!triage.ok) {
    return 1;
  }

  // Spot-check one snapshot window straight from the sealed segments.
  std::vector<SnapshotIndexEntry> snaps = IndexSnapshots(*store);
  if (snaps.size() < 2) {
    std::printf("not enough snapshots for a spot check\n");
    return 1;
  }
  size_t mid = snaps.size() / 2;
  AuditOutcome spot = auditor.SpotCheck(game.player(0), *store, snaps[mid - 1].meta.snapshot_id,
                                        snaps[mid].meta.snapshot_id, auths);
  std::printf("spot check (snapshots %llu..%llu) -> %s\n",
              static_cast<unsigned long long>(snaps[mid - 1].meta.snapshot_id),
              static_cast<unsigned long long>(snaps[mid].meta.snapshot_id),
              spot.Describe().c_str());

  // And the acceptance bar: the full store-backed audit agrees, bit for
  // bit, with auditing a sinkless twin of the same run, whose log stays
  // in memory.
  AuditOutcome disk =
      auditor.AuditFull(game.player(0), *store, game.reference_client_image(), auths);
  GameScenario twin(cfg);
  twin.Start();
  twin.RunFor(20 * kMicrosPerSecond);
  twin.Finish();
  AuditOutcome mem = Auditor("server", &twin.registry())
                         .AuditFull(twin.player(0), InMemorySegmentSource(twin.player(0).log()),
                                    twin.reference_client_image(),
                                    twin.CollectAuths(twin.player_id(0)));
  std::printf("full audit from disk -> %s (in-memory path agrees: %s)\n",
              disk.Describe().c_str(), disk.Describe() == mem.Describe() ? "yes" : "NO");

  game.player(0).SpillTo(nullptr);
  fs::remove_all(dir);
  return (spot.ok && disk.ok && disk.Describe() == mem.Describe()) ? 0 : 1;
}
