// Accountable cloud hosting with spot checks (§3.5, §6.12, §7.1).
//
// Alice rents a machine from provider Bob and runs her key-value service
// in an AVM. She cannot replay weeks of execution, so she spot-checks:
// Bob's AVMM snapshots the state every 5 simulated seconds, and Alice
// audits only selected snapshot-bounded chunks. We run once honestly and
// once with the provider silently corrupting the database mid-run; the
// spot check that covers the corrupted segment fails and yields evidence
// Alice can take to a third party (e.g. to settle an SLA dispute).
#include <cstdio>

#include "src/audit/evidence.h"
#include "src/sim/scenario.h"

namespace {

avm::KvScenarioConfig Config(uint64_t seed) {
  avm::KvScenarioConfig cfg;
  cfg.run = avm::RunConfig::AvmmRsa768();
  cfg.seed = seed;
  cfg.snapshot_interval = 5 * avm::kMicrosPerSecond;
  cfg.client.op_period_us = 20 * avm::kMicrosPerMilli;
  return cfg;
}

}  // namespace

int main() {
  using namespace avm;

  // --- honest provider -------------------------------------------------
  {
    KvScenario kv(Config(71));
    kv.Start();
    kv.RunFor(30 * kMicrosPerSecond);
    kv.Finish();

    std::vector<SnapshotIndexEntry> snaps = IndexSnapshots(kv.server().log());
    std::vector<Authenticator> auths = kv.CollectAuthsForServer();
    Auditor alice("alice", &kv.registry());
    InMemorySegmentSource source(kv.server().log());

    std::printf("honest provider: %zu snapshots, server handled %llu requests\n", snaps.size(),
                static_cast<unsigned long long>(kv.server().stats().guest_packets_delivered));
    // Alice samples a few chunks instead of replaying everything.
    for (size_t i : {1u, 3u, 4u}) {
      AuditOutcome audit = alice.SpotCheck(kv.server(), source, snaps[i].meta.snapshot_id,
                                           snaps[i + 1].meta.snapshot_id, auths);
      std::printf("  spot check segment %zu -> %s (%.0f KB log + %.0f KB snapshots, %.3fs)\n", i,
                  audit.Describe().c_str(), audit.log_bytes / 1024.0,
                  audit.snapshot_bytes / 1024.0, audit.semantic_seconds);
      if (!audit.ok) {
        return 1;
      }
    }
  }

  // --- misbehaving provider -------------------------------------------
  {
    KvScenario kv(Config(72));
    kv.Start();
    // Bob's platform flips a record in Alice's database 12s in (bit rot,
    // a break-in, or deliberate manipulation: indistinguishable, and it
    // does not matter -- the audit assigns the fault to the machine).
    kv.server().SetCheatHook([](Machine& m, SimTime now) {
      if (now == 12 * kMicrosPerSecond) {
        m.WriteMem32(kKvTableAddr + 128, 0xffffffff);
      }
    });
    kv.RunFor(30 * kMicrosPerSecond);
    kv.Finish();

    std::vector<SnapshotIndexEntry> snaps = IndexSnapshots(kv.server().log());
    std::vector<Authenticator> auths = kv.CollectAuthsForServer();
    Auditor alice("alice", &kv.registry());
    InMemorySegmentSource source(kv.server().log());

    std::printf("\nmisbehaving provider: state corrupted at t=12s\n");
    std::optional<Evidence> evidence;
    for (size_t i = 0; i + 1 < snaps.size(); i++) {
      AuditOutcome audit = alice.SpotCheck(kv.server(), source, snaps[i].meta.snapshot_id,
                                           snaps[i + 1].meta.snapshot_id, auths);
      std::printf("  spot check segment %zu -> %s\n", i, audit.Describe().c_str());
      if (!audit.ok) {
        evidence = audit.evidence;
        break;
      }
    }
    if (!evidence) {
      std::printf("corruption went undetected!\n");
      return 1;
    }
    std::printf("\nAlice ships the evidence (%zu bytes incl. snapshot increments)\n",
                evidence->Serialize().size());
    EvidenceVerdict verdict =
        VerifyEvidence(*evidence, kv.registry(), kv.reference_server_image());
    std::printf("arbitrator verdict: %s\n  -> %s\n",
                verdict.fault_confirmed ? "FAULT CONFIRMED (provider liable)" : "not confirmed",
                verdict.detail.c_str());
    return verdict.fault_confirmed ? 0 : 1;
  }
}
