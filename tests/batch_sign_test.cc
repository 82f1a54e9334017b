// Batched authenticators and the async signing pipeline: windowed
// commitments must preserve every tamper-evidence verdict while making
// RSA signatures rare on the hot path.
//
// Covers: BatchAuthenticator verification (including forged members and
// cross-node replay), the batched/async transport protocol end to end
// with real RSA-768 keys, adversarial frames, crash recovery re-signing
// from the durable store, and the acceptance bar -- audit, spot-check
// and cheat-detection verdicts identical across all three sign modes.
#include <gtest/gtest.h>

#include <filesystem>

#include "src/audit/evidence.h"
#include "src/avmm/transport.h"
#include "src/sim/scenario.h"
#include "src/store/log_store.h"
#include "src/tel/batch.h"

namespace fs = std::filesystem;

namespace avm {
namespace {

// ---------------------------------------------------- unit: batches ----

struct BatchFixture : public ::testing::Test {
  BatchFixture() : rng(7), alice("alice", SignatureScheme::kRsa768, rng), log("alice") {
    registry.RegisterSigner(alice);
    for (int i = 0; i < 10; i++) {
      log.Append(i % 2 == 0 ? EntryType::kTraceTime : EntryType::kInfo,
                 ToBytes("entry-" + std::to_string(i)));
    }
  }

  Prng rng;
  Signer alice;
  KeyRegistry registry;
  TamperEvidentLog log;
};

TEST_F(BatchFixture, WindowVerifiesAndReproducesPerSeqHashes) {
  BatchAuthenticator b = BatchAuthenticator::FromLog(log, alice, 3, 9);
  EXPECT_TRUE(b.Verify(registry).ok);
  EXPECT_TRUE(b.Covers(3));
  EXPECT_TRUE(b.Covers(9));
  EXPECT_FALSE(b.Covers(2));
  EXPECT_FALSE(b.Covers(10));
  // The walk reproduces the exact chain hash of every covered entry:
  // per-seq verdicts are bit-for-bit those of per-entry authenticators.
  for (uint64_t s = 3; s <= 9; s++) {
    EXPECT_EQ(b.HashAt(s), log.At(s).hash) << "seq " << s;
  }
}

TEST_F(BatchFixture, ForgedBatchMemberDetected) {
  BatchAuthenticator b = BatchAuthenticator::FromLog(log, alice, 1, 10);
  ASSERT_TRUE(b.Verify(registry).ok);
  // Tamper with one member's content hash: the walk no longer reaches
  // the signed commitment.
  b.links[4].content_hash = Sha256::Digest("forged");
  CheckResult r = b.Verify(registry);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, "batch links do not walk to the signed commitment");
}

TEST_F(BatchFixture, ReplayedAsAnotherNodesCommitmentRejected) {
  Signer bob("bob", SignatureScheme::kRsa768, rng);
  registry.RegisterSigner(bob);
  BatchAuthenticator b = BatchAuthenticator::FromLog(log, alice, 1, 10);
  // An attacker relabels alice's batch as bob's: the signed payload
  // binds the node id, so the signature cannot transfer.
  b.commit.node = "bob";
  CheckResult r = b.Verify(registry);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, "batch commitment signature invalid");
}

TEST_F(BatchFixture, AuthenticatorStoreAddBatchKeepsForkDetection) {
  AuthenticatorStore store;
  BatchAuthenticator b = BatchAuthenticator::FromLog(log, alice, 1, 10);
  EXPECT_TRUE(store.AddBatch(b, registry));
  EXPECT_EQ(store.CountFor("alice"), 1u);
  // A second signed commitment for the same seq but a different hash is
  // fork proof, exactly as with per-message authenticators.
  Authenticator forked;
  forked.node = "alice";
  forked.seq = 10;
  forked.hash = Sha256::Digest("other history");
  forked.signature =
      alice.SignDigest(Authenticator::SignedPayloadDigest("alice", 10, forked.hash));
  EXPECT_TRUE(store.Add(forked, registry));
  ASSERT_EQ(store.fork_proofs().size(), 1u);
  EXPECT_TRUE(IsForkProof(store.fork_proofs()[0].first, store.fork_proofs()[0].second, registry));
}

// ------------------------------------------- transport: batched mode ----

struct BatchTransportFixture : public ::testing::Test {
  explicit BatchTransportFixture(RunConfig config = RunConfig::AvmmRsa768Batched(4))
      : cfg(config),
        rng(1),
        alice_signer("alice", cfg.scheme, rng),
        bob_signer("bob", cfg.scheme, rng),
        alice_log("alice"),
        bob_log("bob") {
    registry.RegisterSigner(alice_signer);
    registry.RegisterSigner(bob_signer);
    alice = std::make_unique<Transport>("alice", &cfg, &alice_log, &alice_signer, &net, &registry,
                                        &alice_auths);
    bob = std::make_unique<Transport>("bob", &cfg, &bob_log, &bob_signer, &net, &registry,
                                      &bob_auths);
    net.AttachHost("alice", alice.get());
    net.AttachHost("bob", bob.get());
    bob->SetPacketHandler([this](SimTime, const NodeId& src, const Bytes& payload) {
      bob_received.emplace_back(src, payload);
    });
  }

  void Settle(SimTime until) { net.DeliverUntil(until); }

  size_t PeerCommitEntries(const TamperEvidentLog& log) {
    size_t n = 0;
    log.Scan(1, log.LastSeq(), [&](const LogEntry& e) {
      if (e.type == EntryType::kInfo && PeerCommitRecord::IsPeerCommit(e.content)) {
        n++;
      }
      return true;
    });
    return n;
  }

  RunConfig cfg;
  Prng rng;
  Signer alice_signer, bob_signer;
  KeyRegistry registry;
  SimNetwork net;
  TamperEvidentLog alice_log, bob_log;
  AuthenticatorStore alice_auths, bob_auths;
  std::unique_ptr<Transport> alice, bob;
  std::vector<std::pair<NodeId, Bytes>> bob_received;
};

TEST_F(BatchTransportFixture, RoundTripDeliversAndAmortizesSignatures) {
  const int kMessages = 12;
  for (int i = 0; i < kMessages; i++) {
    alice->SendPacket(0, "bob", ToBytes("msg-" + std::to_string(i)));
    Settle(kMicrosPerSecond);
  }
  alice->Flush(kMicrosPerSecond);
  bob->Flush(kMicrosPerSecond);
  Settle(2 * kMicrosPerSecond);

  ASSERT_EQ(bob_received.size(), static_cast<size_t>(kMessages));
  EXPECT_TRUE(alice->violations().empty()) << alice->violations().front();
  EXPECT_TRUE(bob->violations().empty()) << bob->violations().front();
  EXPECT_EQ(alice->stats().acks_received, static_cast<uint64_t>(kMessages));
  EXPECT_TRUE(alice->suspected().empty());

  // The point of batching: far fewer signatures than messages (sync mode
  // signs 2 per message on the sender alone).
  EXPECT_LT(alice->stats().batch_commits_signed, static_cast<uint64_t>(kMessages));
  EXPECT_GT(alice->stats().batch_commits_signed, 0u);
  // Both sides verified each other's windowed commitments and logged
  // the auditable proofs.
  EXPECT_GT(bob->stats().peer_commits_verified, 0u);
  EXPECT_GT(PeerCommitEntries(bob_log), 0u);
  EXPECT_GT(PeerCommitEntries(alice_log), 0u);
  // The commitments are regular authenticators in the stores: fork
  // detection and auditor collection work unchanged.
  EXPECT_GT(bob_auths.CountFor("alice"), 0u);
  EXPECT_TRUE(bob_auths.fork_proofs().empty());

  // Every signature-less RECV/ACK is provably covered: the relaxed
  // syntactic check passes and the logs verify against the collected
  // commitments.
  std::vector<Authenticator> alice_commits = bob_auths.AllFor("alice");
  LogSegment seg = alice_log.Extract(1, alice_log.LastSeq());
  EXPECT_TRUE(VerifyAgainstAuthenticators(seg, alice_commits, registry).ok);
  EXPECT_TRUE(SyntacticMessageCheck(seg, registry, /*strict=*/false).ok);
  LogSegment bseg = bob_log.Extract(1, bob_log.LastSeq());
  EXPECT_TRUE(SyntacticMessageCheck(bseg, registry, /*strict=*/false).ok);
}

TEST_F(BatchTransportFixture, RetransmissionSurvivesPartition) {
  net.SetPartitioned("alice", "bob", true);
  alice->SendPacket(0, "bob", ToBytes("lost"));
  for (SimTime t = 0; t < 200 * kMicrosPerMilli; t += 10 * kMicrosPerMilli) {
    alice->Tick(t);
    Settle(t);
  }
  EXPECT_GE(alice->stats().retransmits, 2u);
  EXPECT_TRUE(bob_received.empty());

  net.SetPartitioned("alice", "bob", false);
  alice->Tick(300 * kMicrosPerMilli);
  Settle(400 * kMicrosPerMilli);
  ASSERT_EQ(bob_received.size(), 1u);
  EXPECT_EQ(alice->stats().acks_received, 1u);
  EXPECT_TRUE(bob->violations().empty());
}

TEST_F(BatchTransportFixture, TamperedBatchFrameRejected) {
  struct Tap : public NetworkDelegate {
    Transport* inner;
    Bytes last;
    void OnFrame(SimTime now, const NodeId& src, ByteView frame) override {
      last.assign(frame.begin(), frame.end());
      inner->OnFrame(now, src, frame);
    }
  };
  Tap tap;
  tap.inner = bob.get();
  net.AttachHost("bob", &tap);
  alice->SendPacket(0, "bob", ToBytes("genuine"));
  Settle(kMicrosPerSecond);
  ASSERT_EQ(bob_received.size(), 1u);
  ASSERT_FALSE(tap.last.empty());

  Bytes tampered = tap.last;
  tampered[tampered.size() / 2] ^= 0x40;
  size_t fails_before = bob->stats().verify_failures;
  size_t logged_before = bob_log.size();
  bob->OnFrame(kMicrosPerSecond, "alice", tampered);
  EXPECT_GE(bob->stats().verify_failures + bob->stats().duplicates, fails_before);
  EXPECT_EQ(bob_received.size(), 1u);
  EXPECT_EQ(bob_log.size(), logged_before);
}

TEST_F(BatchTransportFixture, EquivocatingCommitmentCaught) {
  alice->SendPacket(0, "bob", ToBytes("honest"));
  Settle(kMicrosPerSecond);
  ASSERT_EQ(bob_received.size(), 1u);

  // Alice signs a commitment to a *different* history at the tip of the
  // chain she announces to bob: the junction check catches it before
  // any state is polluted. (Bob's view of alice ends at the SEND entry,
  // seq 1; the tail extends it with the real kAck link so the walk
  // reaches the equivocating commitment.)
  Authenticator evil;
  evil.node = "alice";
  evil.seq = alice_log.LastSeq();
  evil.hash = Sha256::Digest("parallel history");
  evil.signature =
      alice_signer.SignDigest(Authenticator::SignedPayloadDigest("alice", evil.seq, evil.hash));
  ChainTail tail;
  tail.from_seq = 2;
  tail.prior_hash = alice_log.At(1).hash;
  for (uint64_t s = 2; s <= alice_log.LastSeq(); s++) {
    tail.links.push_back(LinkFor(alice_log.At(s)));
  }
  tail.commit = evil;
  CommitFrame cf{tail};
  size_t fails_before = bob->stats().verify_failures;
  net.SendFrame(2 * kMicrosPerSecond, "alice", "bob", WrapFrame(FrameType::kCommit, cf.Serialize()));
  Settle(3 * kMicrosPerSecond);
  EXPECT_EQ(bob->stats().verify_failures, fails_before + 1);
  EXPECT_FALSE(bob->violations().empty());
}

// -------------------------------------------- transport: async mode ----

struct AsyncTransportFixture : public BatchTransportFixture {
  AsyncTransportFixture() : BatchTransportFixture(RunConfig::AvmmRsa768Async(4)) {}
};

TEST_F(AsyncTransportFixture, FlushIsABarrierAndCoversEverything) {
  const int kMessages = 10;
  for (int i = 0; i < kMessages; i++) {
    alice->SendPacket(0, "bob", ToBytes("a-" + std::to_string(i)));
    Settle(kMicrosPerSecond);
    alice->Tick(kMicrosPerSecond);
    bob->Tick(kMicrosPerSecond);
  }
  // Flush: barrier on the signer thread, then the final commitments go
  // out; afterwards nothing is pending anywhere.
  alice->Flush(kMicrosPerSecond);
  bob->Flush(kMicrosPerSecond);
  Settle(2 * kMicrosPerSecond);

  ASSERT_EQ(bob_received.size(), static_cast<size_t>(kMessages));
  EXPECT_TRUE(alice->violations().empty()) << alice->violations().front();
  EXPECT_TRUE(bob->violations().empty()) << bob->violations().front();
  EXPECT_EQ(alice->stats().acks_received, static_cast<uint64_t>(kMessages));
  EXPECT_GT(bob->stats().peer_commits_verified, 0u);
  EXPECT_GT(bob_auths.CountFor("alice"), 0u);

  // The whole log (including the unsigned-tail PeerCommitRecords) still
  // verifies against a fresh end-of-log commitment, like an auditor
  // would demand.
  std::vector<Authenticator> auths = bob_auths.AllFor("alice");
  auths.push_back(alice_log.Authenticate(alice_signer));
  LogSegment seg = alice_log.Extract(1, alice_log.LastSeq());
  EXPECT_TRUE(VerifyAgainstAuthenticators(seg, auths, registry).ok);
}

// ------------------------------------------------- crash + recovery ----

TEST(BatchCrashRecovery, TailResignedFromDurableStore) {
  std::string dir =
      (fs::path(::testing::TempDir()) / "avm_batch_crash_recovery").string();
  fs::remove_all(dir);
  Prng rng(99);
  Signer signer("node", SignatureScheme::kRsa768, rng);
  KeyRegistry registry;
  registry.RegisterSigner(signer);

  Hash256 live_last_hash;
  uint64_t live_last_seq = 0;
  {
    // Record with a durable sink attached; "crash" before any batch
    // commitment over the tail is signed (no Flush, no authenticator).
    TamperEvidentLog log("node");
    LogStoreOptions opts;
    opts.sync = false;
    auto store = LogStore::Open(dir, "node", opts);
    log.SetSink(store.get());
    for (int i = 0; i < 20; i++) {
      log.Append(EntryType::kTraceTime, ToBytes("event-" + std::to_string(i)));
    }
    store->Flush();
    live_last_seq = log.LastSeq();
    live_last_hash = log.LastHash();
    // Process dies here: the in-memory log and the unsigned tail vanish.
  }

  // Recovery: reopen the store, re-derive the chain state, and re-sign
  // the tail so auditors get a commitment over everything durable.
  auto recovered = LogStore::Open(dir, "node");
  ASSERT_EQ(recovered->LastSeq(), live_last_seq);
  ASSERT_EQ(recovered->LastHash(), live_last_hash);
  Authenticator resigned;
  resigned.node = "node";
  resigned.seq = recovered->LastSeq();
  resigned.hash = recovered->LastHash();
  resigned.signature = signer.SignDigest(
      Authenticator::SignedPayloadDigest(resigned.node, resigned.seq, resigned.hash));
  EXPECT_TRUE(resigned.VerifySignature(registry));

  // The re-signed commitment authenticates the recovered log exactly.
  LogSegment seg = recovered->Extract(1, recovered->LastSeq());
  std::vector<Authenticator> auths = {resigned};
  EXPECT_TRUE(VerifyAgainstAuthenticators(seg, auths, registry).ok);
  fs::remove_all(dir);
}

// Regression for the shutdown-ordering bug: with the async signer and
// durable_commit, frames that arrive after the signer's flush barrier
// keep appending entries, so a process can die between "signer flushed"
// and "store sealed" while released evidence must still be covered by
// what the store recovers. The gate's contract: no authenticator is
// ever released above the durability watermark, so the crash image
// always authenticates everything that left the node.
TEST(BatchCrashRecovery, CrashBetweenSignerFlushAndSealResignsFromStore) {
  std::string dir =
      (fs::path(::testing::TempDir()) / "avm_crash_flush_vs_seal").string();
  fs::remove_all(dir);
  RunConfig cfg = RunConfig::AvmmRsa768Async(4);
  cfg.durable_commit = true;
  Prng rng(3);
  Signer alice_signer("alice", cfg.scheme, rng);
  Signer bob_signer("bob", cfg.scheme, rng);
  KeyRegistry registry;
  registry.RegisterSigner(alice_signer);
  registry.RegisterSigner(bob_signer);
  SimNetwork net;
  TamperEvidentLog alice_log("alice"), bob_log("bob");
  AuthenticatorStore alice_auths, bob_auths;

  // The watermark moves only when the gate forces a group commit: the
  // entry/byte thresholds are unreachable and there is no flush timer.
  LogStoreOptions opts;
  opts.sync = false;
  opts.sealer_threads = 0;
  opts.group_commit.max_entries = 1u << 20;
  opts.group_commit.max_bytes = 1u << 30;
  opts.group_commit.max_delay_ms = 0;
  auto store = LogStore::Open(dir, "alice", opts);
  alice_log.SetSink(store.get());

  Transport alice("alice", &cfg, &alice_log, &alice_signer, &net, &registry, &alice_auths);
  Transport bob("bob", &cfg, &bob_log, &bob_signer, &net, &registry, &bob_auths);
  net.AttachHost("alice", &alice);
  net.AttachHost("bob", &bob);
  bob.SetPacketHandler([](SimTime, const NodeId&, const Bytes&) {});

  for (int i = 0; i < 10; i++) {
    SimTime t = static_cast<SimTime>(i + 1) * kMicrosPerSecond;
    alice.SendPacket(t, "bob", ToBytes("m-" + std::to_string(i)));
    net.DeliverUntil(t);
    alice.Tick(t);
    bob.Tick(t);
    net.DeliverUntil(t);
    // The invariant under test, at every step: nothing signed has been
    // released above the store's watermark.
    ASSERT_EQ(alice.stats().durable_gate_violations, 0u);
    ASSERT_LE(alice.stats().max_released_auth_seq, store->DurableSeq());
  }
  // Signer flush barrier -- and then MORE frames settle (bob's final
  // commitments), appending entries past the barrier.
  alice.Flush(20 * kMicrosPerSecond);
  bob.Flush(20 * kMicrosPerSecond);
  net.DeliverUntil(21 * kMicrosPerSecond);
  // The gate actually engaged: the watermark only moves on forced
  // flushes in this config, so every commitment the async signer
  // produced was parked until one. (Asserted after the flush barrier --
  // whether the signer thread finishes a window mid-run is timing.)
  EXPECT_GT(alice.stats().durable_forced_flushes, 0u);
  EXPECT_GT(alice.stats().durable_deferred_commits, 0u);
  ASSERT_EQ(alice.stats().durable_gate_violations, 0u);
  uint64_t released = alice.stats().max_released_auth_seq;
  EXPECT_GT(released, 0u);
  EXPECT_LE(released, store->DurableSeq());

  // Crash here: between the signer flush and Seal(). Everything
  // in-memory vanishes; only the store's directory survives.
  std::vector<Authenticator> alice_commits = bob_auths.AllFor("alice");
  ASSERT_FALSE(alice_commits.empty());
  alice_log.SetSink(nullptr);
  store.reset();  // Never Seal()ed.

  // Recovery covers every released authenticator, and a re-signed tail
  // commitment authenticates the whole recovered log for auditors.
  auto recovered = LogStore::Open(dir, opts);
  ASSERT_GE(recovered->LastSeq(), released);
  Authenticator resigned;
  resigned.node = "alice";
  resigned.seq = recovered->LastSeq();
  resigned.hash = recovered->LastHash();
  resigned.signature = alice_signer.SignDigest(
      Authenticator::SignedPayloadDigest(resigned.node, resigned.seq, resigned.hash));
  alice_commits.push_back(resigned);
  LogSegment seg = recovered->Extract(1, recovered->LastSeq());
  EXPECT_TRUE(VerifyAgainstAuthenticators(seg, alice_commits, registry).ok);
  recovered.reset();
  fs::remove_all(dir);
}

// ------------------------------- sign-mode sweep: verdicts identical ----

RunConfig GameModeConfig(SignMode mode) {
  RunConfig run = RunConfig::AvmmNoSig();  // Hash chains without RSA: fast.
  run.sign_mode = mode;
  run.sign_batch_entries = 8;
  return run;
}

GameScenarioConfig SweepGame(SignMode mode, uint64_t seed) {
  GameScenarioConfig cfg;
  cfg.run = GameModeConfig(mode);
  cfg.num_players = 2;
  cfg.seed = seed;
  cfg.client.render_iters = 300;
  return cfg;
}

class SignModeSweep : public ::testing::TestWithParam<SignMode> {};

TEST_P(SignModeSweep, HonestPlayersPassFullAudit) {
  GameScenario game(SweepGame(GetParam(), 41));
  game.Start();
  game.RunFor(2 * kMicrosPerSecond);
  game.Finish();
  for (int i = 0; i < game.num_players(); i++) {
    AuditOutcome audit = game.AuditPlayer(i);
    EXPECT_TRUE(audit.ok) << SignModeName(GetParam()) << " player " << i << ": "
                          << audit.Describe();
    EXPECT_FALSE(audit.evidence.has_value());
  }
}

TEST_P(SignModeSweep, CheatDetectedAndEvidenceConvincesThirdParty) {
  GameScenario game(SweepGame(GetParam(), 52));
  game.SetCheat(0, RunnableCheat::kUnlimitedAmmo);
  game.Start();
  game.RunFor(2 * kMicrosPerSecond);
  game.Finish();

  AuditOutcome cheater = game.AuditPlayer(0);
  EXPECT_FALSE(cheater.ok) << SignModeName(GetParam());
  ASSERT_TRUE(cheater.evidence.has_value());
  EvidenceVerdict verdict =
      VerifyEvidence(*cheater.evidence, game.registry(), game.reference_client_image());
  EXPECT_TRUE(verdict.fault_confirmed) << SignModeName(GetParam()) << ": " << verdict.detail;

  AuditOutcome honest = game.AuditPlayer(1);
  EXPECT_TRUE(honest.ok) << SignModeName(GetParam()) << ": " << honest.Describe();
}

INSTANTIATE_TEST_SUITE_P(Modes, SignModeSweep,
                         ::testing::Values(SignMode::kSync, SignMode::kBatched,
                                           SignMode::kAsync),
                         [](const ::testing::TestParamInfo<SignMode>& tpi) {
                           return SignModeName(tpi.param);
                         });

// durable_commit changes only *when* evidence is released, never what
// it says: same-seed runs with and without the gate (stores attached)
// must produce identical audit verdicts in every sign mode, with zero
// gate violations and stores that read back the logs bit for bit.
TEST_P(SignModeSweep, DurableCommitVerdictsIdenticalWithStores) {
  GameScenario baseline(SweepGame(GetParam(), 41));
  baseline.Start();
  baseline.RunFor(2 * kMicrosPerSecond);
  baseline.Finish();

  std::string base =
      (fs::path(::testing::TempDir()) /
       (std::string("avm_durable_sweep_") + SignModeName(GetParam()))).string();
  fs::remove_all(base);
  std::vector<std::unique_ptr<LogStore>> stores;
  GameScenarioConfig dcfg = SweepGame(GetParam(), 41);
  dcfg.run.durable_commit = true;
  GameScenario durable(dcfg);
  durable.Start();
  LogStoreOptions opts;
  opts.sync = false;
  opts.seal_threshold_bytes = 16384;
  opts.group_commit.max_entries = 32;
  opts.group_commit.max_delay_ms = 0;
  auto spill = [&](Avmm& node, const std::string& name) {
    stores.push_back(LogStore::Open((fs::path(base) / name).string(), name, opts));
    node.SpillTo(stores.back().get());
  };
  spill(durable.server(), "server");
  for (int i = 0; i < durable.num_players(); i++) {
    spill(durable.player(i), durable.player_id(i));
  }
  durable.RunFor(2 * kMicrosPerSecond);
  durable.Finish();

  // Same verdicts, node by node.
  for (int i = 0; i < baseline.num_players(); i++) {
    AuditOutcome want = baseline.AuditPlayer(i);
    AuditOutcome got = durable.AuditPlayer(i);
    EXPECT_EQ(want.ok, got.ok) << SignModeName(GetParam()) << " player " << i;
    EXPECT_EQ(want.evidence.has_value(), got.evidence.has_value());
    EXPECT_TRUE(got.ok) << got.Describe();
  }
  // No evidence ever outran the watermark, on any node.
  std::vector<Avmm*> nodes = {&durable.server()};
  for (int i = 0; i < durable.num_players(); i++) {
    nodes.push_back(&durable.player(i));
  }
  for (size_t n = 0; n < nodes.size(); n++) {
    EXPECT_EQ(nodes[n]->transport().stats().durable_gate_violations, 0u)
        << nodes[n]->id();
    EXPECT_EQ(nodes[n]->log().LastSeq(), stores[n]->LastSeq()) << nodes[n]->id();
    EXPECT_EQ(stores[n]->DurableSeq(), stores[n]->LastSeq()) << nodes[n]->id();
    // The store reads back the node's log bit for bit (across whatever
    // mix of hot/sealed tiers the run left behind): its entries chain
    // to the head the node computed in memory as it appended them.
    stores[n]->Seal();
    const LogSegment seg = stores[n]->Extract(1, stores[n]->LastSeq());
    EXPECT_TRUE(VerifyChain(seg).ok) << nodes[n]->id();
    EXPECT_EQ(seg.entries.back().hash, nodes[n]->log().LastHash()) << nodes[n]->id();
    nodes[n]->log().SetSink(nullptr);
  }
  fs::remove_all(base);
}

// Real RSA-768 end to end through the KV scenario: full audit and a
// spot check must pass identically in every sign mode.
class KvRsaSweep : public ::testing::TestWithParam<SignMode> {};

TEST_P(KvRsaSweep, FullAuditAndSpotCheckPass) {
  KvScenarioConfig cfg;
  cfg.run = RunConfig::AvmmRsa768();
  cfg.run.sign_mode = GetParam();
  cfg.run.sign_batch_entries = 8;
  cfg.seed = 5;
  KvScenario kv(cfg);
  kv.Start();
  kv.RunFor(2 * kMicrosPerSecond);
  kv.Finish();

  std::vector<Authenticator> auths = kv.CollectAuthsForServer();
  AuditConfig acfg;
  acfg.mem_size = cfg.run.mem_size;
  Auditor auditor("auditor", &kv.registry(), acfg);
  AuditOutcome full = auditor.AuditFull(kv.server(), InMemorySegmentSource(kv.server().log()),
                                        kv.reference_server_image(), auths);
  EXPECT_TRUE(full.ok) << SignModeName(GetParam()) << ": " << full.Describe();

  // Spot check the window between the initial and final snapshots.
  AuditOutcome spot =
      auditor.SpotCheck(kv.server(), InMemorySegmentSource(kv.server().log()), 0, 1, auths);
  EXPECT_TRUE(spot.ok) << SignModeName(GetParam()) << ": " << spot.Describe();
}

INSTANTIATE_TEST_SUITE_P(Modes, KvRsaSweep,
                         ::testing::Values(SignMode::kSync, SignMode::kBatched,
                                           SignMode::kAsync),
                         [](const ::testing::TestParamInfo<SignMode>& tpi) {
                           return SignModeName(tpi.param);
                         });

}  // namespace
}  // namespace avm
