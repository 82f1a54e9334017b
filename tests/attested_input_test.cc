#include <gtest/gtest.h>

#include "src/audit/evidence.h"
#include "src/avmm/attested_input.h"
#include "src/sim/scenario.h"

namespace avm {
namespace {

TEST(AttestedInputEvent, SignAndVerify) {
  Prng rng(1);
  InputAttestor attestor("alice", SignatureScheme::kRsa768, rng);
  KeyRegistry registry;
  registry.RegisterSigner(attestor.signer());

  AttestedInputEvent e = attestor.Attest(kInputFire);
  EXPECT_EQ(e.device, "alice/input");
  EXPECT_EQ(e.code, kInputFire);
  EXPECT_TRUE(e.Verify(registry));

  AttestedInputEvent restored = AttestedInputEvent::Deserialize(e.Serialize());
  EXPECT_TRUE(restored.Verify(registry));
}

TEST(AttestedInputEvent, IndicesStrictlyIncrease) {
  Prng rng(2);
  InputAttestor attestor("alice", SignatureScheme::kNone, rng);
  EXPECT_EQ(attestor.Attest(1).index, 0u);
  EXPECT_EQ(attestor.Attest(1).index, 1u);
  EXPECT_EQ(attestor.Attest(2).index, 2u);
}

TEST(AttestedInputEvent, TamperedFieldsRejected) {
  Prng rng(3);
  InputAttestor attestor("alice", SignatureScheme::kRsa768, rng);
  KeyRegistry registry;
  registry.RegisterSigner(attestor.signer());
  AttestedInputEvent e = attestor.Attest(kInputUp);

  AttestedInputEvent bad = e;
  bad.code = kInputFire;  // Repurpose a movement attestation as FIRE.
  EXPECT_FALSE(bad.Verify(registry));
  bad = e;
  bad.index += 1;
  EXPECT_FALSE(bad.Verify(registry));
  bad = e;
  bad.device = "bob/input";
  EXPECT_FALSE(bad.Verify(registry));
}

GameScenarioConfig AttestedCfg(uint64_t seed) {
  GameScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();
  cfg.num_players = 2;
  cfg.seed = seed;
  cfg.client.render_iters = 300;
  cfg.attested_input = true;
  return cfg;
}

TEST(AttestedInputAudit, HonestPlayersStillPass) {
  GameScenario game(AttestedCfg(10));
  game.Start();
  game.RunFor(2 * kMicrosPerSecond);
  game.Finish();
  for (int i = 0; i < 2; i++) {
    AuditOutcome audit = game.AuditPlayer(i);
    EXPECT_TRUE(audit.ok) << audit.Describe();
  }
}

TEST(AttestedInputAudit, CatchesTheForgedInputAimbot) {
  // The §7.2 payoff: the one cheat class plain AVMs cannot detect
  // becomes detectable once input devices sign their events. The forged
  // events carry no attestation, so the syntactic check rejects them.
  GameScenario game(AttestedCfg(11));
  game.SetCheat(0, RunnableCheat::kForgedInputAimbot);
  game.Start();
  game.RunFor(2 * kMicrosPerSecond);
  game.Finish();

  AuditOutcome cheater = game.AuditPlayer(0);
  EXPECT_FALSE(cheater.ok);
  EXPECT_NE(cheater.syntactic.reason.find("attestation"), std::string::npos)
      << cheater.Describe();

  AuditOutcome honest = game.AuditPlayer(1);
  EXPECT_TRUE(honest.ok) << honest.Describe();
}

// Evidence a would-be accuser can assemble against `player` from its
// real log: the whole segment plus every collected authenticator.
Evidence ClaimAgainst(GameScenario& game, int player, EvidenceKind kind) {
  const Avmm& target = game.player(player);
  Evidence ev;
  ev.kind = kind;
  ev.accused = target.id();
  ev.claim = "accuser's claim";
  ev.segment = target.log().Extract(1, target.log().LastSeq()).Serialize();
  for (const Authenticator& a : game.CollectAuths(target.id())) {
    ev.auths.push_back(a.Serialize());
  }
  ev.mem_size = game.config().run.mem_size;
  return ev;
}

TEST(AttestedInputAudit, ForgedInputEvidenceConvincesAThirdParty) {
  // §4.7 completeness: the audit's evidence against the forged-input
  // aimbot must convince a third party holding only the keys and the
  // reference image. And accuracy: no claim against the honest player's
  // real log is confirmed.
  GameScenario game(AttestedCfg(11));
  game.SetCheat(0, RunnableCheat::kForgedInputAimbot);
  game.Start();
  game.RunFor(2 * kMicrosPerSecond);
  game.Finish();

  AuditOutcome cheater = game.AuditPlayer(0);
  ASSERT_FALSE(cheater.ok);
  ASSERT_TRUE(cheater.evidence.has_value());
  EXPECT_EQ(cheater.evidence->kind, EvidenceKind::kProtocolViolation);
  Evidence shipped = Evidence::Deserialize(cheater.evidence->Serialize());
  EvidenceVerdict verdict =
      VerifyEvidence(shipped, game.registry(), game.reference_client_image());
  EXPECT_TRUE(verdict.fault_confirmed) << verdict.detail;
  EXPECT_NE(verdict.detail.find("attestation"), std::string::npos) << verdict.detail;

  for (EvidenceKind kind : {EvidenceKind::kProtocolViolation, EvidenceKind::kReplayDivergence}) {
    EvidenceVerdict honest = VerifyEvidence(ClaimAgainst(game, 1, kind), game.registry(),
                                            game.reference_client_image());
    EXPECT_FALSE(honest.fault_confirmed) << EvidenceKindName(kind) << ": " << honest.detail;
  }
}

TEST(AttestedInputAudit, HonestPlayersYieldNoConfirmedEvidence) {
  GameScenario game(AttestedCfg(10));
  game.Start();
  game.RunFor(2 * kMicrosPerSecond);
  game.Finish();
  for (int i = 0; i < 2; i++) {
    AuditOutcome audit = game.AuditPlayer(i);
    EXPECT_TRUE(audit.ok) << audit.Describe();
    EXPECT_FALSE(audit.evidence.has_value());
    for (EvidenceKind kind :
         {EvidenceKind::kProtocolViolation, EvidenceKind::kReplayDivergence}) {
      EvidenceVerdict v = VerifyEvidence(ClaimAgainst(game, i, kind), game.registry(),
                                         game.reference_client_image());
      EXPECT_FALSE(v.fault_confirmed) << "player " << i << " " << EvidenceKindName(kind)
                                      << ": " << v.detail;
    }
  }
}

TEST(AttestedInputAudit, SameCheatInvisibleWithoutAttestation) {
  // Control: identical scenario minus the trusted device -> undetected
  // (reproduces the baseline §4.8 limitation side by side).
  GameScenarioConfig cfg = AttestedCfg(12);
  cfg.attested_input = false;
  GameScenario game(cfg);
  game.SetCheat(0, RunnableCheat::kForgedInputAimbot);
  game.Start();
  game.RunFor(2 * kMicrosPerSecond);
  game.Finish();
  AuditOutcome cheater = game.AuditPlayer(0);
  EXPECT_TRUE(cheater.ok) << cheater.Describe();
  // No device key is registered, so no attestation is required of the
  // log, and no claim against it is confirmed either.
  EXPECT_FALSE(InputAttestationRequired(game.player_id(0), game.registry()));
  EXPECT_FALSE(cheater.evidence.has_value());
  for (EvidenceKind kind : {EvidenceKind::kProtocolViolation, EvidenceKind::kReplayDivergence}) {
    EvidenceVerdict v = VerifyEvidence(ClaimAgainst(game, 0, kind), game.registry(),
                                       game.reference_client_image());
    EXPECT_FALSE(v.fault_confirmed) << EvidenceKindName(kind) << ": " << v.detail;
  }
}

TEST(AttestedInputAudit, ReplayedAttestationRejected) {
  // A cheat that replays a captured FIRE attestation over and over is
  // caught by the strictly increasing index requirement.
  Prng rng(13);
  InputAttestor attestor("p", SignatureScheme::kNone, rng);
  KeyRegistry registry;
  registry.RegisterSigner(attestor.signer());

  AttestedInputEvent fire = attestor.Attest(kInputFire);

  // Build a fake log segment with the same attestation consumed twice.
  TamperEvidentLog log("p");
  for (int i = 0; i < 2; i++) {
    TraceEvent ev;
    ev.kind = TraceKind::kPortIn;
    ev.port = kPortInput;
    ev.icount = static_cast<uint64_t>(100 + i);
    ev.value = fire.code;
    ev.data = fire.Serialize();
    log.Append(EntryType::kTraceOther, ev.Serialize());
  }
  LogSegment seg = log.Extract(1, 2);
  CheckResult check = VerifyAttestedInputs(seg, registry);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.reason.find("replayed"), std::string::npos);
}

TEST(AttestedInputAudit, MissingDeviceKeyFails) {
  TamperEvidentLog log("p");
  log.Append(EntryType::kInfo, ToBytes("x"));
  KeyRegistry registry;
  CheckResult check = VerifyAttestedInputs(log.Extract(1, 1), registry);
  EXPECT_FALSE(check.ok);
}

}  // namespace
}  // namespace avm
