#include <gtest/gtest.h>

#include "src/audit/evidence.h"
#include "src/sim/scenario.h"
#include "src/util/serde.h"

namespace avm {
namespace {

// Shared across cases: running a game is the expensive part, so each
// cheat scenario runs once per instantiation.
GameScenarioConfig FastGame(uint64_t seed = 11) {
  GameScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();  // Hash chains without RSA: fast.
  cfg.num_players = 2;
  cfg.seed = seed;
  cfg.client.render_iters = 300;
  return cfg;
}

TEST(GameAudit, HonestPlayersPass) {
  GameScenario game(FastGame());
  game.Start();
  game.RunFor(2 * kMicrosPerSecond);
  game.Finish();
  for (int i = 0; i < game.num_players(); i++) {
    AuditOutcome audit = game.AuditPlayer(i);
    EXPECT_TRUE(audit.ok) << "player " << i << ": " << audit.Describe();
    EXPECT_FALSE(audit.evidence.has_value());
    EXPECT_GT(audit.semantic.instructions_replayed, 1000000u);
  }
}

TEST(GameAudit, HonestServerLogVerifies) {
  GameScenario game(FastGame(12));
  game.Start();
  game.RunFor(2 * kMicrosPerSecond);
  game.Finish();
  // Audit the server against its own reference image.
  std::vector<Authenticator> auths = game.CollectAuths("server");
  AuditConfig acfg;
  acfg.mem_size = game.config().run.mem_size;
  Auditor auditor("third-party", &game.registry(), acfg);
  AuditOutcome audit = auditor.AuditFull(game.server(), InMemorySegmentSource(game.server().log()),
                                         game.reference_server_image(), auths);
  EXPECT_TRUE(audit.ok) << audit.Describe();
}

struct CheatCase {
  RunnableCheat cheat;
  bool detectable;
};

class CheatDetection : public ::testing::TestWithParam<CheatCase> {};

TEST_P(CheatDetection, AuditMatchesExpectation) {
  const CheatCase& tc = GetParam();
  GameScenario game(FastGame(20 + static_cast<uint64_t>(tc.cheat)));
  game.SetCheat(0, tc.cheat);
  game.Start();
  game.RunFor(2 * kMicrosPerSecond);
  game.Finish();

  AuditOutcome cheater = game.AuditPlayer(0);
  if (tc.detectable) {
    EXPECT_FALSE(cheater.ok) << RunnableCheatName(tc.cheat) << " was not detected";
    ASSERT_TRUE(cheater.evidence.has_value());
    // The evidence convinces an independent third party.
    EvidenceVerdict verdict = VerifyEvidence(*cheater.evidence, game.registry(),
                                             game.reference_client_image());
    EXPECT_TRUE(verdict.fault_confirmed) << verdict.detail;
  } else {
    // §4.8/§5.4: forged local inputs replay cleanly -- documented limit.
    EXPECT_TRUE(cheater.ok) << cheater.Describe();
  }

  // The honest player always passes (accuracy, §4.7).
  AuditOutcome honest = game.AuditPlayer(1);
  EXPECT_TRUE(honest.ok) << honest.Describe();
}

INSTANTIATE_TEST_SUITE_P(
    Cheats, CheatDetection,
    ::testing::Values(CheatCase{RunnableCheat::kUnlimitedAmmo, true},
                      CheatCase{RunnableCheat::kTeleport, true},
                      CheatCase{RunnableCheat::kAimbotImage, true},
                      CheatCase{RunnableCheat::kWallhackImage, true},
                      CheatCase{RunnableCheat::kForgedInputAimbot, false}),
    [](const ::testing::TestParamInfo<CheatCase>& param) {
      std::string name = RunnableCheatName(param.param.cheat);
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

TEST(GameAudit, EvidenceAgainstHonestPlayerImpossible) {
  // Accuracy (§4.7): an accuser cannot forge evidence against a correct
  // node. Take an honest log, tamper with it, and check that the
  // "evidence" does not verify for a third party.
  GameScenario game(FastGame(33));
  game.Start();
  game.RunFor(kMicrosPerSecond);
  game.Finish();

  const Avmm& target = game.player(0);
  std::vector<Authenticator> auths = game.CollectAuths(target.id());
  LogSegment seg = target.log().Extract(1, target.log().LastSeq());

  // Malicious accuser rewrites an entry and re-chains.
  seg.entries[seg.entries.size() / 2].content = ToBytes("planted");
  Hash256 prev = seg.prior_hash;
  for (LogEntry& e : seg.entries) {
    e.hash = ChainHash(prev, e.seq, e.type, e.content);
    prev = e.hash;
  }

  Evidence fake;
  fake.kind = EvidenceKind::kReplayDivergence;
  fake.accused = target.id();
  fake.claim = "fabricated";
  fake.segment = seg.Serialize();
  for (const Authenticator& a : auths) {
    fake.auths.push_back(a.Serialize());
  }
  fake.mem_size = game.config().run.mem_size;

  EvidenceVerdict verdict =
      VerifyEvidence(fake, game.registry(), game.reference_client_image());
  // The doctored segment no longer matches the authenticators the player
  // actually issued, so the evidence is rejected.
  EXPECT_FALSE(verdict.fault_confirmed) << verdict.detail;
}

TEST(GameAudit, SyntacticCheckCatchesForgedSend) {
  // An AVMM that sends messages the guest never produced: insert a SEND
  // entry (with a valid chain) whose payload has no matching guest TX.
  GameScenario game(FastGame(44));
  game.Start();
  game.RunFor(kMicrosPerSecond);
  game.Finish();

  const Avmm& target = game.player(0);
  LogSegment seg = target.log().Extract(1, target.log().LastSeq());

  // Find a SEND entry and duplicate it later in the log with a different
  // payload (simulating injection), then re-chain.
  size_t send_idx = 0;
  for (size_t i = 0; i < seg.entries.size(); i++) {
    if (seg.entries[i].type == EntryType::kSend) {
      send_idx = i;
    }
  }
  ASSERT_GT(send_idx, 0u);
  LogEntry injected = seg.entries[send_idx];
  {
    Reader r(injected.content);
    MessageRecord msg = MessageRecord::Deserialize(r.Blob());
    Bytes sig = r.Blob();
    msg.payload[4] ^= 0x7;  // Content differs from any guest TX.
    msg.msg_id += 1000;
    // Re-sign so the payload signature verifies (the node itself is the
    // forger and owns the key). nosig scheme -> empty signature is fine.
    injected.content = MessageEntryContent(msg, sig);
  }
  seg.entries.insert(seg.entries.begin() + static_cast<ptrdiff_t>(send_idx + 1), injected);
  uint64_t seq = seg.entries.front().seq;
  Hash256 prev = seg.prior_hash;
  for (LogEntry& e : seg.entries) {
    e.seq = seq++;
    e.hash = ChainHash(prev, e.seq, e.type, e.content);
    prev = e.hash;
  }

  CheckResult check = SyntacticMessageCheck(seg, game.registry(), /*strict=*/true);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.reason.find("SEND"), std::string::npos);
}

TEST(GameAudit, WallhackLeaksToConsole) {
  // Sanity-check the wallhack variant actually leaks (and that the leak
  // is what diverges vs. the reference image).
  GameScenario game(FastGame(55));
  game.SetCheat(0, RunnableCheat::kWallhackImage);
  game.Start();
  game.RunFor(2 * kMicrosPerSecond);
  game.Finish();
  EXPECT_FALSE(game.player(0).console_output().empty());
  EXPECT_TRUE(game.player(1).console_output().empty());
}

TEST(GameAudit, ForgedInputAimbotFiresInhumanlyFast) {
  // The undetectable cheat still works (fires far more than an honest
  // player) -- that is exactly the paper's point about raising the bar.
  GameScenarioConfig cfg = FastGame(66);
  GameScenario game(cfg);
  game.SetCheat(0, RunnableCheat::kForgedInputAimbot);
  game.Start();
  game.RunFor(2 * kMicrosPerSecond);
  game.Finish();
  uint32_t cheater_shots = game.player(0).machine().ReadMem32(kGameStateShots);
  uint32_t honest_shots = game.player(1).machine().ReadMem32(kGameStateShots);
  EXPECT_GT(cheater_shots, honest_shots * 2);
}

}  // namespace
}  // namespace avm
