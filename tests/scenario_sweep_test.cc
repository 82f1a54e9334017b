// Property sweep over scenario seeds and configurations: the paper's
// accuracy guarantee (§4.7) must hold for *every* honest schedule, not
// just the ones the other tests happen to produce.
#include <gtest/gtest.h>

#include "src/sim/scenario.h"

namespace avm {
namespace {

struct SweepParam {
  uint64_t seed;
  RunConfig::Mode mode;
  SignatureScheme scheme;
};

class HonestGameSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(HonestGameSweep, EveryHonestPlayerPassesAudit) {
  const SweepParam& p = GetParam();
  GameScenarioConfig cfg;
  cfg.run.mode = p.mode;
  cfg.run.scheme = p.scheme;
  cfg.num_players = 2;
  cfg.seed = p.seed;
  cfg.client.render_iters = 300;
  // Vary the input tempo with the seed so schedules differ structurally.
  cfg.input_mean_gap_us = 40 * kMicrosPerMilli + p.seed * 7 * kMicrosPerMilli;
  cfg.fire_fraction = 0.2 + 0.1 * static_cast<double>(p.seed % 5);

  GameScenario game(cfg);
  game.Start();
  game.RunFor(kMicrosPerSecond + p.seed * 100 * kMicrosPerMilli);
  game.Finish();

  for (int i = 0; i < game.num_players(); i++) {
    AuditOutcome audit = game.AuditPlayer(i);
    EXPECT_TRUE(audit.ok) << "seed " << p.seed << " player " << i << ": " << audit.Describe();
  }
}

std::vector<SweepParam> SweepParams() {
  std::vector<SweepParam> out;
  for (uint64_t seed = 1; seed <= 6; seed++) {
    out.push_back({seed, RunConfig::Mode::kAvmm, SignatureScheme::kNone});
  }
  // One full-crypto point (slow, so just one seed).
  out.push_back({7, RunConfig::Mode::kAvmm, SignatureScheme::kRsa768});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Seeds, HonestGameSweep, ::testing::ValuesIn(SweepParams()),
                         [](const ::testing::TestParamInfo<SweepParam>& p) {
                           return "seed" + std::to_string(p.param.seed) + "_" +
                                  SignatureSchemeName(p.param.scheme);
                         });

class HonestKvSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HonestKvSweep, ServerAuditAndSpotChecksPass) {
  KvScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();
  cfg.seed = GetParam();
  cfg.snapshot_interval = 300 * kMicrosPerMilli;
  cfg.client.op_period_us = 3 * kMicrosPerMilli + GetParam() * 500;
  KvScenario kv(cfg);
  kv.Start();
  kv.RunFor(1500 * kMicrosPerMilli);
  kv.Finish();

  std::vector<Authenticator> auths = kv.CollectAuthsForServer();
  Auditor auditor("client", &kv.registry());
  AuditOutcome full = auditor.AuditFull(kv.server(), InMemorySegmentSource(kv.server().log()),
                                        kv.reference_server_image(), auths);
  EXPECT_TRUE(full.ok) << full.Describe();

  std::vector<SnapshotIndexEntry> snaps = IndexSnapshots(kv.server().log());
  ASSERT_GE(snaps.size(), 3u);
  AuditOutcome spot =
      auditor.SpotCheck(kv.server(), InMemorySegmentSource(kv.server().log()),
                        snaps[1].meta.snapshot_id, snaps[2].meta.snapshot_id, auths);
  EXPECT_TRUE(spot.ok) << spot.Describe();
}

INSTANTIATE_TEST_SUITE_P(Seeds, HonestKvSweep, ::testing::Range<uint64_t>(1, 6));

// Node lookup is by id in both worlds: an id that names no node is an
// error, never some other node's log.
TEST(ScenarioNodes, UnknownIdsThrowOutOfRange) {
  KvScenarioConfig kcfg;
  kcfg.run = RunConfig::AvmmNoSig();
  KvScenario kv(kcfg);
  kv.Start();
  kv.RunFor(100 * kMicrosPerMilli);
  kv.Finish();
  std::vector<Authenticator> client_auths = kv.CollectAuths("kvclient");
  ASSERT_GE(client_auths.size(), 2u);  // The server's, then the client's own commitment.
  for (const Authenticator& a : client_auths) {
    EXPECT_EQ(a.node, "kvclient");
  }
  EXPECT_EQ(client_auths.back().seq, kv.client().log().LastSeq());
  EXPECT_THROW(kv.CollectAuths("kvserver2"), std::out_of_range);
  EXPECT_THROW(kv.CollectAuths("server"), std::out_of_range);

  GameScenarioConfig gcfg;
  gcfg.run = RunConfig::AvmmNoSig();
  gcfg.num_players = 2;
  gcfg.client.render_iters = 300;
  GameScenario game(gcfg);
  game.Start();
  EXPECT_THROW(game.CollectAuths("kvclient"), std::out_of_range);
  EXPECT_THROW(game.CollectAuths("player3"), std::out_of_range);
  EXPECT_THROW(game.player(2), std::out_of_range);
  EXPECT_THROW(game.player(-1), std::out_of_range);
  EXPECT_EQ(game.player(1).id(), "player2");
}

}  // namespace
}  // namespace avm
