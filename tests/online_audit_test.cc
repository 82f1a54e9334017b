#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/cheats.h"
#include "src/apps/game.h"
#include "src/audit/evidence.h"
#include "src/audit/fleet.h"
#include "src/audit/online.h"
#include "src/sim/scenario.h"
#include "src/store/log_store.h"

namespace avm {
namespace {

// Wraps a live log but can be told to report a shorter LastSeq —
// models the auditee crashing and LogStore::Open truncating a torn
// tail, after which the followed log legitimately *shrinks*.
class ShrinkableSource final : public SegmentSource {
 public:
  explicit ShrinkableSource(const TamperEvidentLog& log) : log_(&log) {}

  void ShrinkTo(uint64_t last) { forced_last_ = last; }
  void Unshrink() { forced_last_ = UINT64_MAX; }

  const NodeId& node() const override { return log_->owner(); }
  uint64_t LastSeq() const override { return std::min(forced_last_, log_->LastSeq()); }
  LogSegment Extract(uint64_t from_seq, uint64_t to_seq) const override {
    return log_->Extract(from_seq, to_seq);
  }
  void Scan(uint64_t from_seq, uint64_t to_seq, const EntryVisitor& visit) const override {
    for (uint64_t s = from_seq; s <= to_seq; s++) {
      if (!visit(log_->At(s))) {
        return;
      }
    }
  }

 private:
  const TamperEvidentLog* log_;
  uint64_t forced_last_ = UINT64_MAX;
};

// Serves a log with one byte of entry `seq`'s stored chain hash
// flipped: a tampered entry the chain rule must catch.
class FlippedHashSource final : public SegmentSource {
 public:
  explicit FlippedHashSource(const SegmentSource& honest) : honest_(honest) {}

  void FlipHashAt(uint64_t seq) { seq_ = seq; }

  const NodeId& node() const override { return honest_.node(); }
  uint64_t LastSeq() const override { return honest_.LastSeq(); }
  LogSegment Extract(uint64_t from_seq, uint64_t to_seq) const override {
    LogSegment seg = honest_.Extract(from_seq, to_seq);
    for (LogEntry& e : seg.entries) {
      Tamper(e);
    }
    return seg;
  }
  void Scan(uint64_t from_seq, uint64_t to_seq, const EntryVisitor& visit) const override {
    honest_.Scan(from_seq, to_seq, [&](const LogEntry& e) {
      if (e.seq != seq_) {
        return visit(e);
      }
      LogEntry copy = e;
      Tamper(copy);
      return visit(copy);
    });
  }

 private:
  void Tamper(LogEntry& e) const {
    if (e.seq == seq_) {
      e.hash.v[7] ^= 0x40;
    }
  }

  const SegmentSource& honest_;
  uint64_t seq_ = 0;
};

// The fields a verdict is compared on: ok, reason, seq, evidence kind,
// and the replay icount of a divergence.
void ExpectSameVerdict(const AuditOutcome& got, const AuditOutcome& want, const std::string& what) {
  EXPECT_EQ(got.ok, want.ok) << what << ": " << got.Describe() << " vs " << want.Describe();
  EXPECT_EQ(got.syntactic.ok, want.syntactic.ok) << what;
  EXPECT_EQ(got.syntactic.reason, want.syntactic.reason) << what;
  EXPECT_EQ(got.syntactic.bad_seq, want.syntactic.bad_seq) << what;
  EXPECT_EQ(got.semantic.ok, want.semantic.ok) << what;
  EXPECT_EQ(got.semantic.reason, want.semantic.reason) << what;
  EXPECT_EQ(got.semantic.diverged_seq, want.semantic.diverged_seq) << what;
  if (!want.semantic.ok) {
    // A divergence is pinned to its icount, however the log was chunked.
    EXPECT_EQ(got.semantic.replay_icount, want.semantic.replay_icount) << what;
  }
  ASSERT_EQ(got.evidence.has_value(), want.evidence.has_value()) << what;
  if (got.evidence.has_value()) {
    EXPECT_EQ(got.evidence->kind, want.evidence->kind) << what;
  }
}

// The engine's verdict over [1, n] with the end-of-log checks deferred:
// what an online poll up to n must report.
AuditOutcome PrefixVerdict(const Avmm& target, const SegmentSource& source, uint64_t n,
                           std::span<const Authenticator> auths, const KeyRegistry& registry,
                           ByteView image, const AuditConfig& cfg) {
  AuditRun run;
  run.last_seq = n;
  run.reference_image = image;
  run.accused = &target;
  AuditEngine engine(source, registry, cfg, nullptr, run);
  engine.Advance(n, auths);
  return engine.Outcome(/*end_of_log=*/false);
}

GameScenarioConfig Cfg(uint64_t seed) {
  GameScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();
  cfg.num_players = 2;
  cfg.seed = seed;
  cfg.client.render_iters = 300;
  return cfg;
}

AuditConfig Audit(const GameScenario& game, unsigned threads = 1) {
  AuditConfig cfg;
  cfg.mem_size = game.config().run.mem_size;
  cfg.threads = threads;
  return cfg;
}

// Follows player `index` of `game` through `source`: the live log, or a
// wrapper around it.
class PlayerFollower {
 public:
  PlayerFollower(const GameScenario& game, int index, const SegmentSource* source = nullptr,
                 unsigned threads = 1)
      : game_(game),
        id_(game.player_id(index)),
        memory_(game.player(index).log()),
        auditor_(game.player(index), source != nullptr ? source : &memory_,
                 game.reference_client_image(), &game.registry(), Audit(game, threads)) {}

  // Polls with the authenticators the game has collected so far.
  AuditOutcome Poll() { return auditor_.Poll(game_.CollectAuths(id_)); }
  OnlineAuditor& auditor() { return auditor_; }

 private:
  const GameScenario& game_;
  NodeId id_;
  InMemorySegmentSource memory_;
  OnlineAuditor auditor_;
};

TEST(OnlineAudit, FollowsHonestGameWithoutDivergence) {
  GameScenario game(Cfg(1));
  game.Start();
  PlayerFollower follower(game, 0);
  OnlineAuditor& auditor = follower.auditor();
  for (int step = 0; step < 10; step++) {
    game.RunFor(200 * kMicrosPerMilli);
    AuditOutcome r = follower.Poll();
    ASSERT_TRUE(r.ok) << "step " << step << ": " << r.Describe();
  }
  game.Finish();
  AuditOutcome final = follower.Poll();
  EXPECT_TRUE(final.ok);
  EXPECT_EQ(auditor.LagEntries(), 0u);
  EXPECT_EQ(final.semantic.replay_icount, game.player(0).machine().cpu().icount);
}

TEST(OnlineAudit, DetectsCheatMidGame) {
  // The cheat activates 1s into the game; the online auditor notices on
  // the first poll after the cheater's output diverges -- well before
  // the game ends (§6.11's motivation).
  GameScenario game(Cfg(2));
  game.Start();
  bool armed = false;
  game.player(0).SetCheatHook([&armed](Machine& m, SimTime now) {
    if (now >= kMicrosPerSecond) {
      m.WriteMem32(kGameStateAmmo, 30);
      armed = true;
    }
  });
  PlayerFollower follower(game, 0);

  int detected_at_step = -1;
  for (int step = 0; step < 20; step++) {
    game.RunFor(200 * kMicrosPerMilli);
    AuditOutcome r = follower.Poll();
    if (!r.ok) {
      detected_at_step = step;
      break;
    }
  }
  ASSERT_TRUE(armed);
  ASSERT_GE(detected_at_step, 4);  // Not before the cheat started...
  EXPECT_LT(detected_at_step, 20);  // ...but while the game is running.
}

TEST(OnlineAudit, DivergenceIsSticky) {
  GameScenario game(Cfg(3));
  game.Start();
  game.player(0).SetCheatHook(*MakeCheatHook(RunnableCheat::kTeleport));
  PlayerFollower follower(game, 0);
  game.RunFor(2 * kMicrosPerSecond);
  AuditOutcome first = follower.Poll();
  EXPECT_FALSE(first.ok);
  game.RunFor(200 * kMicrosPerMilli);
  AuditOutcome second = follower.Poll();
  EXPECT_FALSE(second.ok);
  EXPECT_EQ(first.semantic.reason, second.semantic.reason);
}

TEST(OnlineAudit, TargetRewindSurfacedNotStaleProgress) {
  GameScenario game(Cfg(5));
  game.Start();
  ShrinkableSource source(game.player(0).log());
  PlayerFollower follower(game, 0, &source);
  OnlineAuditor& auditor = follower.auditor();
  game.RunFor(kMicrosPerSecond);
  AuditOutcome first = follower.Poll();
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(auditor.status(), OnlinePollStatus::kAdvanced);
  uint64_t consumed = auditor.consumed_seq();
  ASSERT_GT(consumed, 10u);

  // The log "shrinks" below the consumed prefix (crash + torn-tail
  // truncation). Poll must not pretend progress: the status is a
  // distinct rewind, the cumulative result is unchanged, and it is
  // sticky even if the log later grows past the old watermark (the
  // regrown history need not match what was already consumed).
  source.ShrinkTo(consumed / 2);
  AuditOutcome after = follower.Poll();
  EXPECT_TRUE(after.ok);
  EXPECT_EQ(after.semantic.replay_icount, first.semantic.replay_icount);
  EXPECT_EQ(auditor.status(), OnlinePollStatus::kTargetRewound);
  EXPECT_TRUE(auditor.target_rewound());
  EXPECT_EQ(auditor.LagEntries(), 0u);  // Saturates; no u64 underflow.
  EXPECT_EQ(auditor.consumed_seq(), consumed);

  source.Unshrink();
  game.RunFor(200 * kMicrosPerMilli);
  follower.Poll();
  EXPECT_EQ(auditor.status(), OnlinePollStatus::kTargetRewound);
  EXPECT_EQ(auditor.consumed_seq(), consumed);
}

TEST(OnlineAudit, CaughtUpPollIsIdleNotRewound) {
  GameScenario game(Cfg(6));
  game.Start();
  game.RunFor(500 * kMicrosPerMilli);
  PlayerFollower follower(game, 0);
  OnlineAuditor& auditor = follower.auditor();
  ASSERT_TRUE(follower.Poll().ok);
  EXPECT_EQ(auditor.status(), OnlinePollStatus::kAdvanced);
  // Nothing new: the caught-up case (next_seq == last + 1) is idle, not
  // a rewind.
  follower.Poll();
  EXPECT_EQ(auditor.status(), OnlinePollStatus::kIdle);
  EXPECT_FALSE(auditor.target_rewound());
}

TEST(OnlineAudit, StoreBackedFollowMatchesInMemory) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "avm_online_store_test").string();
  std::filesystem::remove_all(dir);
  GameScenario game(Cfg(7));
  game.Start();
  LogStoreOptions opts;
  opts.sync = false;
  auto store = LogStore::Open(dir, game.player_id(0), opts);
  game.player(0).SpillTo(store.get());

  PlayerFollower mem_follower(game, 0);
  PlayerFollower store_follower(game, 0, store.get(), /*threads=*/4);
  for (int step = 0; step < 5; step++) {
    game.RunFor(200 * kMicrosPerMilli);
    AuditOutcome m = mem_follower.Poll();
    AuditOutcome s = store_follower.Poll();
    ASSERT_EQ(m.ok, s.ok) << "step " << step;
    EXPECT_EQ(m.semantic.replay_icount, s.semantic.replay_icount);
    EXPECT_EQ(mem_follower.auditor().LagEntries(), store_follower.auditor().LagEntries());
  }
  std::filesystem::remove_all(dir);
}

TEST(OnlineAudit, LagTracksUnconsumedEntries) {
  GameScenario game(Cfg(4));
  game.Start();
  PlayerFollower follower(game, 0);
  OnlineAuditor& auditor = follower.auditor();
  game.RunFor(kMicrosPerSecond);
  EXPECT_GT(auditor.LagEntries(), 0u);  // Entries accumulated, not polled.
  follower.Poll();
  EXPECT_EQ(auditor.LagEntries(), 0u);
}

TEST(OnlineAudit, TamperedHashFailsLikeAuditFull) {
  // One flipped hash byte mid-log: the poll that reaches it must fail
  // with the chain reason and seq AuditFull reports on the same source,
  // with protocol-violation evidence; a poll short of it passes.
  GameScenario game(Cfg(9));
  game.Start();
  const Avmm& target = game.player(0);
  InMemorySegmentSource honest(target.log());
  FlippedHashSource source(honest);
  PlayerFollower follower(game, 0, &source, /*threads=*/4);
  game.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(follower.Poll().ok);
  const uint64_t consumed = follower.auditor().consumed_seq();
  game.RunFor(kMicrosPerSecond);
  const uint64_t tampered = (consumed + source.LastSeq()) / 2;
  ASSERT_GT(tampered, consumed);
  source.FlipHashAt(tampered);

  const std::vector<Authenticator> auths = game.CollectAuths(game.player_id(0));
  AuditOutcome online = follower.auditor().Poll(auths);
  Auditor full_auditor("auditor", &game.registry(), Audit(game));
  AuditOutcome full =
      full_auditor.AuditFull(target, source, game.reference_client_image(), auths);
  ASSERT_FALSE(full.ok);
  EXPECT_EQ(full.syntactic.reason, "hash chain broken");
  EXPECT_EQ(full.syntactic.bad_seq, tampered);
  EXPECT_FALSE(online.ok);
  EXPECT_EQ(follower.auditor().status(), OnlinePollStatus::kDiverged);
  ExpectSameVerdict(online, full, "online poll vs AuditFull");
  ASSERT_TRUE(online.evidence.has_value());
  EXPECT_EQ(online.evidence->kind, EvidenceKind::kProtocolViolation);
  EXPECT_EQ(online.evidence->accused, target.id());

  // The evidence is well formed, and a third party reaches the same
  // conclusion from it as from AuditFull's. (A broken chain does not
  // authenticate the segment, so neither confirms a fault: anyone could
  // have broken it, §4.7.)
  const Evidence shipped = Evidence::Deserialize(online.evidence->Serialize());
  EvidenceVerdict from_online =
      VerifyEvidence(shipped, game.registry(), game.reference_client_image());
  EvidenceVerdict from_full =
      VerifyEvidence(*full.evidence, game.registry(), game.reference_client_image());
  EXPECT_EQ(from_online.fault_confirmed, from_full.fault_confirmed);
  EXPECT_EQ(from_online.detail, from_full.detail);
  EXPECT_EQ(from_online.detail, "segment not authenticated: hash chain broken");

  // A fleet online poll over the same source counts it as a fault.
  FleetAuditConfig fcfg;
  fcfg.workers = 1;
  fcfg.audit = Audit(game);
  FleetAuditService fleet(&game.registry(), fcfg);
  FleetAuditService::Registration reg;
  reg.node = "g/player0";
  reg.target = &target;
  reg.source = &source;
  reg.reference_image = game.reference_client_image();
  reg.auths = auths;
  fleet.RegisterAuditee(std::move(reg));
  const uint64_t job = fleet.SubmitOnlinePoll("g/player0");
  fleet.Drain();
  std::optional<FleetJobResult> r = fleet.Result(job);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->job_error) << r->error;
  EXPECT_EQ(r->online_status, OnlinePollStatus::kDiverged);
  ExpectSameVerdict(r->outcome, full, "fleet online poll vs AuditFull");
  EXPECT_EQ(fleet.stats().faults_detected, 1u);
}

TEST(OnlineAuditPrefix, HonestKvPollsMatchTheEngineOverEachPrefix) {
  KvScenarioConfig kcfg;
  kcfg.run = RunConfig::AvmmNoSig();
  kcfg.seed = 31;
  kcfg.snapshot_interval = 200 * kMicrosPerMilli;
  KvScenario kv(kcfg);
  kv.Start();
  const Avmm& server = kv.server();
  InMemorySegmentSource source(server.log());
  AuditConfig cfg;
  cfg.mem_size = kcfg.run.mem_size;
  cfg.threads = 4;
  cfg.pipeline_chunk_entries = 256;
  OnlineAuditor online(server, &source, kv.reference_server_image(), &kv.registry(), cfg);
  AuditConfig ref_cfg = cfg;
  ref_cfg.threads = 1;
  for (int step = 0; step < 6; step++) {
    kv.RunFor(150 * kMicrosPerMilli);
    const std::vector<Authenticator> auths = kv.CollectAuthsForServer();
    const uint64_t n = source.LastSeq();
    AuditOutcome poll = online.Poll(auths);
    ASSERT_EQ(online.consumed_seq(), n);
    const std::string what = "kv poll " + std::to_string(step) + " at seq " + std::to_string(n);
    EXPECT_TRUE(poll.ok) << what << ": " << poll.Describe();
    ExpectSameVerdict(poll, PrefixVerdict(server, source, n, auths, kv.registry(),
                                          kv.reference_server_image(), ref_cfg),
                      what);
  }
  kv.Finish();
  const std::vector<Authenticator> auths = kv.CollectAuthsForServer();
  AuditOutcome final = online.Finish(auths);
  Auditor auditor("auditor", &kv.registry(), ref_cfg);
  AuditOutcome full = auditor.AuditFull(server, source, kv.reference_server_image(), auths);
  EXPECT_TRUE(full.ok) << full.Describe();
  ExpectSameVerdict(final, full, "kv final call vs AuditFull");
  EXPECT_EQ(final.semantic.replay_icount, full.semantic.replay_icount);
  EXPECT_EQ(final.semantic.instructions_replayed, full.semantic.instructions_replayed);
  EXPECT_EQ(final.log_bytes, full.log_bytes);
  EXPECT_EQ(online.LagEntries(), 0u);
}

TEST(OnlineAuditPrefix, CheatingGamePollsMatchTheEngineOverEachPrefix) {
  GameScenario game(Cfg(10));
  game.Start();
  game.player(0).SetCheatHook([](Machine& m, SimTime now) {
    if (now >= kMicrosPerSecond) {
      m.WriteMem32(kGameStateAmmo, 30);
    }
  });
  const Avmm& target = game.player(0);
  InMemorySegmentSource source(target.log());
  OnlineAuditor online(target, &source, game.reference_client_image(), &game.registry(),
                       Audit(game));
  bool detected = false;
  for (int step = 0; step < 10; step++) {
    game.RunFor(200 * kMicrosPerMilli);
    const std::vector<Authenticator> auths = game.CollectAuths(game.player_id(0));
    const uint64_t n = source.LastSeq();
    AuditOutcome poll = online.Poll(auths);
    detected = detected || !poll.ok;
    ExpectSameVerdict(poll, PrefixVerdict(target, source, n, auths, game.registry(),
                                          game.reference_client_image(), Audit(game)),
                      "game poll " + std::to_string(step) + " at seq " + std::to_string(n));
  }
  EXPECT_TRUE(detected) << "the cheat went unnoticed while the game ran";
  game.Finish();
  const std::vector<Authenticator> auths = game.CollectAuths(game.player_id(0));
  AuditOutcome final = online.Finish(auths);
  Auditor auditor("auditor", &game.registry(), Audit(game));
  AuditOutcome full = auditor.AuditFull(target, source, game.reference_client_image(), auths);
  EXPECT_FALSE(full.ok);
  ExpectSameVerdict(final, full, "game final call vs AuditFull");
}

}  // namespace
}  // namespace avm
