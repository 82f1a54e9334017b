// The sharded audit service and the checkpointed, resumable audit:
// checkpoint-resumed verdicts must be bit-for-bit those of a
// from-genesis audit across checkpoint cadences, sign modes and
// thread counts; forged/stale checkpoints must be
// rejected (falling back to genesis); tampering behind an accepted
// checkpoint must still be caught; and the fleet scheduler must honor
// priorities and per-auditee fairness.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "src/audit/checkpoint.h"
#include "src/audit/fleet.h"
#include "src/sim/scenario.h"
#include "src/store/log_store.h"

namespace avm {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  std::string dir = (fs::temp_directory_path() / ("avm_fleet_" + name)).string();
  fs::remove_all(dir);
  return dir;
}

// The audit *verdict*: everything that must be bit-for-bit identical
// between a from-genesis and a checkpoint-resumed audit. Timings and
// bytes-read accounting legitimately differ (that is the speedup).
void ExpectSameVerdict(const AuditOutcome& a, const AuditOutcome& b, const std::string& what) {
  EXPECT_EQ(a.ok, b.ok) << what;
  EXPECT_EQ(a.syntactic.ok, b.syntactic.ok) << what;
  EXPECT_EQ(a.syntactic.reason, b.syntactic.reason) << what;
  EXPECT_EQ(a.syntactic.bad_seq, b.syntactic.bad_seq) << what;
  EXPECT_EQ(a.semantic.ok, b.semantic.ok) << what;
  EXPECT_EQ(a.semantic.reason, b.semantic.reason) << what;
  EXPECT_EQ(a.semantic.diverged_seq, b.semantic.diverged_seq) << what;
  EXPECT_EQ(a.evidence.has_value(), b.evidence.has_value()) << what;
  if (a.evidence.has_value() && b.evidence.has_value()) {
    EXPECT_EQ(static_cast<int>(a.evidence->kind), static_cast<int>(b.evidence->kind)) << what;
    EXPECT_EQ(a.evidence->accused, b.evidence->accused) << what;
  }
}

// An in-memory copy of a log with one entry tampered — the adversarial
// SegmentSource a lying auditee would serve. With `rechain`, the chain
// hashes from the tampered entry onward are recomputed so the segment
// is self-consistent (only authenticators/checkpoints can expose it);
// without, the stored hash no longer matches the hash rule.
class TamperedLogSource final : public SegmentSource {
 public:
  TamperedLogSource(const SegmentSource& inner, uint64_t tamper_seq, bool rechain)
      : node_(inner.node()) {
    LogSegment all = inner.Extract(1, inner.LastSeq());
    entries_ = std::move(all.entries);
    LogEntry& t = entries_.at(tamper_seq - 1);
    if (t.content.empty()) {
      t.content.push_back(0);
    }
    t.content[0] ^= 0x5a;
    if (rechain) {
      Hash256 prev = tamper_seq >= 2 ? entries_[tamper_seq - 2].hash : Hash256::Zero();
      for (uint64_t s = tamper_seq; s <= entries_.size(); s++) {
        LogEntry& e = entries_[s - 1];
        e.hash = ChainHash(prev, e.seq, e.type, e.content);
        prev = e.hash;
      }
    }
  }

  const NodeId& node() const override { return node_; }
  uint64_t LastSeq() const override { return entries_.size(); }
  LogSegment Extract(uint64_t from_seq, uint64_t to_seq) const override {
    if (from_seq < 1 || to_seq > entries_.size() || from_seq > to_seq) {
      throw std::out_of_range("TamperedLogSource: bad range");
    }
    LogSegment seg;
    seg.node = node_;
    seg.prior_hash = from_seq == 1 ? Hash256::Zero() : entries_[from_seq - 2].hash;
    seg.entries.assign(entries_.begin() + static_cast<ptrdiff_t>(from_seq - 1),
                       entries_.begin() + static_cast<ptrdiff_t>(to_seq));
    return seg;
  }
  void Scan(uint64_t from_seq, uint64_t to_seq, const EntryVisitor& visit) const override {
    for (uint64_t s = from_seq; s <= to_seq; s++) {
      if (!visit(entries_.at(s - 1))) {
        return;
      }
    }
  }

 private:
  NodeId node_;
  std::vector<LogEntry> entries_;
};

// A finished, store-backed kv run plus everything an audit needs.
struct KvFixture {
  explicit KvFixture(RunConfig run, const std::string& dir_name, SimTime duration,
                     uint64_t seed = 11) {
    dir = TempDir(dir_name);
    KvScenarioConfig cfg;
    cfg.run = run;
    cfg.seed = seed;
    scenario = std::make_unique<KvScenario>(cfg);
    scenario->Start();
    LogStoreOptions opts;
    opts.sync = false;
    opts.seal_threshold_bytes = 64 * 1024;  // Several sealed segments.
    store = LogStore::Open(dir, "kvserver", opts);
    scenario->server().SpillTo(store.get());
    scenario->RunFor(duration);
    scenario->Finish();
    store->Flush();
    auths = scenario->CollectAuthsForServer();
  }
  ~KvFixture() { Cleanup(); }
  void Cleanup() {
    store.reset();
    scenario.reset();
    fs::remove_all(dir);
  }

  std::string dir;
  std::unique_ptr<KvScenario> scenario;
  std::unique_ptr<LogStore> store;
  std::vector<Authenticator> auths;
};

// threads=1 is the inline reference; more threads overlap replay with
// the checks.
AuditConfig ThreadsCfg(unsigned threads) {
  AuditConfig cfg;
  cfg.threads = threads;
  cfg.pipeline_chunk_entries = 512;
  return cfg;
}

AuditConfig SeqCfg() { return ThreadsCfg(1); }

// The acceptance sweep: for each sign mode, checkpoint-resumed verdicts
// (first audit captures, second resumes) equal the from-genesis verdict
// at several cadences — including cadences that land mid-batch-window —
// at threads=1 and with replay overlapped at threads=2 and 4.
TEST(CheckpointedAudit, ResumedVerdictsBitForBitAcrossCadencesAndSignModes) {
  struct ModeCase {
    const char* name;
    RunConfig run;
  };
  const ModeCase kModes[] = {
      {"sync", RunConfig::AvmmRsa768()},
      {"batched", RunConfig::AvmmRsa768Batched(8)},
      {"async", RunConfig::AvmmRsa768Async(8)},
  };
  for (const ModeCase& mode : kModes) {
    KvFixture fx(mode.run, std::string("cadence_") + mode.name, 3 * kMicrosPerSecond);
    const uint64_t last = fx.store->LastSeq();
    ASSERT_GT(last, 1000u) << mode.name;

    // From-genesis references: threads=1, and overlapped at 2 and 4.
    Auditor seq_ref("auditor", &fx.scenario->registry(), SeqCfg());
    AuditOutcome genesis_seq =
        seq_ref.AuditFull(fx.scenario->server(), *fx.store,
                          fx.scenario->reference_server_image(), fx.auths);
    ASSERT_TRUE(genesis_seq.ok) << mode.name << ": " << genesis_seq.Describe();
    for (unsigned threads : {2u, 4u}) {
      Auditor par_ref("auditor", &fx.scenario->registry(), ThreadsCfg(threads));
      AuditOutcome genesis_par =
          par_ref.AuditFull(fx.scenario->server(), *fx.store,
                            fx.scenario->reference_server_image(), fx.auths);
      ExpectSameVerdict(genesis_seq, genesis_par,
                        std::string(mode.name) + "/ref threads=" + std::to_string(threads));
    }

    // 777 is coprime to the batch window (8), so captures land
    // mid-window with pending batched entries in the scan state.
    for (uint64_t cadence : {uint64_t{300}, uint64_t{777}, last / 2}) {
      for (unsigned threads : {1u, 2u, 4u}) {
        std::string what = std::string(mode.name) + "/cadence=" + std::to_string(cadence) +
                           "/threads=" + std::to_string(threads);
        fs::remove(fs::path(fx.dir) / AuditCheckpointFileName("auditor"));
        CheckpointConfig ck;
        ck.every_entries = cadence;
        Auditor auditor("auditor", &fx.scenario->registry(), ThreadsCfg(threads), ck);
        ResumeInfo cold_info;
        AuditOutcome cold =
            auditor.AuditFull(fx.scenario->server(), *fx.store,
                              fx.scenario->reference_server_image(), fx.auths, fx.dir,
                              &cold_info);
        ExpectSameVerdict(genesis_seq, cold, what + "/cold");
        EXPECT_FALSE(cold_info.resumed) << what;
        ASSERT_GT(cold_info.checkpoints_written, 0u) << what;

        ResumeInfo resumed_info;
        AuditOutcome resumed =
            auditor.AuditFull(fx.scenario->server(), *fx.store,
                              fx.scenario->reference_server_image(), fx.auths, fx.dir,
                              &resumed_info);
        ExpectSameVerdict(genesis_seq, resumed, what + "/resumed");
        EXPECT_TRUE(resumed_info.resumed) << what;
        EXPECT_GE(resumed_info.resumed_from, cadence) << what;
        EXPECT_LT(resumed_info.entries_scanned, cold_info.entries_scanned) << what;
        EXPECT_LT(resumed.log_bytes, cold.log_bytes) << what;
      }
    }
  }
}

// A cheat that diverges mid-log: checkpoints written before the
// divergence must resume to the identical failing verdict (reason,
// seq, evidence kind).
TEST(CheckpointedAudit, ResumedAuditReproducesCheatVerdict) {
  std::string dir = TempDir("cheat");
  GameScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();
  cfg.num_players = 2;
  cfg.seed = 21;
  cfg.client.render_iters = 300;
  GameScenario game(cfg);
  game.Start();
  bool armed = false;
  game.player(0).SetCheatHook([&armed](Machine& m, SimTime now) {
    if (now >= kMicrosPerSecond) {
      m.WriteMem32(kGameStateAmmo, 30);
      armed = true;
    }
  });
  LogStoreOptions opts;
  opts.sync = false;
  auto store = LogStore::Open(dir, game.player_id(0), opts);
  game.player(0).SpillTo(store.get());
  game.RunFor(2 * kMicrosPerSecond);
  game.Finish();
  store->Flush();
  ASSERT_TRUE(armed);
  std::vector<Authenticator> auths = game.CollectAuths(game.player_id(0));

  Auditor ref("auditor", &game.registry(), SeqCfg());
  AuditOutcome genesis =
      ref.AuditFull(game.player(0), *store, game.reference_client_image(), auths);
  ASSERT_FALSE(genesis.ok);
  ASSERT_FALSE(genesis.semantic.ok);

  CheckpointConfig ck;
  ck.every_entries = 200;
  Auditor auditor("auditor", &game.registry(), SeqCfg(), ck);
  ResumeInfo cold_info;
  AuditOutcome cold = auditor.AuditFull(game.player(0), *store, game.reference_client_image(),
                                        auths, dir, &cold_info);
  ExpectSameVerdict(genesis, cold, "cheat/cold");
  ASSERT_GT(cold_info.checkpoints_written, 0u);

  ResumeInfo resumed_info;
  AuditOutcome resumed = auditor.AuditFull(game.player(0), *store,
                                           game.reference_client_image(), auths, dir,
                                           &resumed_info);
  ExpectSameVerdict(genesis, resumed, "cheat/resumed");
  EXPECT_TRUE(resumed_info.resumed);
  // Checkpoints must never be captured past the divergence.
  std::optional<AuditCheckpoint> cp = LoadAuditCheckpoint(dir, "auditor");
  ASSERT_TRUE(cp.has_value());
  EXPECT_LT(cp->seq, genesis.semantic.diverged_seq);

  store.reset();
  fs::remove_all(dir);
}

// Attested input rides through checkpoints too: the scan cursor
// (device index replay protection) is part of the checkpointed state.
TEST(CheckpointedAudit, AttestedInputStateSurvivesResume) {
  std::string dir = TempDir("attested");
  GameScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();
  cfg.num_players = 2;
  cfg.seed = 31;
  cfg.client.render_iters = 300;
  cfg.attested_input = true;
  GameScenario game(cfg);
  game.Start();
  LogStoreOptions opts;
  opts.sync = false;
  auto store = LogStore::Open(dir, game.player_id(0), opts);
  game.player(0).SpillTo(store.get());
  game.RunFor(2 * kMicrosPerSecond);
  game.Finish();
  store->Flush();
  std::vector<Authenticator> auths = game.CollectAuths(game.player_id(0));

  // The registry certifies the players' input devices, so every audit
  // below checks attested inputs.
  ASSERT_TRUE(InputAttestationRequired(game.player_id(0), game.registry()));
  AuditConfig acfg = SeqCfg();
  Auditor ref("auditor", &game.registry(), acfg);
  AuditOutcome genesis =
      ref.AuditFull(game.player(0), *store, game.reference_client_image(), auths);

  CheckpointConfig ck;
  ck.every_entries = 250;
  Auditor auditor("auditor", &game.registry(), acfg, ck);
  ResumeInfo info;
  AuditOutcome cold = auditor.AuditFull(game.player(0), *store, game.reference_client_image(),
                                        auths, dir, &info);
  ExpectSameVerdict(genesis, cold, "attested/cold");
  ASSERT_GT(info.checkpoints_written, 0u);
  AuditOutcome resumed = auditor.AuditFull(game.player(0), *store,
                                           game.reference_client_image(), auths, dir, &info);
  ExpectSameVerdict(genesis, resumed, "attested/resumed");
  EXPECT_TRUE(info.resumed);

  store.reset();
  fs::remove_all(dir);
}

TEST(CheckpointedAudit, TamperAheadOfWatermarkSameVerdictAsGenesis) {
  KvFixture fx(RunConfig::AvmmRsa768(), "tamper_ahead", 2 * kMicrosPerSecond);
  CheckpointConfig ck;
  ck.every_entries = 400;
  Auditor auditor("auditor", &fx.scenario->registry(), SeqCfg(), ck);
  ResumeInfo info;
  AuditOutcome clean = auditor.AuditFull(fx.scenario->server(), *fx.store,
                                         fx.scenario->reference_server_image(), fx.auths,
                                         fx.dir, &info);
  ASSERT_TRUE(clean.ok);
  std::optional<AuditCheckpoint> cp = LoadAuditCheckpoint(fx.dir, "auditor");
  ASSERT_TRUE(cp.has_value());
  ASSERT_LT(cp->seq, fx.store->LastSeq());

  // Tamper an entry *after* the watermark (no rechain: the hash rule
  // breaks at that entry). The resumed audit must report exactly what a
  // from-genesis audit of the tampered log reports.
  uint64_t tamper_seq = cp->seq + (fx.store->LastSeq() - cp->seq) / 2;
  TamperedLogSource tampered(*fx.store, tamper_seq, /*rechain=*/false);
  Auditor ref("auditor", &fx.scenario->registry(), SeqCfg());
  AuditOutcome genesis = ref.AuditFull(fx.scenario->server(), tampered,
                                       fx.scenario->reference_server_image(), fx.auths);
  ASSERT_FALSE(genesis.ok);
  EXPECT_EQ(genesis.syntactic.bad_seq, tamper_seq);

  ResumeInfo tinfo;
  AuditOutcome resumed = auditor.AuditFull(fx.scenario->server(), tampered,
                                           fx.scenario->reference_server_image(), fx.auths,
                                           fx.dir, &tinfo);
  EXPECT_TRUE(tinfo.resumed);  // The prefix is untouched, so the resume holds.
  ExpectSameVerdict(genesis, resumed, "tamper-ahead");
}

TEST(CheckpointedAudit, TamperBehindWatermarkRejectsCheckpointAndCatches) {
  KvFixture fx(RunConfig::AvmmRsa768(), "tamper_behind", 2 * kMicrosPerSecond);
  CheckpointConfig ck;
  ck.every_entries = 400;
  Auditor auditor("auditor", &fx.scenario->registry(), SeqCfg(), ck);
  ResumeInfo info;
  AuditOutcome clean = auditor.AuditFull(fx.scenario->server(), *fx.store,
                                         fx.scenario->reference_server_image(), fx.auths,
                                         fx.dir, &info);
  ASSERT_TRUE(clean.ok);
  std::optional<AuditCheckpoint> cp = LoadAuditCheckpoint(fx.dir, "auditor");
  ASSERT_TRUE(cp.has_value());
  ASSERT_GT(cp->seq, 2u);

  // Rewrite an entry *behind* the watermark and rechain so the log is
  // self-consistent. The chain hash at the watermark necessarily
  // changes, so the checkpoint is rejected, the audit falls back to
  // genesis, and the genesis pass catches the tamper (the rewritten
  // chain contradicts the issued authenticators).
  TamperedLogSource tampered(*fx.store, cp->seq / 2, /*rechain=*/true);
  Auditor ref("auditor", &fx.scenario->registry(), SeqCfg());
  AuditOutcome genesis = ref.AuditFull(fx.scenario->server(), tampered,
                                       fx.scenario->reference_server_image(), fx.auths);
  ASSERT_FALSE(genesis.ok);

  ResumeInfo tinfo;
  AuditOutcome resumed = auditor.AuditFull(fx.scenario->server(), tampered,
                                           fx.scenario->reference_server_image(), fx.auths,
                                           fx.dir, &tinfo);
  EXPECT_FALSE(tinfo.resumed);
  EXPECT_TRUE(tinfo.checkpoint_rejected);
  EXPECT_NE(tinfo.reject_reason.find("watermark"), std::string::npos) << tinfo.reject_reason;
  ExpectSameVerdict(genesis, resumed, "tamper-behind");
  EXPECT_FALSE(resumed.ok);
}

TEST(CheckpointedAudit, ForgedAndCorruptCheckpointsRejected) {
  KvFixture fx(RunConfig::AvmmRsa768(), "forged", 2 * kMicrosPerSecond);
  // A real auditor identity whose key the registry knows: checkpoints
  // are signed, so a fabricated file cannot claim a verified prefix.
  Prng rng(77);
  Signer auditor_signer("auditor", SignatureScheme::kRsa768, rng);
  KeyRegistry registry = fx.scenario->registry();  // Copy + extend.
  registry.RegisterSigner(auditor_signer);

  CheckpointConfig ck;
  ck.every_entries = 400;
  ck.signer = &auditor_signer;
  Auditor auditor("auditor", &registry, SeqCfg(), ck);
  ResumeInfo info;
  AuditOutcome clean =
      auditor.AuditFull(fx.scenario->server(), *fx.store,
                        fx.scenario->reference_server_image(), fx.auths, fx.dir, &info);
  ASSERT_TRUE(clean.ok);
  ASSERT_GT(info.checkpoints_written, 0u);
  std::string ckpt_path = (fs::path(fx.dir) / AuditCheckpointFileName("auditor")).string();
  std::optional<Bytes> original = LogStore::ReadAuxFile(ckpt_path);
  ASSERT_TRUE(original.has_value());

  // (a) Bit corruption: payload digest mismatch -> unparseable -> cold.
  Bytes corrupt = *original;
  corrupt[corrupt.size() / 2] ^= 0x40;
  LogStore::WriteAuxFile(ckpt_path, corrupt, false);
  ResumeInfo corrupt_info;
  AuditOutcome after_corrupt =
      auditor.AuditFull(fx.scenario->server(), *fx.store,
                        fx.scenario->reference_server_image(), fx.auths, fx.dir,
                        &corrupt_info);
  EXPECT_FALSE(corrupt_info.resumed);
  EXPECT_TRUE(corrupt_info.checkpoint_rejected);
  ExpectSameVerdict(clean, after_corrupt, "corrupt-ckpt");

  // (b) A *forged* checkpoint: internally consistent (rebuilt digest)
  // but moved watermark — the auditee trying to shrink the audited
  // range. Without the auditor's key the signature cannot be fixed up,
  // so validation rejects it and the audit runs from genesis.
  AuditCheckpoint forged = AuditCheckpoint::Deserialize(*original);
  forged.seq -= 1;  // Any field change invalidates the signature.
  LogStore::WriteAuxFile(ckpt_path, forged.Serialize(), false);
  ResumeInfo forged_info;
  AuditOutcome after_forged =
      auditor.AuditFull(fx.scenario->server(), *fx.store,
                        fx.scenario->reference_server_image(), fx.auths, fx.dir,
                        &forged_info);
  EXPECT_FALSE(forged_info.resumed);
  EXPECT_TRUE(forged_info.checkpoint_rejected);
  EXPECT_NE(forged_info.reject_reason.find("signature"), std::string::npos)
      << forged_info.reject_reason;
  ExpectSameVerdict(clean, after_forged, "forged-ckpt");

  // (c) A stale checkpoint from a *different* run of the "same" node
  // (different seed -> different history): the watermark chain hash
  // does not match this log.
  {
    KvFixture other(RunConfig::AvmmRsa768(), "forged_other", 2 * kMicrosPerSecond,
                    /*seed=*/99);
    KeyRegistry other_registry = other.scenario->registry();  // Its own node keys.
    other_registry.RegisterSigner(auditor_signer);
    Auditor other_auditor("auditor", &other_registry, SeqCfg(), ck);
    ResumeInfo oinfo;
    other_auditor.AuditFull(other.scenario->server(), *other.store,
                            other.scenario->reference_server_image(), other.auths, other.dir,
                            &oinfo);
    ASSERT_GT(oinfo.checkpoints_written, 0u);
    std::optional<Bytes> stale = LogStore::ReadAuxFile(
        (fs::path(other.dir) / AuditCheckpointFileName("auditor")).string());
    ASSERT_TRUE(stale.has_value());
    LogStore::WriteAuxFile(ckpt_path, *stale, false);
  }
  ResumeInfo stale_info;
  AuditOutcome after_stale =
      auditor.AuditFull(fx.scenario->server(), *fx.store,
                        fx.scenario->reference_server_image(), fx.auths, fx.dir, &stale_info);
  EXPECT_FALSE(stale_info.resumed);
  EXPECT_TRUE(stale_info.checkpoint_rejected);
  ExpectSameVerdict(clean, after_stale, "stale-ckpt");
}

// Checkpoint files coexist with store recovery: a reopened store keeps
// them readable, and an interrupted checkpoint write (*.tmp) is swept.
TEST(CheckpointedAudit, CheckpointSurvivesStoreReopenAndTmpIsSwept) {
  KvFixture fx(RunConfig::AvmmNoSig(), "reopen", kMicrosPerSecond);
  CheckpointConfig ck;
  ck.every_entries = 300;
  Auditor auditor("auditor", &fx.scenario->registry(), SeqCfg(), ck);
  ResumeInfo info;
  AuditOutcome first =
      auditor.AuditFull(fx.scenario->server(), *fx.store,
                        fx.scenario->reference_server_image(), fx.auths, fx.dir, &info);
  ASSERT_TRUE(first.ok);
  ASSERT_GT(info.checkpoints_written, 0u);

  // Simulate a crash mid-checkpoint-write next to a completed one.
  std::string tmp_path =
      (fs::path(fx.dir) / (AuditCheckpointFileName("auditor") + ".tmp")).string();
  Bytes junk = ToBytes("torn checkpoint write");
  {
    std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(junk.data(), 1, junk.size(), f);
    std::fclose(f);
  }

  fx.scenario->server().SpillTo(nullptr);  // The old sink is going away.
  fx.store.reset();
  LogStoreOptions opts;
  opts.sync = false;
  fx.store = LogStore::Open(fx.dir, opts);  // Node name from store.meta.
  EXPECT_FALSE(fs::exists(tmp_path)) << "recovery must sweep interrupted aux writes";
  ASSERT_TRUE(LoadAuditCheckpoint(fx.dir, "auditor").has_value());

  ResumeInfo resumed_info;
  AuditOutcome resumed =
      auditor.AuditFull(fx.scenario->server(), *fx.store,
                        fx.scenario->reference_server_image(), fx.auths, fx.dir,
                        &resumed_info);
  EXPECT_TRUE(resumed_info.resumed);
  ExpectSameVerdict(first, resumed, "reopen");
}

// ------------------------------------------------------------ Fleet ----

FleetAuditConfig FleetCfg(unsigned workers) {
  FleetAuditConfig cfg;
  cfg.workers = workers;
  cfg.audit = SeqCfg();
  cfg.checkpoint.every_entries = 300;
  return cfg;
}

void RegisterAll(FleetAuditService& service, FleetScenario& fleet) {
  for (FleetScenario::AuditeeRef& a : fleet.Auditees()) {
    FleetAuditService::Registration reg;
    reg.node = a.global_name;
    reg.target = a.avmm;
    reg.source = a.store;
    reg.reference_image = *a.reference_image;
    reg.auths = a.collect_auths();
    reg.checkpoint_dir = a.store->dir();
    reg.registry = a.registry;
    service.RegisterAuditee(std::move(reg));
  }
}

TEST(FleetAudit, OneCheaterAmongHonestAuditeesIsIsolated) {
  FleetScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();
  cfg.num_games = 2;
  cfg.players_per_game = 2;
  cfg.num_kv = 1;
  cfg.seed = 5;
  cfg.game.client.render_iters = 300;
  cfg.cheats[{0, 1}] = RunnableCheat::kTeleport;  // g0/player2 cheats.
  FleetScenario fleet(cfg);
  fleet.Start();
  std::string base = TempDir("fleet_cheater");
  fleet.SpillLogsTo(base);
  fleet.RunFor(1500 * kMicrosPerMilli);
  fleet.Finish();

  FleetAuditService service(nullptr, FleetCfg(3));
  RegisterAll(service, fleet);
  EXPECT_EQ(service.auditee_count(), 7u);  // 2*(1 server + 2 players) + 1 kv.

  std::map<NodeId, uint64_t> jobs;
  for (const FleetScenario::AuditeeRef& a : fleet.Auditees()) {
    jobs[a.global_name] = service.SubmitFullAudit(a.global_name);
  }
  service.Drain();

  const NodeId cheater = "g0/player2";
  for (FleetScenario::AuditeeRef& a : fleet.Auditees()) {
    std::optional<FleetJobResult> r = service.Result(jobs[a.global_name]);
    ASSERT_TRUE(r.has_value()) << a.global_name;
    // Every fleet verdict equals the direct single-auditee audit.
    Auditor direct("auditor", a.registry, SeqCfg());
    AuditOutcome expect =
        direct.AuditFull(*a.avmm, *a.store, *a.reference_image, a.collect_auths());
    ExpectSameVerdict(expect, r->outcome, a.global_name);
    if (a.global_name == cheater) {
      EXPECT_FALSE(r->outcome.ok) << "cheater must be detected";
    } else {
      EXPECT_TRUE(r->outcome.ok) << a.global_name << ": " << r->outcome.Describe();
    }
  }
  EXPECT_EQ(service.stats().faults_detected, 1u);
  EXPECT_EQ(service.stats().audits_cold, 7u);

  // Second round: every audit resumes from its checkpoint and the
  // verdicts do not move.
  std::map<NodeId, uint64_t> jobs2;
  for (const FleetScenario::AuditeeRef& a : fleet.Auditees()) {
    jobs2[a.global_name] = service.SubmitFullAudit(a.global_name);
  }
  service.Drain();
  uint64_t resumed_count = 0;
  for (FleetScenario::AuditeeRef& a : fleet.Auditees()) {
    std::optional<FleetJobResult> r1 = service.Result(jobs[a.global_name]);
    std::optional<FleetJobResult> r2 = service.Result(jobs2[a.global_name]);
    ASSERT_TRUE(r2.has_value());
    ExpectSameVerdict(r1->outcome, r2->outcome, a.global_name + "/round2");
    if (r2->resume.resumed) {
      resumed_count++;
      EXPECT_LT(r2->resume.entries_scanned, r1->resume.entries_scanned) << a.global_name;
    }
  }
  EXPECT_GT(resumed_count, 0u);
  EXPECT_EQ(service.stats().audits_resumed, resumed_count);
  EXPECT_GT(service.stats().entries_skipped, 0u);

  fs::remove_all(base);
}

// Registration::checkpoint_store routes the auditor's checkpoint
// captures through the store's batched-fsync path (one group commit
// covers both the log tail and the checkpoint) instead of a per-file
// fsync. Same checkpoints, same resumes -- cheaper disk schedule.
TEST(FleetAudit, CheckpointsThroughStoreBatchedPathResume) {
  FleetScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();
  cfg.num_games = 1;
  cfg.players_per_game = 2;
  cfg.num_kv = 0;
  cfg.seed = 11;
  cfg.game.client.render_iters = 300;
  FleetScenario fleet(cfg);
  fleet.Start();
  std::string base = TempDir("ckpt_batched");
  fleet.SpillLogsTo(base);
  fleet.RunFor(1500 * kMicrosPerMilli);
  fleet.Finish();

  FleetAuditService service(nullptr, FleetCfg(2));
  for (FleetScenario::AuditeeRef& a : fleet.Auditees()) {
    FleetAuditService::Registration reg;
    reg.node = a.global_name;
    reg.target = a.avmm;
    reg.source = a.store;
    reg.reference_image = *a.reference_image;
    reg.auths = a.collect_auths();
    reg.checkpoint_dir = a.store->dir();
    reg.checkpoint_store = a.store;  // Batched captures.
    reg.registry = a.registry;
    service.RegisterAuditee(std::move(reg));
  }

  std::map<NodeId, uint64_t> jobs;
  for (const FleetScenario::AuditeeRef& a : fleet.Auditees()) {
    jobs[a.global_name] = service.SubmitFullAudit(a.global_name);
  }
  service.Drain();
  ASSERT_GT(service.stats().checkpoints_written, 0u);
  // The captures are real files in the store directory, readable
  // through the same aux-file API recovery sweeps.
  size_t ckpt_files = 0;
  for (FleetScenario::AuditeeRef& a : fleet.Auditees()) {
    for (const fs::directory_entry& de : fs::directory_iterator(a.store->dir())) {
      if (de.path().extension() == ".ckpt") {
        ckpt_files++;
        EXPECT_TRUE(LogStore::ReadAuxFile(de.path().string()).has_value());
      }
    }
  }
  EXPECT_GT(ckpt_files, 0u);

  // Round 2 resumes from the batched-path checkpoints with identical
  // verdicts -- the capture path changed nothing an auditor can see.
  std::map<NodeId, uint64_t> jobs2;
  for (const FleetScenario::AuditeeRef& a : fleet.Auditees()) {
    jobs2[a.global_name] = service.SubmitFullAudit(a.global_name);
  }
  service.Drain();
  uint64_t resumed_count = 0;
  for (FleetScenario::AuditeeRef& a : fleet.Auditees()) {
    std::optional<FleetJobResult> r1 = service.Result(jobs[a.global_name]);
    std::optional<FleetJobResult> r2 = service.Result(jobs2[a.global_name]);
    ASSERT_TRUE(r1.has_value() && r2.has_value()) << a.global_name;
    ExpectSameVerdict(r1->outcome, r2->outcome, a.global_name + "/batched-resume");
    EXPECT_TRUE(r2->outcome.ok) << a.global_name << ": " << r2->outcome.Describe();
    if (r2->resume.resumed) {
      resumed_count++;
    }
  }
  EXPECT_GT(resumed_count, 0u);

  fs::remove_all(base);
}

TEST(FleetAudit, PrioritiesAndRoundRobinFairness) {
  FleetScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();
  cfg.num_games = 1;
  cfg.players_per_game = 2;
  cfg.num_kv = 1;
  cfg.seed = 9;
  cfg.game.client.render_iters = 300;
  FleetScenario fleet(cfg);
  fleet.Start();
  std::string base = TempDir("fleet_fair");
  fleet.SpillLogsTo(base);
  fleet.RunFor(800 * kMicrosPerMilli);
  fleet.Finish();

  FleetAuditConfig fcfg = FleetCfg(1);  // One worker: total order.
  fcfg.start_paused = true;
  FleetAuditService service(nullptr, fcfg);
  RegisterAll(service, fleet);

  const NodeId a = "g0/player1", b = "g0/player2", c = "kv0/kvserver";
  // Submission order deliberately scrambles priorities.
  uint64_t a_low1 = service.SubmitFullAudit(a, FleetPriority::kLow);
  uint64_t a_low2 = service.SubmitFullAudit(a, FleetPriority::kLow);
  uint64_t b_norm1 = service.SubmitFullAudit(b, FleetPriority::kNormal);
  uint64_t b_norm2 = service.SubmitFullAudit(b, FleetPriority::kNormal);
  uint64_t c_high = service.SubmitFullAudit(c, FleetPriority::kHigh);
  uint64_t a_high = service.SubmitFullAudit(a, FleetPriority::kHigh);
  service.Resume();
  service.Drain();

  auto order = [&](uint64_t id) { return service.Result(id)->completion_index; };
  // Highs first (submission order among equals), then normals, lows last.
  EXPECT_EQ(order(c_high), 0u);
  EXPECT_EQ(order(a_high), 1u);
  EXPECT_EQ(order(b_norm1), 2u);
  EXPECT_EQ(order(b_norm2), 3u);
  EXPECT_EQ(order(a_low1), 4u);
  EXPECT_EQ(order(a_low2), 5u);

  // Round robin across auditees at equal priority: a,b,c interleave
  // even though each auditee submitted its jobs back to back.
  FleetAuditConfig fcfg2 = FleetCfg(1);
  fcfg2.start_paused = true;
  FleetAuditService rr(nullptr, fcfg2);
  RegisterAll(rr, fleet);
  std::vector<uint64_t> ids;
  for (const NodeId& n : {a, a, b, b, c, c}) {
    ids.push_back(rr.SubmitFullAudit(n));
  }
  rr.Resume();
  rr.Drain();
  auto rr_order = [&](size_t i) { return rr.Result(ids[i])->completion_index; };
  EXPECT_EQ(rr_order(0), 0u);  // a1
  EXPECT_EQ(rr_order(2), 1u);  // b1 (a was just served)
  EXPECT_EQ(rr_order(4), 2u);  // c1
  EXPECT_EQ(rr_order(1), 3u);  // a2
  EXPECT_EQ(rr_order(3), 4u);  // b2
  EXPECT_EQ(rr_order(5), 5u);  // c2

  fs::remove_all(base);
}

TEST(FleetAudit, VerdictsIndependentOfWorkerCountAndSpotChecksRun) {
  FleetScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();
  cfg.num_games = 1;
  cfg.players_per_game = 2;
  cfg.num_kv = 2;
  cfg.seed = 13;
  cfg.game.client.render_iters = 300;
  cfg.kv.snapshot_interval = 200 * kMicrosPerMilli;  // Several spot windows.
  FleetScenario fleet(cfg);
  fleet.Start();
  std::string base = TempDir("fleet_workers");
  fleet.SpillLogsTo(base);
  fleet.RunFor(kMicrosPerSecond);
  fleet.Finish();

  std::map<NodeId, AuditOutcome> verdicts[2];
  for (int round = 0; round < 2; round++) {
    FleetAuditConfig fcfg = FleetCfg(round == 0 ? 1 : 4);
    fcfg.checkpoint.every_entries = 0;  // Isolate: sharding only.
    FleetAuditService service(nullptr, fcfg);
    RegisterAll(service, fleet);
    std::map<NodeId, uint64_t> jobs;
    for (const FleetScenario::AuditeeRef& a : fleet.Auditees()) {
      jobs[a.global_name] = service.SubmitFullAudit(a.global_name);
    }
    // Spot checks shard across the same workers (kv servers snapshot).
    uint64_t spot = service.SubmitSpotCheck("kv0/kvserver", 1, 2);
    service.Drain();
    for (const auto& [node, id] : jobs) {
      verdicts[round][node] = service.Result(id)->outcome;
    }
    std::optional<FleetJobResult> sr = service.Result(spot);
    ASSERT_TRUE(sr.has_value());
    EXPECT_TRUE(sr->outcome.ok) << sr->outcome.Describe();
  }
  for (const auto& [node, outcome] : verdicts[0]) {
    ExpectSameVerdict(outcome, verdicts[1][node], node + "/worker-count");
  }
  fs::remove_all(base);
}

TEST(FleetAudit, OnlinePollsTrackLagAndSurfaceRewind) {
  KvFixture fx(RunConfig::AvmmNoSig(), "fleet_online", kMicrosPerSecond);
  // A shrinkable view models the auditee crashing + truncating.
  class Shrinkable final : public SegmentSource {
   public:
    explicit Shrinkable(const SegmentSource& inner) : inner_(&inner) {}
    void ShrinkTo(uint64_t last) { forced_ = last; }
    const NodeId& node() const override { return inner_->node(); }
    uint64_t LastSeq() const override { return std::min(forced_, inner_->LastSeq()); }
    LogSegment Extract(uint64_t f, uint64_t t) const override { return inner_->Extract(f, t); }
    void Scan(uint64_t f, uint64_t t, const EntryVisitor& v) const override {
      inner_->Scan(f, t, v);
    }

   private:
    const SegmentSource* inner_;
    uint64_t forced_ = UINT64_MAX;
  } shrinkable(*fx.store);

  FleetAuditService service(&fx.scenario->registry(), FleetCfg(1));
  FleetAuditService::Registration reg;
  reg.node = "kv/server";
  reg.target = &fx.scenario->server();
  reg.source = &shrinkable;
  reg.reference_image = fx.scenario->reference_server_image();
  reg.auths = fx.auths;
  service.RegisterAuditee(std::move(reg));

  uint64_t poll1 = service.SubmitOnlinePoll("kv/server");
  service.Drain();
  std::optional<FleetJobResult> r1 = service.Result(poll1);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->online_status, OnlinePollStatus::kAdvanced);
  EXPECT_TRUE(r1->outcome.ok) << r1->outcome.Describe();
  EXPECT_EQ(r1->online_lag_entries, 0u);

  shrinkable.ShrinkTo(fx.store->LastSeq() / 2);
  uint64_t poll2 = service.SubmitOnlinePoll("kv/server");
  service.Drain();
  std::optional<FleetJobResult> r2 = service.Result(poll2);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->online_status, OnlinePollStatus::kTargetRewound);
  EXPECT_EQ(service.stats().targets_rewound, 1u);
  EXPECT_EQ(service.stats().online_polls, 2u);
}

}  // namespace
}  // namespace avm
