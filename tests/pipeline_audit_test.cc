// Pipelined-audit parity: AuditConfig::pipelined overlaps the syntactic
// check with deterministic replay (and, store-backed, streams chunk i+1
// through the checks while chunk i replays), and every verdict — audit,
// spot check, evidence, failure reason and seq — must be bit-for-bit
// the sequential path's at every thread count and chunk size.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>

#include "src/audit/checkpoint.h"
#include "src/audit/pipeline.h"
#include "src/obs/metrics.h"
#include "src/sim/scenario.h"
#include "src/store/log_store.h"
#include "src/util/serde.h"
#include "src/vm/analysis/cfg.h"
#include "src/vm/assembler.h"
#include "src/vm/jit/jit.h"

namespace avm {
namespace {

namespace fs = std::filesystem;

void ExpectSameOutcome(const AuditOutcome& a, const AuditOutcome& b, const std::string& what) {
  EXPECT_EQ(a.ok, b.ok) << what;
  EXPECT_EQ(a.syntactic.ok, b.syntactic.ok) << what;
  EXPECT_EQ(a.syntactic.reason, b.syntactic.reason) << what;
  EXPECT_EQ(a.syntactic.bad_seq, b.syntactic.bad_seq) << what;
  EXPECT_EQ(a.semantic.ok, b.semantic.ok) << what;
  EXPECT_EQ(a.semantic.reason, b.semantic.reason) << what;
  EXPECT_EQ(a.semantic.diverged_seq, b.semantic.diverged_seq) << what;
  EXPECT_EQ(a.semantic.replay_icount, b.semantic.replay_icount) << what;
  EXPECT_EQ(a.semantic.instructions_replayed, b.semantic.instructions_replayed) << what;
  EXPECT_EQ(a.log_bytes, b.log_bytes) << what;
  ASSERT_EQ(a.evidence.has_value(), b.evidence.has_value()) << what;
  if (a.evidence.has_value()) {
    EXPECT_EQ(static_cast<int>(a.evidence->kind), static_cast<int>(b.evidence->kind)) << what;
    EXPECT_EQ(a.evidence->accused, b.evidence->accused) << what;
    EXPECT_EQ(a.evidence->claim, b.evidence->claim) << what;
    EXPECT_EQ(a.evidence->segment, b.evidence->segment) << what;
  }
}

// The independent reference every engine verdict is checked against:
// the whole-segment primitives VerifyEvidence runs, composed over the
// extracted segment (authenticators -> message stream -> attested
// inputs -> replay).
AuditOutcome PrimitiveReference(const LogSegment& seg, std::span<const Authenticator> auths,
                                const KeyRegistry& registry, const AuditConfig& cfg,
                                ByteView image, const MaterializedState* start = nullptr) {
  AuditOutcome ref;
  ref.log_bytes = seg.SerializedSize();
  ref.syntactic = VerifyAgainstAuthenticators(seg, auths, registry);
  if (ref.syntactic.ok) {
    ref.syntactic = SyntacticMessageCheck(seg, registry, cfg);
  }
  if (ref.syntactic.ok && cfg.attested_input) {
    ref.syntactic = VerifyAttestedInputs(seg, registry);
  }
  if (ref.syntactic.ok) {
    ref.semantic = start != nullptr ? ReplaySegment(seg, *start)
                                    : ReplaySegment(seg, image, cfg.mem_size);
  }
  ref.ok = ref.syntactic.ok && ref.semantic.ok;
  return ref;
}

void ExpectMatchesReference(const AuditOutcome& a, const AuditOutcome& ref,
                            const std::string& what) {
  EXPECT_EQ(a.ok, ref.ok) << what;
  EXPECT_EQ(a.syntactic.ok, ref.syntactic.ok) << what;
  EXPECT_EQ(a.syntactic.reason, ref.syntactic.reason) << what;
  EXPECT_EQ(a.syntactic.bad_seq, ref.syntactic.bad_seq) << what;
  EXPECT_EQ(a.semantic.ok, ref.semantic.ok) << what;
  EXPECT_EQ(a.semantic.reason, ref.semantic.reason) << what;
  EXPECT_EQ(a.semantic.diverged_seq, ref.semantic.diverged_seq) << what;
  EXPECT_EQ(a.semantic.replay_icount, ref.semantic.replay_icount) << what;
  EXPECT_EQ(a.log_bytes, ref.log_bytes) << what;
}

AuditConfig MakeConfig(size_t mem_size, unsigned threads, bool pipelined,
                       size_t chunk_entries = 2048) {
  AuditConfig cfg;
  cfg.mem_size = mem_size;
  cfg.threads = threads;
  cfg.pipelined = pipelined;
  cfg.pipeline_chunk_entries = chunk_entries;
  return cfg;
}

// An in-memory SegmentSource over an arbitrary (possibly tampered)
// segment: what a dishonest machine would ship to the auditor.
class VectorSegmentSource final : public SegmentSource {
 public:
  explicit VectorSegmentSource(LogSegment seg) : seg_(std::move(seg)) {}

  const NodeId& node() const override { return seg_.node; }
  uint64_t LastSeq() const override { return seg_.LastSeq(); }
  LogSegment Extract(uint64_t from_seq, uint64_t to_seq) const override {
    const uint64_t first = seg_.FirstSeq();
    if (from_seq < first || to_seq > seg_.LastSeq() || from_seq > to_seq) {
      throw std::out_of_range("VectorSegmentSource::Extract: bad range");
    }
    LogSegment out;
    out.node = seg_.node;
    out.prior_hash =
        from_seq == first ? seg_.prior_hash : seg_.entries[from_seq - first - 1].hash;
    out.entries.assign(seg_.entries.begin() + static_cast<ptrdiff_t>(from_seq - first),
                       seg_.entries.begin() + static_cast<ptrdiff_t>(to_seq - first + 1));
    return out;
  }
  void Scan(uint64_t from_seq, uint64_t to_seq, const EntryVisitor& visit) const override {
    for (uint64_t s = from_seq; s <= to_seq; s++) {
      if (!visit(seg_.entries[s - seg_.FirstSeq()])) {
        return;
      }
    }
  }

 private:
  LogSegment seg_;
};

void Rechain(LogSegment& seg) {
  Hash256 prev = seg.prior_hash;
  for (LogEntry& e : seg.entries) {
    e.hash = ChainHash(prev, e.seq, e.type, e.content);
    prev = e.hash;
  }
}

// One recorded solo AVMM everything below audits (recording is the
// expensive part; the parity sweeps only re-audit).
class PipelineAuditTest : public ::testing::Test {
 protected:
  PipelineAuditTest() : rng_(9), signer_("solo", SignatureScheme::kNone, rng_) {
    registry_.RegisterSigner(signer_);
  }

  void RecordSolo(int quanta = 40, int inputs = 25) {
    image_ = Assemble(R"(
      jmp main
      jmp irqh
  irqh:
      iret
  main:
      movi r0, 0
  loop:
      in r1, CLOCK_LO
      in r2, RAND
      in r3, INPUT
      add r1, r2
      add r1, r3
      out r1, DEBUG
      movi r4, 150
  work:
      addi r4, -1
      bne r4, r0, work
      jmp loop
    )");
    node_ = std::make_unique<Avmm>("solo", RunConfig::AvmmNoSig(), image_, &signer_, &net_,
                                   &registry_);
    node_->AddPeer("solo");
    for (int i = 0; i < inputs; i++) {
      node_->PushInput(static_cast<uint32_t>(i % 7 + 1));
    }
    SimTime now = 0;
    for (int i = 0; i < quanta; i++) {
      node_->RunQuantum(now, 1000);
      now += 1000;
    }
    node_->Finish(now);
    ASSERT_GT(node_->log().size(), 40u);
  }

  LogSegment WholeSegment() const {
    return node_->log().Extract(1, node_->log().LastSeq());
  }

  Authenticator AuthFor(const LogSegment& seg) const {
    return Authenticator{"solo", seg.LastSeq(), seg.entries.back().hash, {}};
  }

  // Audits `source` with the sequential phases and with the pipeline at
  // several thread counts / chunk sizes; all outcomes must agree with
  // the sequential threads=1 baseline, and the baseline with the
  // whole-segment primitives. Returns the baseline.
  AuditOutcome ExpectParity(const SegmentSource& source, std::span<const Authenticator> auths,
                            const std::string& what) {
    Auditor base("auditor", &registry_, MakeConfig(kMem, 1, false));
    AuditOutcome baseline = base.AuditFull(*node_, source, image_, auths);
    ExpectMatchesReference(baseline,
                           PrimitiveReference(source.Extract(1, source.LastSeq()), auths,
                                              registry_, base.config(), image_),
                           what + " vs primitives");
    for (unsigned threads : {2u, 4u}) {
      for (size_t chunk : {size_t{7}, size_t{2048}}) {
        Auditor seq("auditor", &registry_, MakeConfig(kMem, threads, false, chunk));
        Auditor pipe("auditor", &registry_, MakeConfig(kMem, threads, true, chunk));
        ExpectSameOutcome(baseline, seq.AuditFull(*node_, source, image_, auths),
                          what + " sequential threads=" + std::to_string(threads));
        ExpectSameOutcome(baseline, pipe.AuditFull(*node_, source, image_, auths),
                          what + " pipelined threads=" + std::to_string(threads) +
                              " chunk=" + std::to_string(chunk));
      }
    }
    return baseline;
  }

  static constexpr size_t kMem = 256 * 1024;

  Prng rng_;
  Signer signer_;
  KeyRegistry registry_;
  SimNetwork net_;
  Bytes image_;
  std::unique_ptr<Avmm> node_;
};

TEST_F(PipelineAuditTest, HonestLogPassesIdentically) {
  RecordSolo();
  LogSegment seg = WholeSegment();
  std::vector<Authenticator> auths = {AuthFor(seg)};
  VectorSegmentSource source(std::move(seg));
  AuditOutcome base = ExpectParity(source, auths, "honest");
  EXPECT_TRUE(base.ok) << base.Describe();
  EXPECT_GT(base.semantic.instructions_replayed, 10000u);
}

TEST_F(PipelineAuditTest, TamperedTraceValueFailsSemanticallyIdentically) {
  RecordSolo();
  LogSegment seg = WholeSegment();
  // Rewrite one recorded clock value and rebuild the chain + issue a
  // fresh commitment, so only replay can catch it (the paper's "machine
  // forges a nondeterministic input" case).
  bool patched = false;
  for (LogEntry& e : seg.entries) {
    if (e.type == EntryType::kTraceTime && e.seq > 20 && !patched) {
      TraceEvent ev = TraceEvent::Deserialize(e.content);
      ev.value += 1;
      e.content = ev.Serialize();
      patched = true;
    }
  }
  ASSERT_TRUE(patched);
  Rechain(seg);
  std::vector<Authenticator> auths = {AuthFor(seg)};
  VectorSegmentSource source(std::move(seg));
  AuditOutcome base = ExpectParity(source, auths, "tampered-trace");
  EXPECT_FALSE(base.ok);
  EXPECT_TRUE(base.syntactic.ok);  // Syntactically clean...
  EXPECT_FALSE(base.semantic.ok);  // ...the divergence is semantic.
  ASSERT_TRUE(base.evidence.has_value());
  EXPECT_EQ(static_cast<int>(base.evidence->kind),
            static_cast<int>(EvidenceKind::kReplayDivergence));
}

TEST_F(PipelineAuditTest, JitReplayVerdictsMatchInterpreter) {
  // The semantic check through the JIT tier (AuditConfig::jit_replay,
  // the default) must produce the bit-for-bit outcome of the reference
  // Step() loop — on an honest log and, more importantly,
  // on a tampered one, where the divergence seq and evidence must not
  // move between tiers.
  RecordSolo();
  LogSegment honest = WholeSegment();
  LogSegment tampered = honest;
  bool patched = false;
  for (LogEntry& e : tampered.entries) {
    if (e.type == EntryType::kTraceTime && e.seq > 20 && !patched) {
      TraceEvent ev = TraceEvent::Deserialize(e.content);
      ev.value += 1;
      e.content = ev.Serialize();
      patched = true;
    }
  }
  ASSERT_TRUE(patched);
  Rechain(tampered);

  struct Case {
    const char* what;
    LogSegment seg;
    bool expect_ok;
  };
  for (Case& c : std::vector<Case>{{"honest", std::move(honest), true},
                                   {"tampered", std::move(tampered), false}}) {
    std::vector<Authenticator> auths = {AuthFor(c.seg)};
    VectorSegmentSource source(std::move(c.seg));
    AuditConfig jit_cfg = MakeConfig(kMem, 1, false);
    AuditConfig interp_cfg = MakeConfig(kMem, 1, false);
    interp_cfg.jit_replay = false;
    Auditor jit("auditor", &registry_, jit_cfg);
    Auditor interp("auditor", &registry_, interp_cfg);
    AuditOutcome jit_out = jit.AuditFull(*node_, source, image_, auths);
    AuditOutcome interp_out = interp.AuditFull(*node_, source, image_, auths);
    ExpectSameOutcome(jit_out, interp_out, std::string("jit-vs-interp ") + c.what);
    EXPECT_EQ(jit_out.ok, c.expect_ok) << c.what << ": " << jit_out.Describe();
  }
}

TEST_F(PipelineAuditTest, BrokenChainFailsIdentically) {
  RecordSolo(20);
  LogSegment seg = WholeSegment();
  const uint64_t victim = seg.LastSeq() / 2;
  seg.entries[victim - 1].content.push_back(0x5a);  // No re-chain: chain breaks.
  std::vector<Authenticator> auths = {AuthFor(seg)};
  VectorSegmentSource source(std::move(seg));
  AuditOutcome base = ExpectParity(source, auths, "broken-chain");
  EXPECT_FALSE(base.ok);
  EXPECT_EQ(base.syntactic.reason, "hash chain broken");
  EXPECT_EQ(base.syntactic.bad_seq, victim);
}

TEST_F(PipelineAuditTest, ChainBreakOutranksEarlierMessageFailure) {
  // A message-stream failure early in the log plus a chain break later:
  // the sequential composition runs the whole chain check first, so the
  // chain break is the verdict — the pipelined checker must not report
  // the (earlier-seq) message failure instead.
  RecordSolo(30);
  LogSegment seg = WholeSegment();
  const uint64_t smc_victim = 10;
  seg.entries[smc_victim - 1].type = EntryType::kSend;  // Garbage SEND: malformed.
  Rechain(seg);
  const uint64_t chain_victim = seg.LastSeq() - 3;
  seg.entries[chain_victim - 1].content.push_back(0x5a);  // Breaks the chain.
  std::vector<Authenticator> auths = {AuthFor(seg)};
  VectorSegmentSource source(std::move(seg));
  AuditOutcome base = ExpectParity(source, auths, "smc-then-chain");
  EXPECT_FALSE(base.ok);
  EXPECT_EQ(base.syntactic.reason, "hash chain broken");
  EXPECT_EQ(base.syntactic.bad_seq, chain_victim);
  // The syntactic triage walks the log as AuditFull does, so it reports
  // the same phase-priority verdict, not the earlier-seq message failure.
  CheckResult triage =
      StreamingSyntacticCheck(source, auths, registry_, MakeConfig(kMem, 1, false));
  EXPECT_EQ(triage.reason, base.syntactic.reason);
  EXPECT_EQ(triage.bad_seq, base.syntactic.bad_seq);

  // Sanity: with the chain repaired, the same log fails on the message
  // stream instead — again identically in every mode.
  LogSegment repaired = WholeSegment();
  repaired.entries[smc_victim - 1].type = EntryType::kSend;
  Rechain(repaired);
  std::vector<Authenticator> auths2 = {AuthFor(repaired)};
  VectorSegmentSource source2(std::move(repaired));
  AuditOutcome base2 = ExpectParity(source2, auths2, "smc-only");
  EXPECT_FALSE(base2.ok);
  EXPECT_EQ(base2.syntactic.reason, "malformed SEND entry");
  EXPECT_EQ(base2.syntactic.bad_seq, smc_victim);
}

TEST_F(PipelineAuditTest, AuthenticatorFailuresReportedInSpanOrder) {
  RecordSolo(20);
  LogSegment seg = WholeSegment();
  const uint64_t last = seg.LastSeq();
  // Two tampered authenticators: the span's FIRST one names a LATE seq.
  // The sequential scan reports failures in span order, not seq order;
  // the chunked checker streams seqs in order and must still agree.
  Authenticator good = AuthFor(seg);
  Authenticator bad_late{"solo", last - 2, Hash256::Zero(), {}};
  Authenticator bad_early{"solo", 5, Hash256::Zero(), {}};
  std::vector<Authenticator> auths = {bad_late, bad_early, good};
  VectorSegmentSource source(std::move(seg));
  AuditOutcome base = ExpectParity(source, auths, "auth-span-order");
  EXPECT_FALSE(base.ok);
  EXPECT_EQ(base.syntactic.reason, "log does not match issued authenticator (tamper or fork)");
  EXPECT_EQ(base.syntactic.bad_seq, last - 2);
}

TEST_F(PipelineAuditTest, InvalidAuthenticatorSignatureFailsIdentically) {
  // A garbage signature (under the kNone scheme, any nonempty one) must
  // fail "authenticator signature invalid" in every mode — and in the
  // pipelined streaming path it also gates replay off entirely, so a
  // forged log cannot buy an attacker a full replay.
  RecordSolo(15);
  LogSegment seg = WholeSegment();
  Authenticator forged = AuthFor(seg);
  forged.signature = {0xde, 0xad};
  std::vector<Authenticator> auths = {forged};
  const uint64_t last = seg.LastSeq();
  VectorSegmentSource source(std::move(seg));
  AuditOutcome base = ExpectParity(source, auths, "bad-auth-sig");
  EXPECT_FALSE(base.ok);
  EXPECT_EQ(base.syntactic.reason, "authenticator signature invalid");
  EXPECT_EQ(base.syntactic.bad_seq, last);
}

TEST_F(PipelineAuditTest, NoCoveringAuthenticatorFailsIdentically) {
  RecordSolo(15);
  LogSegment seg = WholeSegment();
  std::vector<Authenticator> auths;  // Nothing covers the log.
  VectorSegmentSource source(std::move(seg));
  AuditOutcome base = ExpectParity(source, auths, "no-auth");
  EXPECT_FALSE(base.ok);
  EXPECT_EQ(base.syntactic.reason,
            "no authenticator covers the segment; cannot establish authenticity");
}

// --- store-backed: multi-segment logs on disk --------------------------

class PipelineStoreTest : public PipelineAuditTest {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::path(::testing::TempDir()) / (std::string("avm_pipe_") + info->name())).string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  LogStoreOptions SmallSegments() {
    LogStoreOptions opts;
    opts.seal_threshold_bytes = 1024;  // Many sealed segments even for small logs.
    opts.sync = false;
    return opts;
  }

  std::string dir_;
};

TEST_F(PipelineStoreTest, StoreBackedPipelinedAuditMatchesSequential) {
  auto store_setup = [&] {
    auto store = LogStore::Open(dir_, "solo", SmallSegments());
    return store;
  };
  auto store = store_setup();
  RecordSolo(60, 40);
  node_->SpillTo(store.get());
  node_->log().SetSink(nullptr);
  store->Seal();
  ASSERT_GE(store->SealedCount(), 3u) << "want a multi-segment log";

  LogSegment seg = WholeSegment();
  std::vector<Authenticator> auths = {AuthFor(seg)};
  AuditOutcome base = ExpectParity(*store, auths, "store-backed");
  EXPECT_TRUE(base.ok) << base.Describe();

  // And the store-backed verdict equals the in-memory one.
  Auditor pipe("auditor", &registry_, MakeConfig(kMem, 2, true));
  InMemorySegmentSource mem_source(node_->log());
  ExpectSameOutcome(pipe.AuditFull(*node_, mem_source, image_, auths),
                    pipe.AuditFull(*node_, *store, image_, auths), "store-vs-memory");
}

TEST_F(PipelineStoreTest, CorruptSealedSegmentIsUnreadableIdentically) {
  auto store = LogStore::Open(dir_, "solo", SmallSegments());
  RecordSolo(60, 40);
  node_->SpillTo(store.get());
  node_->log().SetSink(nullptr);
  store->Seal();
  ASSERT_GE(store->SealedCount(), 3u);

  // Flip one byte in the middle of a mid-log sealed segment file.
  std::vector<fs::path> sealed;
  for (const auto& f : fs::directory_iterator(dir_)) {
    if (f.path().extension() == ".seal") {
      sealed.push_back(f.path());
    }
  }
  std::sort(sealed.begin(), sealed.end());
  ASSERT_GE(sealed.size(), 2u);
  const fs::path victim = sealed[sealed.size() / 2];
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(victim) / 2));
    char b;
    f.seekg(f.tellp());
    f.get(b);
    f.seekp(static_cast<std::streamoff>(fs::file_size(victim) / 2));
    f.put(static_cast<char>(b ^ 0x40));
  }

  LogSegment seg = WholeSegment();
  std::vector<Authenticator> auths = {AuthFor(seg)};
  Auditor seq("auditor", &registry_, MakeConfig(kMem, 2, false));
  Auditor pipe("auditor", &registry_, MakeConfig(kMem, 2, true, 64));
  AuditOutcome a = seq.AuditFull(*node_, *store, image_, auths);
  AuditOutcome b = pipe.AuditFull(*node_, *store, image_, auths);
  EXPECT_FALSE(a.ok);
  EXPECT_FALSE(b.ok);
  EXPECT_EQ(a.syntactic.reason, b.syntactic.reason);
  EXPECT_NE(a.syntactic.reason.find("log source unreadable"), std::string::npos)
      << a.syntactic.reason;
  EXPECT_FALSE(a.evidence.has_value());
  EXPECT_FALSE(b.evidence.has_value());

  // The checkpointed driver fails the same way and counts only the
  // entries it checked before the store stopped being readable.
  CheckpointedAuditor ck("auditor", &registry_, MakeConfig(kMem, 2, true, 64));
  ResumeInfo info;
  AuditOutcome c = ck.AuditFull(*node_, *store, image_, auths, "", &info);
  EXPECT_FALSE(c.ok);
  EXPECT_EQ(c.syntactic.reason, a.syntactic.reason);
  EXPECT_FALSE(c.evidence.has_value());
  EXPECT_LT(info.entries_scanned, store->LastSeq());
}

// --- spot-check windows -------------------------------------------------

TEST(PipelineSpotCheck, WindowVerdictsMatchSequentialIncludingCheat) {
  KvScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();
  cfg.seed = 77;
  cfg.snapshot_interval = 200 * kMicrosPerMilli;
  cfg.client.op_period_us = 5 * kMicrosPerMilli;
  KvScenario kv(cfg);
  kv.Start();
  kv.server().SetCheatHook([](Machine& m, SimTime now) {
    if (now == 700 * kMicrosPerMilli) {
      m.WriteMem32(kKvTableAddr + 32, 0xbeef);
    }
  });
  kv.RunFor(2 * kMicrosPerSecond);
  kv.Finish();

  std::vector<SnapshotIndexEntry> snaps = IndexSnapshots(kv.server().log());
  ASSERT_GE(snaps.size(), 4u);
  std::vector<std::pair<uint64_t, uint64_t>> windows;
  for (size_t i = 0; i + 1 < snaps.size(); i++) {
    windows.emplace_back(snaps[i].meta.snapshot_id, snaps[i + 1].meta.snapshot_id);
  }
  std::vector<Authenticator> auths = kv.CollectAuthsForServer();

  auto run_with = [&](bool pipelined) {
    AuditConfig acfg;
    acfg.mem_size = cfg.run.mem_size;
    acfg.threads = 2;
    acfg.pipelined = pipelined;
    Auditor auditor("client", &kv.registry(), acfg);
    std::vector<AuditOutcome> outs;
    for (const auto& w : windows) {
      outs.push_back(auditor.SpotCheck(kv.server(), w.first, w.second, auths));
    }
    return outs;
  };
  std::vector<AuditOutcome> seq = run_with(false);
  std::vector<AuditOutcome> pipe = run_with(true);
  ASSERT_EQ(seq.size(), pipe.size());
  int failures = 0;
  for (size_t i = 0; i < seq.size(); i++) {
    ExpectSameOutcome(seq[i], pipe[i], "window " + std::to_string(i));
    failures += seq[i].ok ? 0 : 1;
  }
  EXPECT_EQ(failures, 1) << "exactly the corrupted window must fail";

  // Each window against the whole-segment primitives, started from the
  // same materialized snapshot with the same endpoint commitment.
  AuditConfig ref_cfg;
  ref_cfg.mem_size = cfg.run.mem_size;
  ref_cfg.strict_message_crossref = false;
  for (size_t i = 0; i < windows.size(); i++) {
    const uint64_t from = snaps[i].seq;
    const uint64_t to = snaps[i + 1].seq;
    std::vector<Authenticator> window_auths = auths;
    window_auths.push_back(kv.server().CommitLogAt(to));
    MaterializedState start =
        kv.server().snapshot_store().Materialize(windows[i].first, cfg.run.mem_size);
    ExpectMatchesReference(seq[i],
                           PrimitiveReference(kv.server().log().Extract(from, to), window_auths,
                                              kv.registry(), ref_cfg, ByteView(), &start),
                           "window " + std::to_string(i) + " vs primitives");
  }
}

// --- the engine over a kv server log on disk ----------------------------

// Records every read an audit makes of the wrapped source.
class CountingSource final : public SegmentSource {
 public:
  using Range = std::pair<uint64_t, uint64_t>;

  explicit CountingSource(const SegmentSource& inner) : inner_(inner) {}

  const NodeId& node() const override { return inner_.node(); }
  uint64_t LastSeq() const override { return inner_.LastSeq(); }
  LogSegment Extract(uint64_t from_seq, uint64_t to_seq) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      extracts_.emplace_back(from_seq, to_seq);
    }
    return inner_.Extract(from_seq, to_seq);
  }
  void Scan(uint64_t from_seq, uint64_t to_seq, const EntryVisitor& visit) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      scans_.emplace_back(from_seq, to_seq);
    }
    inner_.Scan(from_seq, to_seq, visit);
  }

  std::vector<Range> scans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return scans_;
  }
  std::vector<Range> extracts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return extracts_;
  }

 private:
  const SegmentSource& inner_;
  mutable std::mutex mu_;
  mutable std::vector<Range> scans_;
  mutable std::vector<Range> extracts_;
};

// An honest kv server run with periodic snapshots (so spot-check
// windows exist), spilled to a multi-segment store.
class EngineKvTest : public ::testing::Test {
 protected:
  using Range = CountingSource::Range;

  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::path(::testing::TempDir()) / (std::string("avm_engine_") + info->name())).string();
    fs::remove_all(dir_);
    KvScenarioConfig cfg;
    cfg.run = RunConfig::AvmmNoSig();
    cfg.seed = 78;
    cfg.snapshot_interval = 200 * kMicrosPerMilli;
    cfg.client.op_period_us = 5 * kMicrosPerMilli;
    mem_size_ = cfg.run.mem_size;
    kv_ = std::make_unique<KvScenario>(cfg);
    kv_->Start();
    LogStoreOptions opts;
    opts.seal_threshold_bytes = 16 * 1024;
    opts.sync = false;
    store_ = LogStore::Open((fs::path(dir_) / "log").string(), kv_->server().id(), opts);
    kv_->server().SpillTo(store_.get());
    kv_->RunFor(kMicrosPerSecond);
    kv_->Finish();
    kv_->server().log().SetSink(nullptr);
    store_->Seal();
    ASSERT_GE(store_->SealedCount(), 3u);
    auths_ = kv_->CollectAuthsForServer();
    snaps_ = IndexSnapshots(kv_->server().log());
    ASSERT_GE(snaps_.size(), 3u);
  }
  void TearDown() override {
    store_.reset();
    kv_.reset();
    fs::remove_all(dir_);
  }

  AuditConfig Cfg(unsigned threads, bool pipelined, bool jit = true) const {
    AuditConfig cfg = MakeConfig(mem_size_, threads, pipelined, 256);
    cfg.jit_replay = jit;
    return cfg;
  }
  CheckpointConfig Cadence() const {
    CheckpointConfig ck;
    ck.every_entries = store_->LastSeq() / 3 + 1;
    return ck;
  }
  std::string CheckpointDir() const { return (fs::path(dir_) / "ckpt").string(); }
  AuditOutcome Full(Auditor& a, const SegmentSource& source) {
    return a.AuditFull(kv_->server(), source, kv_->reference_server_image(), auths_);
  }
  AuditOutcome Checkpointed(CheckpointedAuditor& a, const SegmentSource& source,
                            ResumeInfo* info) {
    return a.AuditFull(kv_->server(), source, kv_->reference_server_image(), auths_,
                       CheckpointDir(), info);
  }

  std::string dir_;
  size_t mem_size_ = 0;
  std::unique_ptr<KvScenario> kv_;
  std::unique_ptr<LogStore> store_;
  std::vector<Authenticator> auths_;
  std::vector<SnapshotIndexEntry> snaps_;
};

TEST_F(EngineKvTest, JitReplayConfigHonoredOnEveryAuditPath) {
  // AuditConfig::jit_replay = false must keep replay off the JIT on
  // every path; on builds with the JIT tier, true must use it.
  obs::Counter* native_enters = obs::Registry::Global().GetCounter("avm.jit.native_enters");
  InMemorySegmentSource memory(kv_->server().log());
  std::vector<std::pair<uint64_t, uint64_t>> windows;
  for (size_t i = 0; i + 1 < snaps_.size(); i++) {
    windows.emplace_back(snaps_[i].meta.snapshot_id, snaps_[i + 1].meta.snapshot_id);
  }
  for (bool jit : {false, true}) {
    auto expect_tier = [&](const std::string& what, const std::function<bool()>& audit) {
      const uint64_t before = native_enters->Value();
      EXPECT_TRUE(audit()) << what;
      const uint64_t delta = native_enters->Value() - before;
      if (!jit) {
        EXPECT_EQ(delta, 0u) << what << ": jit_replay=false entered native code";
      } else if (jit::JitSupported()) {
        EXPECT_GT(delta, 0u) << what << ": jit_replay=true never entered native code";
      }
    };
    const std::string tier = jit ? "jit " : "interp ";
    for (unsigned threads : {1u, 4u}) {
      for (bool pipelined : {false, true}) {
        Auditor a("client", &kv_->registry(), Cfg(threads, pipelined, jit));
        const std::string mode = tier + "threads=" + std::to_string(threads) +
                                 (pipelined ? " pipelined" : " sequential");
        expect_tier(mode + " memory", [&] { return Full(a, memory).ok; });
        expect_tier(mode + " store", [&] { return Full(a, *store_).ok; });
      }
    }
    Auditor seq("client", &kv_->registry(), Cfg(1, false, jit));
    expect_tier(tier + "spot check", [&] {
      return seq.SpotCheck(kv_->server(), windows[0].first, windows[0].second, auths_).ok;
    });
    Auditor pooled("client", &kv_->registry(), Cfg(4, true, jit));
    expect_tier(tier + "spot check many", [&] {
      bool all_ok = true;
      for (const AuditOutcome& o : pooled.SpotCheckMany(kv_->server(), *store_, windows, auths_)) {
        all_ok = all_ok && o.ok;
      }
      return all_ok;
    });
    fs::remove_all(CheckpointDir());
    CheckpointedAuditor ck("client", &kv_->registry(), Cfg(4, true, jit), Cadence());
    ResumeInfo cold_info;
    ResumeInfo resumed_info;
    expect_tier(tier + "checkpointed cold",
                [&] { return Checkpointed(ck, *store_, &cold_info).ok; });
    expect_tier(tier + "checkpointed resumed",
                [&] { return Checkpointed(ck, *store_, &resumed_info).ok; });
    EXPECT_TRUE(resumed_info.resumed) << tier;
  }
}

TEST_F(EngineKvTest, EveryAuditReadsItsRangeInOneForwardScan) {
  // The engine reads the audited range in exactly one forward Scan and
  // never Extracts it (Extract is reserved for building evidence, and
  // an honest audit has none) -- at every thread count, pipelined or
  // not, and checkpointed with and without resume.
  const uint64_t last = store_->LastSeq();
  for (unsigned threads : {1u, 4u}) {
    for (bool pipelined : {false, true}) {
      const std::string what =
          "threads=" + std::to_string(threads) + (pipelined ? " pipelined" : " sequential");
      CountingSource source(*store_);
      Auditor a("client", &kv_->registry(), Cfg(threads, pipelined));
      EXPECT_TRUE(Full(a, source).ok) << what;
      EXPECT_EQ(source.scans(), (std::vector<Range>{{1, last}})) << what;
      EXPECT_TRUE(source.extracts().empty()) << what;
    }

    // Checkpointed: cold, then resumed. The resume validates its anchor
    // with one HashAt probe of the watermark entry, then scans the rest.
    fs::remove_all(CheckpointDir());
    CheckpointedAuditor ck("client", &kv_->registry(), Cfg(threads, true), Cadence());
    CountingSource cold_source(*store_);
    ResumeInfo cold_info;
    EXPECT_TRUE(Checkpointed(ck, cold_source, &cold_info).ok);
    EXPECT_GT(cold_info.checkpoints_written, 0u);
    EXPECT_EQ(cold_source.scans(), (std::vector<Range>{{1, last}}));
    EXPECT_TRUE(cold_source.extracts().empty());

    CountingSource resumed_source(*store_);
    ResumeInfo resumed_info;
    EXPECT_TRUE(Checkpointed(ck, resumed_source, &resumed_info).ok);
    ASSERT_TRUE(resumed_info.resumed);
    const uint64_t w = resumed_info.resumed_from;
    ASSERT_LT(w, last);
    EXPECT_EQ(resumed_source.scans(), (std::vector<Range>{{w, w}, {w + 1, last}}));
    EXPECT_TRUE(resumed_source.extracts().empty());
    EXPECT_EQ(resumed_info.entries_scanned, last - w);
  }

  // A spot check indexes the snapshots (one scan of the log), probes
  // the window's prior hash with HashAt, then scans the window once.
  const uint64_t from = snaps_[1].seq;
  const uint64_t to = snaps_[2].seq;
  CountingSource source(*store_);
  Auditor a("client", &kv_->registry(), Cfg(1, false));
  EXPECT_TRUE(a.SpotCheck(kv_->server(), source, snaps_[1].meta.snapshot_id,
                          snaps_[2].meta.snapshot_id, auths_)
                  .ok);
  EXPECT_EQ(source.scans(), (std::vector<Range>{{1, last}, {from - 1, from - 1}, {from, to}}));
  EXPECT_TRUE(source.extracts().empty());
}

TEST_F(EngineKvTest, CheckpointedAuditHonoursVerifyImage) {
  // A reference image with a reachable illegal opcode (the middle of
  // its largest block, as avm-lint --seed-corruption illegal plants
  // it) must fail the checkpointed audit up front, exactly as it fails
  // Auditor::AuditFull: cold, and with a valid checkpoint to resume from.
  Bytes bad_image = kv_->reference_server_image();
  const analysis::Cfg cfg = analysis::BuildCfg(bad_image);
  const analysis::BasicBlock* biggest = nullptr;
  for (const analysis::BasicBlock& b : cfg.blocks) {
    if (biggest == nullptr || b.insn_count() > biggest->insn_count()) {
      biggest = &b;
    }
  }
  ASSERT_NE(biggest, nullptr);
  const uint32_t illegal = 0xee000000u;
  std::memcpy(bad_image.data() + biggest->start + 4 * (biggest->insn_count() / 2), &illegal, 4);

  AuditConfig acfg = Cfg(4, true);
  acfg.verify_image = true;
  fs::remove_all(CheckpointDir());
  CheckpointedAuditor ck("client", &kv_->registry(), acfg, Cadence());
  auto audit = [&](const Bytes& image, ResumeInfo* info) {
    return ck.AuditFull(kv_->server(), *store_, image, auths_, CheckpointDir(), info);
  };
  auto expect_rejected = [](const AuditOutcome& out, const ResumeInfo& info,
                            const std::string& what) {
    EXPECT_FALSE(out.ok) << what;
    EXPECT_GT(out.image_errors, 0) << what;
    EXPECT_EQ(out.semantic.instructions_replayed, 0u) << what << ": replayed a corrupt image";
    EXPECT_FALSE(info.resumed) << what;
    EXPECT_EQ(info.checkpoints_written, 0u) << what;
    EXPECT_NE(out.Describe().find("FAIL (image)"), std::string::npos) << out.Describe();
  };

  ResumeInfo cold;
  expect_rejected(audit(bad_image, &cold), cold, "cold");

  // The genuine image passes and leaves checkpoints behind...
  ResumeInfo honest;
  AuditOutcome good = audit(kv_->reference_server_image(), &honest);
  EXPECT_TRUE(good.ok) << good.Describe();
  EXPECT_EQ(good.image_errors, 0);
  ASSERT_GT(honest.checkpoints_written, 0u);

  // ...which the corrupt image must not resume from.
  ResumeInfo resumed;
  expect_rejected(audit(bad_image, &resumed), resumed, "resumed");
}

}  // namespace
}  // namespace avm
