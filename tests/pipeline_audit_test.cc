// Audit-engine parity: with more than one thread the engine overlaps
// the syntactic check with deterministic replay (chunk i replays on a
// worker while chunk i+1 goes through the checks), and every verdict —
// audit, spot check, evidence, failure reason and seq — must be
// bit-for-bit the threads=1 inline path's at every thread count and
// chunk size, and that path's the whole-segment primitives'. The
// AuditConfigTable tests set every AuditConfig field on every audit
// entry point and assert that it takes effect.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <mutex>
#include <thread>

#include "src/audit/checkpoint.h"
#include "src/audit/fleet.h"
#include "src/audit/online.h"
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
// `strict` is the message cross-reference of a full audit (a spot-check
// window relaxes it).
AuditOutcome PrimitiveReference(const LogSegment& seg, std::span<const Authenticator> auths,
                                const KeyRegistry& registry, size_t mem_size, bool strict,
                                ByteView image, const MaterializedState* start = nullptr) {
  AuditOutcome ref;
  ref.log_bytes = seg.SerializedSize();
  ref.syntactic = VerifyAgainstAuthenticators(seg, auths, registry);
  if (ref.syntactic.ok) {
    ref.syntactic = SyntacticMessageCheck(seg, registry, strict);
  }
  if (ref.syntactic.ok && InputAttestationRequired(seg.node, registry)) {
    ref.syntactic = VerifyAttestedInputs(seg, registry);
  }
  if (ref.syntactic.ok) {
    ref.semantic = start != nullptr ? ReplaySegment(seg, *start)
                                    : ReplaySegment(seg, image, mem_size);
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

// threads=1 runs replay inline (the reference); more threads overlap
// replay with the checks and fan the checks across the rest.
AuditConfig MakeConfig(size_t mem_size, unsigned threads, size_t chunk_entries = 2048) {
  AuditConfig cfg;
  cfg.mem_size = mem_size;
  cfg.threads = threads;
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

  // Audits `source` inline (threads=1) and overlapped (threads 2 and 4)
  // at several chunk sizes; all outcomes must agree with the threads=1
  // baseline, and the baseline with the whole-segment primitives.
  // Returns the baseline.
  AuditOutcome ExpectParity(const SegmentSource& source, std::span<const Authenticator> auths,
                            const std::string& what) {
    Auditor base("auditor", &registry_, MakeConfig(kMem, 1));
    AuditOutcome baseline = base.AuditFull(*node_, source, image_, auths);
    ExpectMatchesReference(baseline,
                           PrimitiveReference(source.Extract(1, source.LastSeq()), auths,
                                              registry_, kMem, /*strict=*/true, image_),
                           what + " vs primitives");
    for (unsigned threads : {1u, 2u, 4u}) {
      for (size_t chunk : {size_t{7}, size_t{2048}}) {
        Auditor a("auditor", &registry_, MakeConfig(kMem, threads, chunk));
        ExpectSameOutcome(baseline, a.AuditFull(*node_, source, image_, auths),
                          what + " threads=" + std::to_string(threads) +
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
    AuditConfig jit_cfg = MakeConfig(kMem, 1);
    AuditConfig interp_cfg = MakeConfig(kMem, 1);
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

// The chunked checker hashes chain links four at a time. A tampered
// content byte or stored hash byte at every position within a group of
// four (seq mod 4), at a chunk's first and last entry and in a chunk's
// final partial group must still fail with the reason and seq that
// VerifyChain gives on the materialized segment.
TEST_F(PipelineAuditTest, ChainTamperAtEveryLinkLaneMatchesVerifyChain) {
  RecordSolo(30);
  const LogSegment honest = WholeSegment();
  const uint64_t last = honest.LastSeq();
  ASSERT_GE(last, 60u);
  // Chunks of 7 start at seqs 1, 8, 15, ...; one chunk of 2048 holds
  // the whole log, so its last entry (and final group) is the log's.
  std::vector<uint64_t> victims = {1, 2, 3, 4, 5, 22, 28, 29, last - 2, last - 1, last};
  for (uint64_t s = 40; s < 44; s++) {
    victims.push_back(s);
  }
  for (uint64_t victim : victims) {
    for (bool hash_byte : {false, true}) {
      LogSegment seg = honest;
      LogEntry& e = seg.entries[victim - 1];
      if (hash_byte) {
        e.hash.v[victim % 32] ^= 0x01;
      } else if (e.content.empty()) {
        e.content.push_back(0x5a);
      } else {
        e.content[victim % e.content.size()] ^= 0x01;
      }
      const CheckResult reference = VerifyChain(seg);
      ASSERT_FALSE(reference.ok);
      std::vector<Authenticator> auths = {AuthFor(seg)};
      VectorSegmentSource source(std::move(seg));
      for (unsigned threads : {1u, 2u, 4u}) {
        for (size_t chunk : {size_t{7}, size_t{2048}}) {
          const std::string what = std::string(hash_byte ? "hash" : "content") + " byte of seq " +
                                   std::to_string(victim) + " threads=" + std::to_string(threads) +
                                   " chunk=" + std::to_string(chunk);
          Auditor a("auditor", &registry_, MakeConfig(kMem, threads, chunk));
          AuditOutcome out = a.AuditFull(*node_, source, image_, auths);
          EXPECT_FALSE(out.ok) << what;
          EXPECT_EQ(out.syntactic.reason, reference.reason) << what;
          EXPECT_EQ(out.syntactic.bad_seq, reference.bad_seq) << what;
        }
      }
    }
  }
}

TEST_F(PipelineAuditTest, ChainBreakOutranksEarlierMessageFailure) {
  // A message-stream failure early in the log plus a chain break later:
  // the sequential composition runs the whole chain check first, so the
  // chain break is the verdict — the chunked checker must not report
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
      StreamingSyntacticCheck(source, auths, registry_, MakeConfig(kMem, 1));
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
  // fail "authenticator signature invalid" in every mode — and it also
  // gates replay off entirely, so a forged log cannot buy an attacker a
  // full replay.
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

// Writes every entry of `log` into `store` and leaves the log in memory,
// the reference the store-backed audits are compared with (attaching
// the store as a sink would spill the log into it).
void CopyLog(const TamperEvidentLog& log, LogStore& store) {
  log.Scan(1, log.LastSeq(), [&store](const LogEntry& e) {
    store.Append(e);
    return true;
  });
}

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
  CopyLog(node_->log(), *store);
  store->Seal();
  ASSERT_GE(store->SealedCount(), 3u) << "want a multi-segment log";

  LogSegment seg = WholeSegment();
  std::vector<Authenticator> auths = {AuthFor(seg)};
  AuditOutcome base = ExpectParity(*store, auths, "store-backed");
  EXPECT_TRUE(base.ok) << base.Describe();

  // And the store-backed verdict equals the in-memory one.
  Auditor pipe("auditor", &registry_, MakeConfig(kMem, 2));
  InMemorySegmentSource mem_source(node_->log());
  ExpectSameOutcome(pipe.AuditFull(*node_, mem_source, image_, auths),
                    pipe.AuditFull(*node_, *store, image_, auths), "store-vs-memory");
}

TEST_F(PipelineStoreTest, CorruptSealedSegmentIsUnreadableIdentically) {
  auto store = LogStore::Open(dir_, "solo", SmallSegments());
  RecordSolo(60, 40);
  CopyLog(node_->log(), *store);
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
  Auditor seq("auditor", &registry_, MakeConfig(kMem, 1));
  Auditor pipe("auditor", &registry_, MakeConfig(kMem, 2, 64));
  AuditOutcome a = seq.AuditFull(*node_, *store, image_, auths);
  AuditOutcome b = pipe.AuditFull(*node_, *store, image_, auths);
  EXPECT_FALSE(a.ok);
  EXPECT_FALSE(b.ok);
  EXPECT_EQ(a.syntactic.reason, b.syntactic.reason);
  EXPECT_NE(a.syntactic.reason.find("log source unreadable"), std::string::npos)
      << a.syntactic.reason;
  EXPECT_FALSE(a.evidence.has_value());
  EXPECT_FALSE(b.evidence.has_value());

  // The audit counts only the entries it checked before the store
  // stopped being readable.
  ResumeInfo info;
  AuditOutcome c = pipe.AuditFull(*node_, *store, image_, auths, "", &info);
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

  auto run_with = [&](unsigned threads) {
    AuditConfig acfg;
    acfg.mem_size = cfg.run.mem_size;
    acfg.threads = threads;
    Auditor auditor("client", &kv.registry(), acfg);
    InMemorySegmentSource source(kv.server().log());
    std::vector<AuditOutcome> outs;
    for (const auto& w : windows) {
      outs.push_back(auditor.SpotCheck(kv.server(), source, w.first, w.second, auths));
    }
    return outs;
  };
  std::vector<AuditOutcome> seq = run_with(1);
  std::vector<AuditOutcome> pipe = run_with(2);
  ASSERT_EQ(seq.size(), pipe.size());
  int failures = 0;
  for (size_t i = 0; i < seq.size(); i++) {
    ExpectSameOutcome(seq[i], pipe[i], "window " + std::to_string(i));
    failures += seq[i].ok ? 0 : 1;
  }
  EXPECT_EQ(failures, 1) << "exactly the corrupted window must fail";

  // Each window against the whole-segment primitives, started from the
  // same materialized snapshot with the same endpoint commitment.
  for (size_t i = 0; i < windows.size(); i++) {
    const uint64_t from = snaps[i].seq;
    const uint64_t to = snaps[i + 1].seq;
    std::vector<Authenticator> window_auths = auths;
    window_auths.push_back(kv.server().CommitLogAt(to));
    MaterializedState start =
        kv.server().snapshot_store().Materialize(windows[i].first, cfg.run.mem_size);
    ExpectMatchesReference(seq[i],
                           PrimitiveReference(kv.server().log().Extract(from, to), window_auths,
                                              kv.registry(), cfg.run.mem_size, /*strict=*/false,
                                              ByteView(), &start),
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
    kv_->RunFor(kMicrosPerSecond);
    kv_->Finish();
    CopyLog(kv_->server().log(), *store_);
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

  AuditConfig Cfg(unsigned threads, bool jit = true) const {
    AuditConfig cfg = MakeConfig(mem_size_, threads, 256);
    cfg.jit_replay = jit;
    return cfg;
  }
  CheckpointConfig Cadence() const {
    CheckpointConfig ck;
    ck.every_entries = store_->LastSeq() / 3 + 1;
    return ck;
  }
  std::string CheckpointDir() const { return (fs::path(dir_) / "ckpt").string(); }
  // Every spot-check window between consecutive snapshots.
  std::vector<std::pair<uint64_t, uint64_t>> Windows() const {
    std::vector<std::pair<uint64_t, uint64_t>> windows;
    for (size_t i = 0; i + 1 < snaps_.size(); i++) {
      windows.emplace_back(snaps_[i].meta.snapshot_id, snaps_[i + 1].meta.snapshot_id);
    }
    return windows;
  }
  // The reference image with a reachable illegal opcode (the middle of
  // its largest block, as avm-lint --seed-corruption illegal plants it).
  Bytes CorruptImage() const {
    Bytes bad_image = kv_->reference_server_image();
    const analysis::Cfg cfg = analysis::BuildCfg(bad_image);
    const analysis::BasicBlock* biggest = nullptr;
    for (const analysis::BasicBlock& b : cfg.blocks) {
      if (biggest == nullptr || b.insn_count() > biggest->insn_count()) {
        biggest = &b;
      }
    }
    EXPECT_NE(biggest, nullptr);
    const uint32_t illegal = 0xee000000u;
    std::memcpy(bad_image.data() + biggest->start + 4 * (biggest->insn_count() / 2), &illegal,
                4);
    return bad_image;
  }
  AuditOutcome Full(Auditor& a, const SegmentSource& source) {
    return a.AuditFull(kv_->server(), source, kv_->reference_server_image(), auths_);
  }
  AuditOutcome Checkpointed(Auditor& a, const SegmentSource& source, ResumeInfo* info) {
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
  const std::vector<std::pair<uint64_t, uint64_t>> windows = Windows();
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
    for (unsigned threads : {1u, 2u, 4u}) {
      Auditor a("client", &kv_->registry(), Cfg(threads, jit));
      const std::string mode = tier + "threads=" + std::to_string(threads);
      expect_tier(mode + " memory", [&] { return Full(a, memory).ok; });
      expect_tier(mode + " store", [&] { return Full(a, *store_).ok; });
    }
    Auditor seq("client", &kv_->registry(), Cfg(1, jit));
    expect_tier(tier + "spot check", [&] {
      return seq.SpotCheck(kv_->server(), memory, windows[0].first, windows[0].second, auths_).ok;
    });
    Auditor pooled("client", &kv_->registry(), Cfg(4, jit));
    expect_tier(tier + "spot check many", [&] {
      bool all_ok = true;
      for (const AuditOutcome& o : pooled.SpotCheckMany(kv_->server(), *store_, windows, auths_)) {
        all_ok = all_ok && o.ok;
      }
      return all_ok;
    });
    fs::remove_all(CheckpointDir());
    Auditor ck("client", &kv_->registry(), Cfg(4, jit), Cadence());
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
  // an honest audit has none) -- at every thread count, and
  // checkpointed with and without resume.
  const uint64_t last = store_->LastSeq();
  for (unsigned threads : {1u, 2u, 4u}) {
    const std::string what = "threads=" + std::to_string(threads);
    CountingSource source(*store_);
    Auditor a("client", &kv_->registry(), Cfg(threads));
    EXPECT_TRUE(Full(a, source).ok) << what;
    EXPECT_EQ(source.scans(), (std::vector<Range>{{1, last}})) << what;
    EXPECT_TRUE(source.extracts().empty()) << what;

    // Checkpointed: cold, then resumed. The resume validates its anchor
    // with one HashAt probe of the watermark entry, then scans the rest.
    fs::remove_all(CheckpointDir());
    Auditor ck("client", &kv_->registry(), Cfg(threads), Cadence());
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
  Auditor a("client", &kv_->registry(), Cfg(1));
  EXPECT_TRUE(a.SpotCheck(kv_->server(), source, snaps_[1].meta.snapshot_id,
                          snaps_[2].meta.snapshot_id, auths_)
                  .ok);
  EXPECT_EQ(source.scans(), (std::vector<Range>{{1, last}, {from - 1, from - 1}, {from, to}}));
  EXPECT_TRUE(source.extracts().empty());
}

TEST_F(EngineKvTest, CheckpointedAuditHonoursVerifyImage) {
  // A reference image with a reachable illegal opcode must fail a
  // checkpointed AuditFull up front, exactly as it fails one without a
  // checkpoint dir: cold, and with a valid checkpoint to resume from.
  const Bytes bad_image = CorruptImage();

  AuditConfig acfg = Cfg(4);
  acfg.verify_image = true;
  fs::remove_all(CheckpointDir());
  Auditor ck("client", &kv_->registry(), acfg, Cadence());
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

// --- every AuditConfig field on every entry point -----------------------

enum class Entry {
  kFullMemory,        // AuditFull over the in-memory log.
  kFullStore,         // AuditFull over the store on disk.
  kFullCheckpointed,  // AuditFull with a checkpoint dir (cold).
  kSpotCheck,
  kSpotCheckMany,
  kTriage,  // StreamingSyntacticCheck.
  kOnline,   // OnlineAuditor::Poll.
  kFleetFull,
  kFleetSpot,
  kFleetOnline,
};
constexpr Entry kEntries[] = {
    Entry::kFullMemory, Entry::kFullStore,   Entry::kFullCheckpointed,
    Entry::kSpotCheck,  Entry::kSpotCheckMany, Entry::kTriage,
    Entry::kOnline,     Entry::kFleetFull,   Entry::kFleetSpot,
    Entry::kFleetOnline,
};

const char* EntryName(Entry e) {
  switch (e) {
    case Entry::kFullMemory:
      return "AuditFull(memory)";
    case Entry::kFullStore:
      return "AuditFull(store)";
    case Entry::kFullCheckpointed:
      return "AuditFull(checkpoint dir)";
    case Entry::kSpotCheck:
      return "SpotCheck";
    case Entry::kSpotCheckMany:
      return "SpotCheckMany";
    case Entry::kTriage:
      return "StreamingSyntacticCheck";
    case Entry::kOnline:
      return "online poll";
    case Entry::kFleetFull:
      return "fleet full audit";
    case Entry::kFleetSpot:
      return "fleet spot check";
    case Entry::kFleetOnline:
      return "fleet online poll";
  }
  return "?";
}

// The exceptions to "every field takes effect on every entry point".
const char* NotApplicable(const std::string& field, Entry e) {
  const bool spot = e == Entry::kSpotCheck || e == Entry::kSpotCheckMany || e == Entry::kFleetSpot;
  if (e == Entry::kTriage && (field == "mem_size" || field == "jit_replay")) {
    return "the syntactic triage replays nothing";
  }
  if (field == "verify_image" && (spot || e == Entry::kTriage)) {
    return "no reference image: spot checks start from a snapshot, triage does not replay";
  }
  return nullptr;
}

// Threads in this process, read from /proc (Linux).
size_t ProcessThreads() {
  return static_cast<size_t>(
      std::distance(fs::directory_iterator("/proc/self/task"), fs::directory_iterator()));
}

// ProcessThreads() once no thread is still on its way out.
size_t SettledProcessThreads() {
  size_t n = ProcessThreads();
  for (int i = 0; i < 100; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const size_t again = ProcessThreads();
    if (again == n) {
      break;
    }
    n = again;
  }
  return n;
}

// Records how many threads beyond a baseline the process had while an
// audit read the wrapped source: the audit's worker pool.
class ThreadWatchSource final : public SegmentSource {
 public:
  explicit ThreadWatchSource(const SegmentSource& inner) : inner_(inner) {}

  // Call right before the audit: every thread alive now is not its pool.
  void SetBaseline() { baseline_ = SettledProcessThreads(); }

  const NodeId& node() const override { return inner_.node(); }
  uint64_t LastSeq() const override { return inner_.LastSeq(); }
  LogSegment Extract(uint64_t from_seq, uint64_t to_seq) const override {
    return inner_.Extract(from_seq, to_seq);
  }
  void Scan(uint64_t from_seq, uint64_t to_seq, const EntryVisitor& visit) const override {
    const size_t now = ProcessThreads();
    {
      std::lock_guard<std::mutex> lock(mu_);
      extra_ = std::max(extra_, now > baseline_ ? now - baseline_ : 0);
    }
    inner_.Scan(from_seq, to_seq, visit);
  }

  size_t extra_threads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return extra_;
  }

 private:
  const SegmentSource& inner_;
  size_t baseline_ = 0;
  mutable std::mutex mu_;
  mutable size_t extra_ = 0;
};

class AuditConfigTableTest : public EngineKvTest {
 protected:
  // What one call of an entry point shows of its config.
  struct Observed {
    bool ok = true;           // Every verdict of the call passed.
    int image_errors = 0;     // AuditConfig::verify_image findings.
    uint64_t replayed = 0;    // Guest instructions replayed.
    size_t extra_threads = 0; // The worker pool, seen while the log is read.
    uint64_t syntactic_spans = 0;  // The replay gate plus one per chunk.
    uint64_t native_enters = 0;    // JIT entries.
  };

  // threads=1, one JIT-replayed audit in 256-entry chunks, no image pass.
  AuditConfig Base() const { return Cfg(1); }

  Observed Observe(Entry entry, const AuditConfig& cfg, const Bytes& image) {
    InMemorySegmentSource memory(kv_->server().log());
    ThreadWatchSource source(entry == Entry::kFullMemory
                                 ? static_cast<const SegmentSource&>(memory)
                                 : *store_);
    const std::pair<uint64_t, uint64_t> window = Windows().front();
    std::unique_ptr<FleetAuditService> fleet;
    if (entry == Entry::kFleetFull || entry == Entry::kFleetSpot ||
        entry == Entry::kFleetOnline) {
      FleetAuditConfig fcfg;
      fcfg.workers = 1;
      fcfg.audit = cfg;
      fleet = std::make_unique<FleetAuditService>(&kv_->registry(), fcfg);
      FleetAuditService::Registration reg;
      reg.node = "kv/server";
      reg.target = &kv_->server();
      reg.source = &source;
      reg.reference_image = image;
      reg.auths = auths_;
      fleet->RegisterAuditee(std::move(reg));
    }

    obs::Counter* native_enters = obs::Registry::Global().GetCounter("avm.jit.native_enters");
    const bool telemetry_was_on = obs::Enabled();
    obs::SetEnabled(true);
    obs::ResetTrace();
    const uint64_t enters_before = native_enters->Value();
    source.SetBaseline();  // The fleet's own worker is already running.
    std::vector<AuditOutcome> outs;
    Auditor auditor("client", &kv_->registry(), cfg, Cadence());
    switch (entry) {
      case Entry::kFullMemory:
      case Entry::kFullStore:
        outs.push_back(auditor.AuditFull(kv_->server(), source, image, auths_));
        break;
      case Entry::kFullCheckpointed:
        fs::remove_all(CheckpointDir());
        outs.push_back(auditor.AuditFull(kv_->server(), source, image, auths_, CheckpointDir()));
        break;
      case Entry::kSpotCheck:
        outs.push_back(
            auditor.SpotCheck(kv_->server(), source, window.first, window.second, auths_));
        break;
      case Entry::kSpotCheckMany:
        outs = auditor.SpotCheckMany(kv_->server(), source, Windows(), auths_);
        break;
      case Entry::kTriage: {
        AuditOutcome out;
        out.syntactic = StreamingSyntacticCheck(source, auths_, kv_->registry(), cfg);
        out.ok = out.syntactic.ok;
        outs.push_back(out);
        break;
      }
      case Entry::kOnline: {
        OnlineAuditor online(kv_->server(), &source, image, &kv_->registry(), cfg);
        outs.push_back(online.Poll(auths_));
        break;
      }
      case Entry::kFleetFull:
      case Entry::kFleetSpot:
      case Entry::kFleetOnline: {
        const uint64_t job =
            entry == Entry::kFleetFull   ? fleet->SubmitFullAudit("kv/server")
            : entry == Entry::kFleetSpot ? fleet->SubmitSpotCheck("kv/server", window.first,
                                                                  window.second)
                                         : fleet->SubmitOnlinePoll("kv/server");
        fleet->Drain();
        std::optional<FleetJobResult> r = fleet->Result(job);
        EXPECT_TRUE(r.has_value() && !r->job_error) << EntryName(entry);
        if (r.has_value()) {
          outs.push_back(r->outcome);
        }
        break;
      }
    }
    Observed o;
    o.native_enters = native_enters->Value() - enters_before;
    o.syntactic_spans = obs::PhaseCount(obs::kPhaseAuditSyntactic);
    obs::ResetTrace();
    obs::SetEnabled(telemetry_was_on);
    o.extra_threads = source.extra_threads();
    o.ok = !outs.empty();
    for (const AuditOutcome& out : outs) {
      o.ok = o.ok && out.ok;
      o.image_errors = std::max(o.image_errors, out.image_errors);
      o.replayed += out.semantic.instructions_replayed;
    }
    return o;
  }
};

TEST_F(AuditConfigTableTest, MemSizeSizesTheReplayMachine) {
  for (Entry e : kEntries) {
    AuditConfig cfg = Base();
    EXPECT_TRUE(Observe(e, cfg, kv_->reference_server_image()).ok) << EntryName(e);
    cfg.mem_size = 2 * mem_size_;
    const Observed wrong = Observe(e, cfg, kv_->reference_server_image());
    if (const char* why = NotApplicable("mem_size", e)) {
      EXPECT_TRUE(wrong.ok) << EntryName(e) << ": " << why;
      continue;
    }
    // A machine of another size cannot reproduce the logged snapshot roots.
    EXPECT_FALSE(wrong.ok) << EntryName(e) << ": mem_size ignored";
  }
}

TEST_F(AuditConfigTableTest, ThreadsSizesTheWorkerPool) {
  if (!fs::exists("/proc/self/task")) {
    GTEST_SKIP() << "counts threads through /proc/self/task";
  }
  for (Entry e : kEntries) {
    AuditConfig cfg = Base();
    const Observed inline_run = Observe(e, cfg, kv_->reference_server_image());
    cfg.threads = 3;
    const Observed pooled = Observe(e, cfg, kv_->reference_server_image());
    EXPECT_TRUE(inline_run.ok) << EntryName(e);
    EXPECT_TRUE(pooled.ok) << EntryName(e);
    EXPECT_EQ(inline_run.extra_threads, 0u) << EntryName(e) << ": threads=1 started a pool";
    EXPECT_EQ(pooled.extra_threads, 2u) << EntryName(e) << ": threads=3 is not a 3-thread pool";
  }
}

TEST_F(AuditConfigTableTest, PipelineChunkEntriesSetsTheChunking) {
  for (Entry e : kEntries) {
    AuditConfig cfg = Base();
    cfg.pipeline_chunk_entries = size_t{1} << 20;
    const Observed whole = Observe(e, cfg, kv_->reference_server_image());
    cfg.pipeline_chunk_entries = 32;
    const Observed chunked = Observe(e, cfg, kv_->reference_server_image());
    EXPECT_TRUE(whole.ok) << EntryName(e);
    EXPECT_TRUE(chunked.ok) << EntryName(e);
    EXPECT_GT(chunked.syntactic_spans, whole.syntactic_spans)
        << EntryName(e) << ": pipeline_chunk_entries ignored";
  }
}

TEST_F(AuditConfigTableTest, JitReplaySelectsTheReplayTier) {
  for (Entry e : kEntries) {
    AuditConfig cfg = Base();
    const Observed jit = Observe(e, cfg, kv_->reference_server_image());
    cfg.jit_replay = false;
    const Observed reference = Observe(e, cfg, kv_->reference_server_image());
    EXPECT_TRUE(jit.ok) << EntryName(e);
    EXPECT_TRUE(reference.ok) << EntryName(e);
    EXPECT_EQ(reference.native_enters, 0u) << EntryName(e) << ": jit_replay=false used the JIT";
    if (const char* why = NotApplicable("jit_replay", e)) {
      EXPECT_EQ(jit.native_enters, 0u) << EntryName(e) << ": " << why;
    } else if (jit::JitSupported()) {
      EXPECT_GT(jit.native_enters, 0u) << EntryName(e) << ": jit_replay=true never used the JIT";
    }
  }
}

TEST_F(AuditConfigTableTest, VerifyImageRejectsACorruptImageUpFront) {
  const Bytes bad_image = CorruptImage();
  for (Entry e : kEntries) {
    AuditConfig cfg = Base();
    const Observed unchecked = Observe(e, cfg, bad_image);
    cfg.verify_image = true;
    const Observed checked = Observe(e, cfg, bad_image);
    EXPECT_EQ(unchecked.image_errors, 0) << EntryName(e);
    if (const char* why = NotApplicable("verify_image", e)) {
      EXPECT_EQ(checked.image_errors, 0) << EntryName(e) << ": " << why;
      EXPECT_EQ(checked.ok, unchecked.ok) << EntryName(e) << ": " << why;
      continue;
    }
    EXPECT_GT(checked.image_errors, 0) << EntryName(e) << ": verify_image ignored";
    EXPECT_FALSE(checked.ok) << EntryName(e);
    EXPECT_EQ(checked.replayed, 0u) << EntryName(e) << ": replayed a corrupt image";
  }
}

}  // namespace
}  // namespace avm
