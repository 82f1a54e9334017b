// Robustness of every wire-format parser against malformed input.
//
// Auditors parse logs, frames, snapshots and evidence produced by
// machines they explicitly do not trust (§3.1), so every deserializer
// must fail cleanly (SerdeError or a validation error), never crash or
// accept garbage.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "src/audit/checkpoint.h"
#include "src/audit/evidence.h"
#include "src/avmm/message.h"
#include "src/util/serde.h"
#include "src/avmm/partial_snapshot.h"
#include "src/avmm/snapshot.h"
#include "src/sim/scenario.h"
#include "src/store/log_store.h"
#include "src/store/segment_file.h"
#include "src/tel/log.h"
#include "src/util/prng.h"
#include "src/vm/trace.h"

namespace avm {
namespace {

// Parses `data` with every deserializer; none may crash.
void ParseEverything(ByteView data) {
  auto swallow = [&](auto&& fn) {
    try {
      fn();
    } catch (const SerdeError&) {
    } catch (const StoreError&) {
    } catch (const std::invalid_argument&) {
    } catch (const std::out_of_range&) {
    }
  };
  swallow([&] { (void)LogSegment::Deserialize(data); });
  swallow([&] { (void)Authenticator::Deserialize(data); });
  swallow([&] { (void)TraceEvent::Deserialize(data); });
  swallow([&] { (void)MessageRecord::Deserialize(data); });
  swallow([&] { (void)DataFrame::Deserialize(data); });
  swallow([&] { (void)AckFrame::Deserialize(data); });
  swallow([&] { (void)ChallengeFrame::Deserialize(data); });
  swallow([&] { (void)SnapshotMeta::Deserialize(data); });
  swallow([&] { (void)SnapshotDelta::Deserialize(data); });
  swallow([&] { (void)PartialSnapshot::Deserialize(data); });
  swallow([&] { (void)Evidence::Deserialize(data); });
  swallow([&] { (void)CpuState::Deserialize(data); });
  swallow([&] { (void)MerkleProof::Deserialize(data); });
  // Log store on-disk formats: a store opened by an auditor is as
  // untrusted as a segment shipped over the network.
  swallow([&] { (void)DecodeSegmentHeader(data); });
  swallow([&] {
    size_t off = 0;
    (void)DecodeRecordAt(data, &off);
  });
  swallow([&] { (void)ScanActiveSegment(data, 16); });
  swallow([&] {
    SealedInfo info = ReadSealedInfo(data);
    (void)ReadSealedRecords(data, info);
  });
  // The resumable-audit format is read back from an auditee-controlled
  // directory, so it is untrusted input too.
  swallow([&] { (void)AuditCheckpoint::Deserialize(data); });
}

class RandomInputFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomInputFuzz, NoCrashOnRandomBytes) {
  Prng rng(GetParam());
  for (int i = 0; i < 50; i++) {
    ParseEverything(rng.RandomBytes(rng.Below(300)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomInputFuzz, ::testing::Range<uint64_t>(0, 8));

class MutatedInputFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MutatedInputFuzz, NoCrashOnMutatedValidStructures) {
  Prng rng(GetParam() + 1000);

  // Build valid serializations of each structure, then mutate them.
  std::vector<Bytes> valid;
  {
    TraceEvent e;
    e.kind = TraceKind::kDmaPacket;
    e.icount = 12345;
    e.data = rng.RandomBytes(40);
    valid.push_back(e.Serialize());

    MessageRecord m{"alice", "bob", 7, rng.RandomBytes(24)};
    valid.push_back(m.Serialize());

    Authenticator a;
    a.node = "bob";
    a.seq = 3;
    a.hash = Sha256::Digest("x");
    a.signature = rng.RandomBytes(96);
    valid.push_back(a.Serialize());

    DataFrame f{m, rng.RandomBytes(96), Sha256::Digest("p"), a};
    valid.push_back(f.Serialize());

    SnapshotMeta meta;
    meta.snapshot_id = 2;
    meta.root = Sha256::Digest("r");
    valid.push_back(meta.Serialize());

    TamperEvidentLog log("bob");
    log.Append(EntryType::kInfo, ToBytes("a"));
    log.Append(EntryType::kSend, ToBytes("b"));
    valid.push_back(log.Extract(1, 2).Serialize());

    // Store files: an active segment (header + CRC-framed records) and
    // its sealed counterpart (compressed body + index + footer).
    TamperEvidentLog store_log("bob");
    Bytes active = EncodeSegmentHeader({1, Hash256::Zero()});
    std::vector<SparseIndexEntry> index;
    for (int i = 0; i < 6; i++) {
      store_log.Append(i % 2 == 0 ? EntryType::kInfo : EntryType::kSend,
                       rng.RandomBytes(rng.Below(40)));
      const LogEntry rec = store_log.At(store_log.LastSeq());
      if (i % 2 == 0) {
        index.push_back({rec.seq, active.size() - kSegmentHeaderSize});
      }
      EncodeRecord(rec, active);
    }
    valid.push_back(active);
    valid.push_back(EncodeSealedSegment({1, Hash256::Zero()},
                                        ByteView(active).subspan(kSegmentHeaderSize), index, 6, 6,
                                        store_log.LastHash(), /*compress=*/true));

    AuditCheckpoint cp;
    cp.node = "bob";
    cp.auditor = "auditor";
    cp.seq = 6;
    cp.chain_hash = store_log.LastHash();
    cp.mem_size = 64 * 1024;
    cp.machine_state = rng.RandomBytes(120);
    cp.scan_state = rng.RandomBytes(48);
    cp.verified_auth_hashes[3] = Sha256::Digest("a3");
    cp.signature = rng.RandomBytes(96);
    valid.push_back(cp.Serialize());
  }

  for (const Bytes& base : valid) {
    for (int trial = 0; trial < 40; trial++) {
      Bytes mutated = base;
      switch (rng.Below(4)) {
        case 0:  // Flip random bytes.
          for (int k = 0; k < 3 && !mutated.empty(); k++) {
            mutated[rng.Below(mutated.size())] ^= static_cast<uint8_t>(rng.Next());
          }
          break;
        case 1:  // Truncate.
          mutated.resize(rng.Below(mutated.size() + 1));
          break;
        case 2:  // Extend with garbage.
          Append(mutated, rng.RandomBytes(rng.Below(32) + 1));
          break;
        case 3: {  // Splice two structures together.
          const Bytes& other = valid[rng.Below(valid.size())];
          size_t cut = rng.Below(mutated.size() + 1);
          mutated.resize(cut);
          Append(mutated, other);
          break;
        }
      }
      ParseEverything(mutated);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutatedInputFuzz, ::testing::Range<uint64_t>(0, 8));

// Every proper prefix of a valid serialization must be rejected with a
// clean error -- the truncations a fuzzer only hits probabilistically.
TEST(TruncationRobustness, EveryPrefixRejectedCleanly) {
  Prng rng(77);
  TamperEvidentLog log("bob");
  for (int i = 0; i < 4; i++) {
    log.Append(EntryType::kInfo, rng.RandomBytes(20));
  }
  Bytes seg = log.Extract(1, 4).Serialize();
  for (size_t n = 0; n < seg.size(); n++) {
    EXPECT_THROW((void)LogSegment::Deserialize(ByteView(seg.data(), n)), SerdeError) << n;
  }

  Authenticator a;
  a.node = "bob";
  a.seq = 9;
  a.hash = Sha256::Digest("h");
  a.signature = rng.RandomBytes(96);
  Bytes auth = a.Serialize();
  for (size_t n = 0; n < auth.size(); n++) {
    EXPECT_THROW((void)Authenticator::Deserialize(ByteView(auth.data(), n)), SerdeError) << n;
  }

  Bytes active = EncodeSegmentHeader({1, Hash256::Zero()});
  for (int i = 1; i <= 3; i++) {
    EncodeRecord(log.At(static_cast<uint64_t>(i)), active);
  }
  Bytes sealed = EncodeSealedSegment({1, Hash256::Zero()},
                                     ByteView(active).subspan(kSegmentHeaderSize), {}, 3, 3,
                                     log.At(3).hash, /*compress=*/true);
  for (size_t n = 0; n < sealed.size(); n++) {
    EXPECT_THROW((void)ReadSealedInfo(ByteView(sealed.data(), n)), StoreError) << n;
  }
  // An active segment's truncated tail is recovered, not fatal: the scan
  // reports the torn point instead of throwing (header truncation aside).
  for (size_t n = 0; n < active.size(); n++) {
    ByteView prefix(active.data(), n);
    if (n < kSegmentHeaderSize) {
      EXPECT_THROW((void)ScanActiveSegment(prefix, 4), StoreError) << n;
    } else {
      ActiveScan scan = ScanActiveSegment(prefix, 4);
      EXPECT_TRUE(scan.torn || scan.valid_bytes == n - kSegmentHeaderSize) << n;
      EXPECT_LE(scan.last_seq, 3u) << n;
    }
  }
}

// A corrupt checkpoint file must cost a resume, never the verdict and
// never a crash: every mutation is either rejected at parse or at
// digest/chain validation, and the audit falls back to genesis with the
// clean run's exact outcome.
TEST(CheckpointRobustness, MutatedCheckpointFallsBackToGenesis) {
  namespace fs = std::filesystem;
  std::string dir = (fs::temp_directory_path() / "avm_fuzz_ckpt").string();
  fs::remove_all(dir);

  KvScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();
  cfg.seed = 5;
  KvScenario scenario(cfg);
  scenario.Start();
  LogStoreOptions opts;
  opts.sync = false;
  auto store = LogStore::Open(dir, "kvserver", opts);
  scenario.server().SpillTo(store.get());
  scenario.RunFor(300 * kMicrosPerMilli);
  scenario.Finish();
  store->Flush();
  std::vector<Authenticator> auths = scenario.CollectAuthsForServer();

  AuditConfig acfg;
  acfg.threads = 1;
  CheckpointConfig ck;
  ck.every_entries = 200;
  Auditor auditor("auditor", &scenario.registry(), acfg, ck);
  ResumeInfo ri;
  AuditOutcome clean = auditor.AuditFull(scenario.server(), *store,
                                         scenario.reference_server_image(), auths, dir, &ri);
  ASSERT_TRUE(clean.ok) << clean.Describe();
  ASSERT_GT(ri.checkpoints_written, 0u);
  AuditOutcome again = auditor.AuditFull(scenario.server(), *store,
                                         scenario.reference_server_image(), auths, dir, &ri);
  ASSERT_TRUE(again.ok);
  ASSERT_TRUE(ri.resumed);  // The intact checkpoint does resume.

  const std::string path = dir + "/" + AuditCheckpointFileName("auditor");
  Prng rng(123);
  for (int trial = 0; trial < 10; trial++) {
    // Each audit rewrites the checkpoint, so reread the current one.
    Bytes current;
    {
      std::ifstream in(path, std::ios::binary);
      ASSERT_TRUE(in.good()) << path;
      current.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    Bytes mutated = current;
    if (trial % 3 == 2) {
      mutated.resize(rng.Below(mutated.size()));
    } else {
      for (int k = 0; k < 3; k++) {
        mutated[rng.Below(mutated.size())] ^= static_cast<uint8_t>(rng.Next() | 1);
      }
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(mutated.data()),
                static_cast<std::streamsize>(mutated.size()));
    }
    ResumeInfo mri;
    AuditOutcome out = auditor.AuditFull(scenario.server(), *store,
                                         scenario.reference_server_image(), auths, dir, &mri);
    EXPECT_FALSE(mri.resumed) << "trial " << trial;
    EXPECT_TRUE(mri.checkpoint_rejected) << "trial " << trial;
    EXPECT_EQ(out.ok, clean.ok) << "trial " << trial;
    EXPECT_EQ(out.syntactic.ok, clean.syntactic.ok) << "trial " << trial;
    EXPECT_EQ(out.semantic.ok, clean.semantic.ok) << "trial " << trial;
  }

  scenario.server().SpillTo(nullptr);
  store.reset();
  fs::remove_all(dir);
}

TEST(TraceEventSerde, RoundTripAllKinds) {
  Prng rng(9);
  for (TraceKind kind : {TraceKind::kPortIn, TraceKind::kDmaPacket, TraceKind::kAsyncIrq,
                         TraceKind::kOutConsole, TraceKind::kOutDebug, TraceKind::kOutPacket}) {
    TraceEvent e;
    e.kind = kind;
    e.icount = rng.Next();
    e.port = static_cast<uint16_t>(rng.Next());
    e.value = static_cast<uint32_t>(rng.Next());
    e.data = rng.RandomBytes(rng.Below(64));
    TraceEvent restored = TraceEvent::Deserialize(e.Serialize());
    EXPECT_TRUE(restored == e) << TraceKindName(kind);
  }
}

TEST(TraceEventSerde, ClassificationMatchesFigure4Streams) {
  TraceEvent clock;
  clock.kind = TraceKind::kPortIn;
  clock.port = kPortClockLo;
  EXPECT_EQ(ClassifyTraceEvent(clock), EntryType::kTraceTime);
  clock.port = kPortClockHi;
  EXPECT_EQ(ClassifyTraceEvent(clock), EntryType::kTraceTime);

  TraceEvent rxlen;
  rxlen.kind = TraceKind::kPortIn;
  rxlen.port = kPortNetRxLen;
  EXPECT_EQ(ClassifyTraceEvent(rxlen), EntryType::kTraceMac);

  TraceEvent input;
  input.kind = TraceKind::kPortIn;
  input.port = kPortInput;
  EXPECT_EQ(ClassifyTraceEvent(input), EntryType::kTraceOther);

  TraceEvent dma;
  dma.kind = TraceKind::kDmaPacket;
  EXPECT_EQ(ClassifyTraceEvent(dma), EntryType::kTraceMac);

  TraceEvent tx;
  tx.kind = TraceKind::kOutPacket;
  EXPECT_EQ(ClassifyTraceEvent(tx), EntryType::kTraceMac);

  TraceEvent console;
  console.kind = TraceKind::kOutConsole;
  EXPECT_EQ(ClassifyTraceEvent(console), EntryType::kTraceOther);
}

TEST(FrameParsing, BadTypesRejected) {
  EXPECT_THROW(PeekFrameType(Bytes{}), SerdeError);
  EXPECT_THROW(PeekFrameType(Bytes{0}), SerdeError);
  EXPECT_THROW(PeekFrameType(Bytes{99}), SerdeError);
  EXPECT_EQ(PeekFrameType(Bytes{1, 2, 3}), FrameType::kData);
  EXPECT_EQ(UnwrapFrame(Bytes{1, 2, 3}), (Bytes{2, 3}));
}

}  // namespace
}  // namespace avm
