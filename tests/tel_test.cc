#include <gtest/gtest.h>

#include "src/tel/log.h"
#include "src/tel/verifier.h"
#include "src/util/prng.h"

namespace avm {
namespace {

struct TelFixture : public ::testing::Test {
  TelFixture() : rng(1), signer("bob", SignatureScheme::kRsa768, rng), log("bob") {
    registry.RegisterSigner(signer);
  }

  // Appends n entries with varied types/contents.
  void Fill(size_t n) {
    for (size_t i = 0; i < n; i++) {
      EntryType t = (i % 3 == 0)   ? EntryType::kSend
                    : (i % 3 == 1) ? EntryType::kTraceTime
                                   : EntryType::kRecv;
      log.Append(t, ToBytes("content-" + std::to_string(i)));
    }
  }

  Prng rng;
  Signer signer;
  KeyRegistry registry;
  TamperEvidentLog log;
};

TEST_F(TelFixture, AppendAssignsConsecutiveSeqs) {
  Fill(5);
  EXPECT_EQ(log.size(), 5u);
  for (uint64_t s = 1; s <= 5; s++) {
    EXPECT_EQ(log.At(s).seq, s);
  }
  EXPECT_THROW(log.At(0), std::out_of_range);
  EXPECT_THROW(log.At(6), std::out_of_range);
}

TEST_F(TelFixture, AtOutOfRangeReportsSeqAndBounds) {
  Fill(3);
  // Regression: out-of-range access must fail with a message naming the
  // bad seq and the valid range, never silently index past the vector.
  try {
    log.At(7);
    FAIL() << "At(7) did not throw";
  } catch (const std::out_of_range& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("7"), std::string::npos) << what;
    EXPECT_NE(what.find("[1, 3]"), std::string::npos) << what;
  }
  EXPECT_THROW(log.At(UINT64_MAX), std::out_of_range);
  TamperEvidentLog empty("eve");
  EXPECT_THROW(empty.At(1), std::out_of_range);
}

TEST_F(TelFixture, SinkTeesAppendsAndBackfills) {
  struct CollectingSink : LogSink {
    std::vector<LogEntry> got;
    bool flushed = false;
    void Append(const LogEntry& e) override { got.push_back(e); }
    void Flush() override { flushed = true; }
    uint64_t SinkLastSeq() const override { return got.empty() ? 0 : got.back().seq; }
  };
  Fill(3);
  CollectingSink sink;
  log.SetSink(&sink);  // Backfills the three existing entries.
  Fill(2);
  ASSERT_EQ(sink.got.size(), 5u);
  for (uint64_t s = 1; s <= 5; s++) {
    EXPECT_EQ(sink.got[s - 1].seq, s);
    EXPECT_EQ(sink.got[s - 1].hash, log.At(s).hash);
  }
  // Re-attaching backfills only what the sink does not already hold.
  log.SetSink(nullptr);
  Fill(1);
  log.SetSink(&sink);
  EXPECT_EQ(sink.got.size(), 6u);
  log.FlushSink();
  EXPECT_TRUE(sink.flushed);
}

TEST_F(TelFixture, HashChainLinksEntries) {
  Fill(3);
  Hash256 h1 = ChainHash(Hash256::Zero(), 1, log.At(1).type, log.At(1).content);
  EXPECT_EQ(log.At(1).hash, h1);
  Hash256 h2 = ChainHash(h1, 2, log.At(2).type, log.At(2).content);
  EXPECT_EQ(log.At(2).hash, h2);
}

TEST_F(TelFixture, ChainHashDependsOnAllFields) {
  Hash256 base = ChainHash(Hash256::Zero(), 1, EntryType::kSend, ToBytes("x"));
  EXPECT_NE(base, ChainHash(Hash256::Zero(), 2, EntryType::kSend, ToBytes("x")));
  EXPECT_NE(base, ChainHash(Hash256::Zero(), 1, EntryType::kRecv, ToBytes("x")));
  EXPECT_NE(base, ChainHash(Hash256::Zero(), 1, EntryType::kSend, ToBytes("y")));
  EXPECT_NE(base, ChainHash(Sha256::Digest("p"), 1, EntryType::kSend, ToBytes("x")));
}

TEST_F(TelFixture, ExtractSegmentCarriesPriorHash) {
  Fill(10);
  LogSegment seg = log.Extract(4, 7);
  EXPECT_EQ(seg.FirstSeq(), 4u);
  EXPECT_EQ(seg.LastSeq(), 7u);
  EXPECT_EQ(seg.prior_hash, log.At(3).hash);
  EXPECT_TRUE(VerifyChain(seg).ok);
}

TEST_F(TelFixture, ExtractWholeLogHasZeroPrior) {
  Fill(4);
  LogSegment seg = log.Extract(1, 4);
  EXPECT_TRUE(seg.prior_hash.IsZero());
  EXPECT_TRUE(VerifyChain(seg).ok);
}

TEST_F(TelFixture, ExtractBadRangeThrows) {
  Fill(4);
  EXPECT_THROW(log.Extract(0, 2), std::out_of_range);
  EXPECT_THROW(log.Extract(3, 2), std::out_of_range);
  EXPECT_THROW(log.Extract(2, 5), std::out_of_range);
}

TEST_F(TelFixture, SegmentSerializationRoundTrip) {
  Fill(6);
  LogSegment seg = log.Extract(2, 5);
  LogSegment restored = LogSegment::Deserialize(seg.Serialize());
  EXPECT_EQ(restored.node, "bob");
  EXPECT_EQ(restored.prior_hash, seg.prior_hash);
  ASSERT_EQ(restored.entries.size(), seg.entries.size());
  for (size_t i = 0; i < seg.entries.size(); i++) {
    EXPECT_EQ(restored.entries[i].hash, seg.entries[i].hash);
    EXPECT_EQ(restored.entries[i].content, seg.entries[i].content);
  }
  EXPECT_TRUE(VerifyChain(restored).ok);
}

TEST_F(TelFixture, AuthenticatorSignsAndVerifies) {
  Fill(3);
  Authenticator a = log.Authenticate(signer);
  EXPECT_EQ(a.node, "bob");
  EXPECT_EQ(a.seq, 3u);
  EXPECT_EQ(a.hash, log.LastHash());
  EXPECT_TRUE(a.VerifySignature(registry));

  Authenticator restored = Authenticator::Deserialize(a.Serialize());
  EXPECT_TRUE(restored.VerifySignature(registry));
}

TEST_F(TelFixture, TamperedAuthenticatorRejected) {
  Fill(3);
  Authenticator a = log.Authenticate(signer);
  Authenticator bad = a;
  bad.seq++;
  EXPECT_FALSE(bad.VerifySignature(registry));
  bad = a;
  bad.hash.v[0] ^= 1;
  EXPECT_FALSE(bad.VerifySignature(registry));
  bad = a;
  bad.node = "alice";
  EXPECT_FALSE(bad.VerifySignature(registry));
}

// Property sweep: any single-field mutation of any entry breaks the chain.
class TamperTest : public TelFixture, public ::testing::WithParamInterface<int> {};

TEST_P(TamperTest, MutationDetected) {
  Fill(12);
  LogSegment seg = log.Extract(1, 12);
  Prng trng(static_cast<uint64_t>(GetParam()));
  size_t victim = trng.Below(seg.entries.size());
  LogEntry& e = seg.entries[victim];
  switch (GetParam() % 4) {
    case 0:
      e.content.push_back(0x42);  // Extend content.
      break;
    case 1:
      if (e.content.empty()) {
        e.content.push_back(1);
      } else {
        e.content[0] ^= 1;  // Flip a content byte.
      }
      break;
    case 2:
      e.type = (e.type == EntryType::kSend) ? EntryType::kRecv : EntryType::kSend;
      break;
    case 3:
      e.hash.v[trng.Below(32)] ^= 0x80;  // Corrupt the stored hash.
      break;
  }
  EXPECT_FALSE(VerifyChain(seg).ok);
}

INSTANTIATE_TEST_SUITE_P(Mutations, TamperTest, ::testing::Range(0, 24));

TEST_F(TelFixture, ReorderDetected) {
  Fill(6);
  LogSegment seg = log.Extract(1, 6);
  std::swap(seg.entries[2], seg.entries[3]);
  EXPECT_FALSE(VerifyChain(seg).ok);
}

TEST_F(TelFixture, OmissionDetected) {
  Fill(6);
  LogSegment seg = log.Extract(1, 6);
  seg.entries.erase(seg.entries.begin() + 2);
  EXPECT_FALSE(VerifyChain(seg).ok);
}

TEST_F(TelFixture, InsertionDetected) {
  Fill(6);
  LogSegment seg = log.Extract(1, 6);
  LogEntry forged;
  forged.seq = 4;
  forged.type = EntryType::kInfo;
  forged.content = ToBytes("forged");
  forged.hash = ChainHash(seg.entries[2].hash, 4, forged.type, forged.content);
  seg.entries.insert(seg.entries.begin() + 3, forged);
  // The forged entry has a valid local hash, but everything after breaks.
  EXPECT_FALSE(VerifyChain(seg).ok);
}

TEST_F(TelFixture, EmptySegmentRejected) {
  LogSegment seg;
  seg.node = "bob";
  EXPECT_FALSE(VerifyChain(seg).ok);
}

TEST_F(TelFixture, AuthenticatorsDetectRewrittenHistory) {
  Fill(8);
  Authenticator a5 = log.AuthenticateAt(signer, 5);

  // Bob rewrites entry 3 and recomputes a *consistent* chain.
  LogSegment seg = log.Extract(1, 8);
  seg.entries[2].content = ToBytes("rewritten");
  Hash256 prev = seg.prior_hash;
  for (LogEntry& e : seg.entries) {
    e.hash = ChainHash(prev, e.seq, e.type, e.content);
    prev = e.hash;
  }
  ASSERT_TRUE(VerifyChain(seg).ok);  // Internally consistent...
  // ...but it no longer matches the authenticator he issued earlier.
  std::vector<Authenticator> auths = {a5};
  EXPECT_FALSE(VerifyAgainstAuthenticators(seg, auths, registry).ok);
}

TEST_F(TelFixture, VerifyAgainstAuthenticatorsRequiresCoverage) {
  Fill(5);
  LogSegment seg = log.Extract(1, 5);
  // No authenticators at all: cannot establish authenticity.
  EXPECT_FALSE(VerifyAgainstAuthenticators(seg, {}, registry).ok);
  // One valid authenticator inside the range: passes.
  Authenticator a = log.AuthenticateAt(signer, 4);
  std::vector<Authenticator> auths = {a};
  EXPECT_TRUE(VerifyAgainstAuthenticators(seg, auths, registry).ok);
}

TEST_F(TelFixture, ForkProofDetection) {
  Fill(4);
  Authenticator real = log.AuthenticateAt(signer, 4);

  // A forked history: same seq, different content.
  TamperEvidentLog fork("bob");
  for (size_t i = 0; i < 4; i++) {
    fork.Append(EntryType::kInfo, ToBytes("forked-" + std::to_string(i)));
  }
  Authenticator forked = fork.AuthenticateAt(signer, 4);

  EXPECT_TRUE(IsForkProof(real, forked, registry));
  EXPECT_FALSE(IsForkProof(real, real, registry));  // Same hash: no fork.

  AuthenticatorStore store;
  EXPECT_TRUE(store.Add(real, registry));
  EXPECT_TRUE(store.Add(forked, registry));
  ASSERT_EQ(store.fork_proofs().size(), 1u);
  EXPECT_TRUE(IsForkProof(store.fork_proofs()[0].first, store.fork_proofs()[0].second, registry));
}

TEST_F(TelFixture, AuthenticatorStoreRangeAndLatest) {
  Fill(10);
  AuthenticatorStore store;
  for (uint64_t s : {2u, 5u, 9u}) {
    EXPECT_TRUE(store.Add(log.AuthenticateAt(signer, s), registry));
  }
  EXPECT_EQ(store.CountFor("bob"), 3u);
  EXPECT_EQ(store.InRange("bob", 3, 9).size(), 2u);
  ASSERT_NE(store.Latest("bob"), nullptr);
  EXPECT_EQ(store.Latest("bob")->seq, 9u);
  EXPECT_EQ(store.Latest("alice"), nullptr);
  EXPECT_TRUE(store.AllFor("alice").empty());
}

TEST_F(TelFixture, AuthenticatorStoreRejectsBadSignature) {
  Fill(2);
  Authenticator a = log.Authenticate(signer);
  a.hash.v[5] ^= 1;
  AuthenticatorStore store;
  EXPECT_FALSE(store.Add(a, registry));
  EXPECT_EQ(store.CountFor("bob"), 0u);
}

TEST_F(TelFixture, WireSizeAccounting) {
  Fill(7);
  size_t total = 0;
  for (const LogEntry& e : log.entries()) {
    total += e.WireSize();
  }
  EXPECT_EQ(log.TotalWireSize(), total);
  EXPECT_EQ(log.Extract(1, 7).WireSize(), total);
}

// Bit-identity pins for the chain hash h_i = H(h_{i-1} || s_i || t_i ||
// H(c_i)). The expected digests were recorded from the original
// four-Update streaming implementation; content lengths cover every
// SHA-256 padding boundary of H(c_i) (0, 1, 55/56, 63/64, 119/120).
Hash256 PatternHash(uint8_t mul, uint8_t add) {
  Hash256 h;
  for (size_t i = 0; i < h.v.size(); i++) {
    h.v[i] = static_cast<uint8_t>(i * mul + add);
  }
  return h;
}

TEST(ChainHashKnownAnswer, EveryContentPaddingBoundary) {
  const struct {
    size_t len;
    const char* hex;
  } kCases[] = {
      {0, "4f412cd289aa8e85a0af4d1347417f6afaadd5ade418d1514d17d027132e7dcb"},
      {1, "6aaee88723573b09afa165142fc0678bc4565fe3472c48eaa0f4a57074a55e9b"},
      {55, "e06610052da8e38748dc98daab97876b62e62d8b6e0514caf07a7112160b32fb"},
      {56, "8d83e825221f388abb3381a102c78f950ad88e7f0e012e15bbeb85af6bf1a679"},
      {63, "6e5eabbccb04ce951dc8218ee8b8a86702ca83e4f97e1ca0090e2e965d557447"},
      {64, "b5171ca3a6bfb996de0e530c2fed833cef50c363b61389b0d1a996827d4b3b59"},
      {119, "009b588e8bd66b13679092a1d4786e4d4ff92b2bce45d976fffbd437196f4b29"},
      {120, "011a83bc05e9514b660a9eb7d6c5efba6608f3f639355e0404b744f05af8e6ea"},
  };
  const Hash256 prev = PatternHash(1, 0);
  for (const auto& c : kCases) {
    Bytes content(c.len);
    for (size_t i = 0; i < c.len; i++) {
      content[i] = static_cast<uint8_t>(i * 7 + 3);
    }
    EXPECT_EQ(ChainHash(prev, 0x0102030405060708ULL, EntryType::kTraceMac, content).Hex(), c.hex)
        << "content length " << c.len;
    EXPECT_EQ(ChainHashWithContentHash(prev, 0x0102030405060708ULL, EntryType::kTraceMac,
                                       Sha256::Digest(content))
                  .Hex(),
              c.hex)
        << "content length " << c.len;
  }
  EXPECT_EQ(
      ChainHashWithContentHash(PatternHash(3, 0x11), 42, EntryType::kSend, PatternHash(5, 0xa0))
          .Hex(),
      "66e81755d8a46b2faf1975aeff75b492f81c2e1a757635a4995b0b213a1ec2e7");
}

TEST_F(TelFixture, SerializedSizeMatchesSerialize) {
  LogSegment empty{"bob", Hash256::Zero(), {}};
  EXPECT_EQ(empty.SerializedSize(), empty.Serialize().size());
  Fill(1);
  LogSegment one = log.Extract(1, 1);
  EXPECT_EQ(one.SerializedSize(), one.Serialize().size());

  Prng content_rng(9);
  TamperEvidentLog random_log("a-longer-node-name");
  for (int i = 0; i < 200; i++) {
    random_log.Append(static_cast<EntryType>(1 + content_rng.Below(8)),
                      content_rng.RandomBytes(content_rng.Below(300)));
  }
  for (int trial = 0; trial < 20; trial++) {
    uint64_t from = 1 + content_rng.Below(200);
    uint64_t to = from + content_rng.Below(201 - from);
    LogSegment seg = random_log.Extract(from, to);
    EXPECT_EQ(seg.SerializedSize(), seg.Serialize().size()) << from << ".." << to;
    EXPECT_EQ(LogSegment::SerializedSize(seg.node, seg.WireSize()), seg.SerializedSize());
  }
}

TEST(EntryTypeNames, AllDistinct) {
  EXPECT_STREQ(EntryTypeName(EntryType::kSend), "SEND");
  EXPECT_STREQ(EntryTypeName(EntryType::kTraceTime), "TIMETRACKER");
  EXPECT_STREQ(EntryTypeName(EntryType::kSnapshot), "SNAPSHOT");
}

}  // namespace
}  // namespace avm
