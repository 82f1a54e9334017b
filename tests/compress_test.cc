#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/compress/lzss.h"
#include "src/crypto/sha256.h"
#include "src/sim/scenario.h"
#include "src/store/log_store.h"
#include "src/store/segment_file.h"
#include "src/util/prng.h"

namespace avm {
namespace {

TEST(Lzss, EmptyInput) {
  Bytes c = LzssCompress(Bytes());
  EXPECT_EQ(LzssDecompress(c), Bytes());
}

TEST(Lzss, ShortLiteralOnly) {
  Bytes data = ToBytes("abc");
  EXPECT_EQ(LzssDecompress(LzssCompress(data)), data);
}

TEST(Lzss, HighlyRepetitiveCompressesWell) {
  Bytes data(10000, 'a');
  Bytes c = LzssCompress(data);
  EXPECT_EQ(LzssDecompress(c), data);
  EXPECT_LT(c.size(), data.size() / 10);
}

TEST(Lzss, RepeatedStructure) {
  Bytes data;
  for (int i = 0; i < 500; i++) {
    Append(data, ToBytes("TIMETRACKER entry #x with fixed structure; "));
  }
  Bytes c = LzssCompress(data);
  EXPECT_EQ(LzssDecompress(c), data);
  EXPECT_LT(c.size(), data.size() / 4);
}

TEST(Lzss, IncompressibleRandomSurvives) {
  Prng rng(1);
  Bytes data = rng.RandomBytes(50000);
  Bytes c = LzssCompress(data);
  EXPECT_EQ(LzssDecompress(c), data);
  // Overhead is bounded: one flag bit per literal plus header.
  EXPECT_LT(c.size(), data.size() * 9 / 8 + 64);
}

TEST(Lzss, RoundTripPropertySweep) {
  Prng rng(2);
  for (int trial = 0; trial < 60; trial++) {
    // Mix of random and repeated chunks to hit matches of many lengths.
    Bytes data;
    int chunks = static_cast<int>(rng.Below(12)) + 1;
    for (int i = 0; i < chunks; i++) {
      if (rng.Chance(0.5) && !data.empty()) {
        size_t start = rng.Below(data.size());
        size_t len = std::min<size_t>(rng.Below(500), data.size() - start);
        Bytes repeat(data.begin() + static_cast<ptrdiff_t>(start),
                     data.begin() + static_cast<ptrdiff_t>(start + len));
        Append(data, repeat);
      } else {
        Append(data, rng.RandomBytes(rng.Below(300)));
      }
    }
    EXPECT_EQ(LzssDecompress(LzssCompress(data)), data) << "trial " << trial;
  }
}

TEST(Lzss, OverlappingMatchRle) {
  // "abab..." forces overlapping copies (offset < length).
  Bytes data;
  for (int i = 0; i < 1000; i++) {
    data.push_back(i % 2 == 0 ? 'a' : 'b');
  }
  EXPECT_EQ(LzssDecompress(LzssCompress(data)), data);
}

TEST(Lzss, CorruptInputThrows) {
  Bytes data = ToBytes("hello world hello world hello world");
  Bytes c = LzssCompress(data);
  EXPECT_THROW(LzssDecompress(Bytes{1, 2, 3}), std::invalid_argument);
  Bytes truncated(c.begin(), c.begin() + static_cast<ptrdiff_t>(c.size() / 2));
  EXPECT_THROW(LzssDecompress(truncated), std::invalid_argument);
}

// --- Golden pins: the compressed bytes of fixed inputs, recorded before
// the encoder and decoder were rewritten. The encoder's output is part
// of the sealed-segment format, so any change to these digests is a
// format change.

std::string CompressedDigest(ByteView data) { return Sha256::Digest(LzssCompress(data)).Hex(); }

// ~300 KB of random bytes, repeats of earlier spans (near and beyond the
// 8 KiB window) and single-byte runs.
Bytes SeededMix() {
  Prng rng(22);
  Bytes data;
  while (data.size() < 300000) {
    const uint64_t kind = rng.Below(4);
    if (kind == 0 || data.size() < 64) {
      Append(data, rng.RandomBytes(1 + rng.Below(300)));
    } else if (kind == 1) {
      data.insert(data.end(), 1 + rng.Below(700), static_cast<uint8_t>(rng.Below(256)));
    } else {
      const size_t back = 1 + rng.Below(std::min<size_t>(data.size(), 16384));
      const size_t start = data.size() - back;
      const size_t len = 1 + rng.Below(600);
      for (size_t i = 0; i < len; i++) {
        data.push_back(data[start + i]);  // May overlap the bytes it appends.
      }
    }
  }
  return data;
}

TEST(LzssGolden, FixedInputsCompressToPinnedBytes) {
  EXPECT_EQ(CompressedDigest(Bytes()),
            "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc");
  EXPECT_EQ(CompressedDigest(ToBytes("the quick brown fox")),
            "4414d2822b7f6cf2a454a40ebc04563ad26b23685091c5a3b3126a3bd1cfead0");
  Bytes abab;
  for (int i = 0; i < 1000; i++) {
    abab.push_back(i % 2 == 0 ? 'a' : 'b');
  }
  EXPECT_EQ(CompressedDigest(abab),
            "2770ae65adba4827334bc6281100134ba1ea2c929218876c0dc5cb08b2fb4e58");
  const Bytes mix = SeededMix();
  EXPECT_EQ(Sha256::Digest(mix).Hex(),
            "1981e1f49672b9e2a75977a05e4db3dd4a441a39888962a528fbaf896c272c18");
  const Bytes packed = LzssCompress(mix);
  EXPECT_EQ(Sha256::Digest(packed).Hex(),
            "60fb57e0d2f2058562e4cb53a64e1e004262eef3447d2f32a8986af80717865b");
  EXPECT_EQ(LzssDecompress(packed), mix);
}

TEST(LzssGolden, FirstSealedBodyOfASeededKvStore) {
  namespace fs = std::filesystem;
  const std::string dir = (fs::path(::testing::TempDir()) / "avm_lzss_golden_kv").string();
  fs::remove_all(dir);
  KvScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();
  cfg.snapshot_interval = 500 * kMicrosPerMilli;
  cfg.seed = 1;
  KvScenario kv(cfg);
  kv.Start();
  LogStoreOptions opts;
  opts.sync = false;
  auto store = LogStore::Open(dir, kv.client().id(), opts);
  kv.client().SpillTo(store.get());
  kv.RunFor(1 * kMicrosPerSecond);
  kv.Finish();
  store->Seal();
  kv.client().log().SetSink(nullptr);

  std::string first;
  for (const fs::directory_entry& de : fs::directory_iterator(dir)) {
    const std::string name = de.path().filename().string();
    if (de.path().extension() == ".seal" && (first.empty() || name < first)) {
      first = name;
    }
  }
  ASSERT_FALSE(first.empty());
  Bytes file = *LogStore::ReadAuxFile((fs::path(dir) / first).string());
  SealedInfo info = ReadSealedInfo(file);
  ASSERT_TRUE(info.flags & kSealedFlagLzss);
  ByteView body = ByteView(file).subspan(info.body_offset, info.body_len);
  EXPECT_EQ(Sha256::Digest(body).Hex(),
            "0d5c78f3eee171d4c6c022ca392a2e6942929e2907e471d93efcb8bbdeb53a21");
  const Bytes records = ReadSealedRecords(file, info);
  EXPECT_EQ(Sha256::Digest(records).Hex(),
            "c23496dfa0488f73e0e5e98f8f7afa05c4b584975a5fa9f90de1dd545d1efaa4");
  EXPECT_EQ(Sha256::Digest(LzssCompress(records)).Hex(), Sha256::Digest(body).Hex());
  store.reset();
  fs::remove_all(dir);
}

// One case per decoder error: each corrupt input names its own fault.
std::string DecodeError(const Bytes& data) {
  try {
    LzssDecompress(data);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no error";
}

Bytes Header(uint64_t size) {
  Bytes out;
  PutU64(out, size);
  return out;
}

TEST(LzssErrors, EachCorruptionHasItsOwnMessage) {
  EXPECT_EQ(DecodeError(Bytes{1, 2, 3}), "LzssDecompress: truncated header");
  Bytes implausible = Header(5000);
  implausible.push_back(0);
  EXPECT_EQ(DecodeError(implausible), "LzssDecompress: implausible uncompressed size");
  EXPECT_EQ(DecodeError(Header(5)), "LzssDecompress: missing flags byte");
  Bytes short_match = Header(10);
  Append(short_match, Bytes{0x01, 0x00, 0x00});
  EXPECT_EQ(DecodeError(short_match), "LzssDecompress: truncated match");
  Bytes early_match = Header(10);
  Append(early_match, Bytes{0x01, 0x00, 0x00, 0x00});
  EXPECT_EQ(DecodeError(early_match), "LzssDecompress: match before start");
  Bytes far_match = Header(10);
  Append(far_match, Bytes{0x02, 'a', 0x01, 0x00, 0x00});  // Offset 2 with one byte out.
  EXPECT_EQ(DecodeError(far_match), "LzssDecompress: match before start");
  Bytes short_literal = Header(10);
  Append(short_literal, Bytes{0x00, 'a', 'b', 'c'});
  EXPECT_EQ(DecodeError(short_literal), "LzssDecompress: truncated literal");
  Bytes short_group = Header(10);  // Eight literals declared, seven present.
  Append(short_group, Bytes{0x00, 'a', 'b', 'c', 'd', 'e', 'f', 'g'});
  EXPECT_EQ(DecodeError(short_group), "LzssDecompress: truncated literal");
  Bytes overrun = Header(3);  // A literal, then a 4-byte match: 5 > 3.
  Append(overrun, Bytes{0x02, 'a', 0x00, 0x00, 0x00});
  EXPECT_EQ(DecodeError(overrun), "LzssDecompress: size mismatch");
  Bytes long_overrun = Header(9);  // Eight literals, then a 4-byte match.
  Append(long_overrun, Bytes{0x00, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 0x01, 0x03, 0x00, 0x00});
  EXPECT_EQ(DecodeError(long_overrun), "LzssDecompress: size mismatch");
}

TEST(Varint, RoundTrip) {
  Bytes buf;
  std::vector<uint64_t> values = {0, 1, 127, 128, 300, 1u << 20, UINT64_MAX};
  for (uint64_t v : values) {
    PutVarint(buf, v);
  }
  size_t pos = 0;
  for (uint64_t v : values) {
    EXPECT_EQ(GetVarint(buf, &pos), v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(Varint, TruncatedThrows) {
  Bytes buf;
  PutVarint(buf, 1u << 30);
  buf.pop_back();
  size_t pos = 0;
  EXPECT_THROW(GetVarint(buf, &pos), std::invalid_argument);
}

TEST(ZigZag, RoundTrip) {
  for (int64_t v : std::vector<int64_t>{0, 1, -1, 2, -2, 1000000, -1000000, INT64_MAX, INT64_MIN}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  // Small magnitudes map to small codes.
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(DeltaVarint, RoundTrip) {
  std::vector<uint64_t> values = {100, 150, 200, 190, 1000000, 1000001};
  EXPECT_EQ(DecodeDeltaVarint(EncodeDeltaVarint(values)), values);
  EXPECT_TRUE(DecodeDeltaVarint(EncodeDeltaVarint({})).empty());
}

TEST(DeltaVarint, NearArithmeticSequencesCompressWell) {
  // Timestamps at ~fixed cadence: the VMM-specific preprocessing target.
  std::vector<uint64_t> ts;
  Prng rng(3);
  uint64_t t = 1000000;
  for (int i = 0; i < 10000; i++) {
    t += 950 + rng.Below(100);
    ts.push_back(t);
  }
  Bytes enc = EncodeDeltaVarint(ts);
  EXPECT_LT(enc.size(), ts.size() * 3);  // ~2 bytes per 8-byte value.
  EXPECT_EQ(DecodeDeltaVarint(enc), ts);
}

TEST(DeltaVarint, RandomSequenceRoundTrips) {
  Prng rng(4);
  std::vector<uint64_t> values;
  for (int i = 0; i < 500; i++) {
    values.push_back(rng.Next());
  }
  EXPECT_EQ(DecodeDeltaVarint(EncodeDeltaVarint(values)), values);
}

}  // namespace
}  // namespace avm
