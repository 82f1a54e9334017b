#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/util/prng.h"

namespace avm {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(Sha256::Digest("").Hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(Sha256::Digest("abc").Hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(Sha256::Digest("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").Hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; i++) {
    h.Update(chunk);
  }
  EXPECT_EQ(h.Finish().Hex(), "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes: padding must spill into a second block.
  std::string m(64, 'x');
  Hash256 one = Sha256::Digest(m);
  Sha256 h;
  h.Update(std::string_view(m).substr(0, 31));
  h.Update(std::string_view(m).substr(31));
  EXPECT_EQ(h.Finish(), one);
}

TEST(Sha256, StreamingMatchesOneShotRandomSplits) {
  Prng rng(77);
  for (int trial = 0; trial < 50; trial++) {
    Bytes data = rng.RandomBytes(rng.Below(512));
    Hash256 one = Sha256::Digest(data);
    Sha256 h;
    size_t pos = 0;
    while (pos < data.size()) {
      size_t n = std::min<size_t>(rng.Below(97) + 1, data.size() - pos);
      h.Update(ByteView(data.data() + pos, n));
      pos += n;
    }
    EXPECT_EQ(h.Finish(), one);
  }
}

// Every message length 0..200 at every two-way split point: the
// streaming block buffer (partial-block carry-over, whole blocks from the
// caller's data, padding spilling into a second block in Finish) must
// match the portable one-shot digest.
TEST(Sha256, StreamingMatchesPortableAtEverySplit) {
  Prng rng(78);
  const Bytes data = rng.RandomBytes(200);
  for (size_t len = 0; len <= data.size(); len++) {
    Sha256 portable = Sha256::PortableForTesting();
    portable.Update(ByteView(data.data(), len));
    const Hash256 want = portable.Finish();
    for (size_t split = 0; split <= len; split++) {
      Sha256 h;
      h.Update(ByteView(data.data(), split));
      h.Update(ByteView(data.data() + split, len - split));
      ASSERT_EQ(h.Finish(), want) << "length " << len << " split " << split;
    }
  }
}

TEST(Sha256, UpdateAfterFinishThrows) {
  Sha256 h;
  h.Finish();
  EXPECT_THROW(h.Update("x"), std::logic_error);
  Sha256 h2;
  h2.Finish();
  EXPECT_THROW(h2.Finish(), std::logic_error);
}

TEST(Sha256, UpdateU64LittleEndian) {
  Sha256 a;
  a.UpdateU64(0x0102030405060708ULL);
  uint8_t le[8] = {8, 7, 6, 5, 4, 3, 2, 1};
  Sha256 b;
  b.Update(ByteView(le, 8));
  EXPECT_EQ(a.Finish(), b.Finish());
}

TEST(Hash256, ZeroAndComparisons) {
  Hash256 z = Hash256::Zero();
  EXPECT_TRUE(z.IsZero());
  Hash256 h = Sha256::Digest("x");
  EXPECT_FALSE(h.IsZero());
  EXPECT_NE(h, z);
  EXPECT_EQ(h, Sha256::Digest("x"));
}

TEST(Hash256, FromBytesValidatesLength) {
  Bytes short_buf(31, 0);
  EXPECT_THROW(Hash256::FromBytes(short_buf), std::invalid_argument);
  Bytes ok(32, 7);
  EXPECT_EQ(Hash256::FromBytes(ok).v[0], 7);
}

TEST(Hash256, ShortHexIsPrefix) {
  Hash256 h = Sha256::Digest("y");
  EXPECT_EQ(h.ShortHex(), h.Hex().substr(0, 8));
}

// RFC 4231 HMAC-SHA256 test vectors.
TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(HmacSha256(key, ToBytes("Hi There")).Hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(HmacSha256(ToBytes("Jefe"), ToBytes("what do ya want for nothing?")).Hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  Bytes key(131, 0xaa);
  EXPECT_EQ(HmacSha256(key, ToBytes("Test Using Larger Than Block-Size Key - Hash Key First")).Hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, KeySensitivity) {
  Bytes m = ToBytes("message");
  EXPECT_NE(HmacSha256(ToBytes("k1"), m), HmacSha256(ToBytes("k2"), m));
}

// Hardware/portable agreement, mirroring store_test's CRC-32C pattern:
// Sha256::Digest dispatches to SHA-NI / ARMv8-CE when available, and
// must produce the portable digest for every length and chunking. (On
// hosts without the extension both sides run the portable code and the
// sweep is trivially green; the hardware path is what CI's x86 runners
// exercise.)
TEST(Sha256Hardware, AgreesWithPortableAcrossLengths) {
  Prng rng(42);
  Bytes data;
  data.reserve(300);
  for (int len = 0; len <= 300; len++) {
    Sha256 portable = Sha256::PortableForTesting();
    portable.Update(ByteView(data));
    EXPECT_EQ(Sha256::Digest(data), portable.Finish()) << "length " << len;
    data.push_back(static_cast<uint8_t>(rng.Next()));
  }
}

TEST(Sha256Hardware, AgreesWithPortableOnChunkedUpdates) {
  Prng rng(43);
  Bytes data(64 * 1024 + 17);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  // Uneven Update() splits exercise the partial-block buffer against the
  // multi-block hardware fast path.
  Sha256 dispatched;
  Sha256 portable = Sha256::PortableForTesting();
  size_t pos = 0;
  while (pos < data.size()) {
    size_t n = std::min<size_t>(1 + rng.Next() % 511, data.size() - pos);
    ByteView chunk(data.data() + pos, n);
    dispatched.Update(chunk);
    portable.Update(chunk);
    pos += n;
  }
  EXPECT_EQ(dispatched.Finish(), portable.Finish());
  if (Sha256::HardwareAvailable()) {
    SUCCEED() << "hardware compression exercised";
  }
}

// DigestMany: two-lane pairs (and the per-input fallback) must give
// exactly Digest's and the portable code's answer.
Hash256 PortableDigest(ByteView data) {
  Sha256 h = Sha256::PortableForTesting();
  h.Update(data);
  return h.Finish();
}

void ExpectDigestManyAgrees(const std::vector<Bytes>& messages, const std::string& what) {
  std::vector<ByteView> views(messages.begin(), messages.end());
  std::vector<Hash256> out(messages.size());
  Sha256::DigestMany(views, out);
  for (size_t i = 0; i < messages.size(); i++) {
    EXPECT_EQ(out[i], Sha256::Digest(messages[i])) << what << ", input " << i;
    EXPECT_EQ(out[i], PortableDigest(messages[i])) << what << ", input " << i;
  }
}

TEST(Sha256Many, UniformGroupsAgreeAtEveryLength) {
  Prng rng(44);
  for (size_t len = 0; len <= 300; len++) {
    std::vector<Bytes> group;
    for (int k = 0; k < 4; k++) {
      group.push_back(rng.RandomBytes(len));
    }
    ExpectDigestManyAgrees(group, "length " + std::to_string(len));
  }
}

TEST(Sha256Many, MixedGroupsAgreeAtEveryLength) {
  // Each length sits in a group with neighbours of other padded block
  // counts (55/56 and 119/120 are the padding boundaries) and with
  // lengths that share its block count but not its whole-block count.
  Prng rng(45);
  for (size_t len = 0; len <= 300; len++) {
    const size_t partners[3] = {(len * 7 + 13) % 301, len ^ 8, 300 - len};
    std::vector<Bytes> group{rng.RandomBytes(len)};
    for (size_t p : partners) {
      group.push_back(rng.RandomBytes(std::min<size_t>(p, 300)));
    }
    ExpectDigestManyAgrees(group, "length " + std::to_string(len));
  }
}

TEST(Sha256Many, CountsThatAreNotAMultipleOfFour) {
  Prng rng(46);
  for (size_t count : {0, 1, 2, 3, 5, 6, 7, 9, 13}) {
    std::vector<Bytes> messages;
    for (size_t i = 0; i < count; i++) {
      messages.push_back(rng.RandomBytes(i % 2 == 0 ? 73 : rng.Below(301)));
    }
    ExpectDigestManyAgrees(messages, "count " + std::to_string(count));
  }
  std::vector<ByteView> in(3);
  std::vector<Hash256> out(2);
  EXPECT_THROW(Sha256::DigestMany(in, out), std::invalid_argument);
}

}  // namespace
}  // namespace avm
