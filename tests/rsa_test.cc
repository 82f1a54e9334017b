#include <gtest/gtest.h>

#include "src/crypto/keys.h"
#include "src/crypto/rsa.h"

namespace avm {
namespace {

// Small keys keep the test fast; the scheme is identical at any size.
RsaKeypair TestKeypair(uint64_t seed = 1, size_t bits = 512) {
  Prng rng(seed);
  return RsaKeypair::Generate(rng, bits);
}

TEST(Rsa, SignVerifyRoundTrip) {
  RsaKeypair kp = TestKeypair();
  Bytes msg = ToBytes("the quick brown fox");
  Bytes sig = RsaSign(kp.priv, msg);
  EXPECT_EQ(sig.size(), kp.pub.ByteLength());
  EXPECT_TRUE(RsaVerify(kp.pub, msg, sig));
}

TEST(Rsa, VerifyRejectsModifiedMessage) {
  RsaKeypair kp = TestKeypair();
  Bytes sig = RsaSign(kp.priv, ToBytes("message A"));
  EXPECT_FALSE(RsaVerify(kp.pub, ToBytes("message B"), sig));
}

TEST(Rsa, VerifyRejectsModifiedSignature) {
  RsaKeypair kp = TestKeypair();
  Bytes msg = ToBytes("message");
  Bytes sig = RsaSign(kp.priv, msg);
  for (size_t i = 0; i < sig.size(); i += 13) {
    Bytes bad = sig;
    bad[i] ^= 1;
    EXPECT_FALSE(RsaVerify(kp.pub, msg, bad));
  }
}

TEST(Rsa, VerifyRejectsWrongKey) {
  RsaKeypair a = TestKeypair(1), b = TestKeypair(2);
  Bytes msg = ToBytes("message");
  EXPECT_FALSE(RsaVerify(b.pub, msg, RsaSign(a.priv, msg)));
}

TEST(Rsa, VerifyRejectsWrongLengthAndOversized) {
  RsaKeypair kp = TestKeypair();
  Bytes msg = ToBytes("m");
  EXPECT_FALSE(RsaVerify(kp.pub, msg, Bytes(10, 0)));
  // s >= n must be rejected.
  Bytes huge = kp.pub.n.ToBytes(kp.pub.ByteLength());
  EXPECT_FALSE(RsaVerify(kp.pub, msg, huge));
}

TEST(Rsa, EmptyMessageSigns) {
  RsaKeypair kp = TestKeypair();
  Bytes sig = RsaSign(kp.priv, Bytes());
  EXPECT_TRUE(RsaVerify(kp.pub, Bytes(), sig));
}

TEST(Rsa, DeterministicSignature) {
  // PKCS#1 v1.5 signing is deterministic: same key + message -> same sig.
  RsaKeypair kp = TestKeypair();
  Bytes m = ToBytes("stable");
  EXPECT_EQ(RsaSign(kp.priv, m), RsaSign(kp.priv, m));
}

TEST(Rsa, KeygenModulusExactBits) {
  for (uint64_t seed : {3u, 4u, 5u}) {
    RsaKeypair kp = TestKeypair(seed, 512);
    EXPECT_EQ(kp.pub.n.BitLength(), 512u);
  }
}

TEST(Rsa, Keygen768LikePaper) {
  RsaKeypair kp = TestKeypair(6, 768);
  EXPECT_EQ(kp.pub.n.BitLength(), 768u);
  Bytes msg = ToBytes("paper-sized key");
  EXPECT_TRUE(RsaVerify(kp.pub, msg, RsaSign(kp.priv, msg)));
}

TEST(Rsa, DeterministicKeygenFromSeed) {
  Prng r1(99), r2(99);
  RsaKeypair a = RsaKeypair::Generate(r1, 256);
  RsaKeypair b = RsaKeypair::Generate(r2, 256);
  EXPECT_EQ(a.pub.n, b.pub.n);
}

// Known answers recorded from the 32-bit-limb Montgomery implementation:
// keygen (Miller-Rabin) and signing must stay bit-identical across
// changes to the bignum kernel.
std::string ModulusDigestHex(const RsaKeypair& kp) {
  Hash256 h = Sha256::Digest(kp.pub.n.ToBytes());
  return HexEncode(ByteView(h.v.data(), h.v.size()));
}

TEST(Rsa, DeterministicKeygenKnownModulus) {
  Prng rng(99);
  RsaKeypair kp = RsaKeypair::Generate(rng, 256);
  EXPECT_EQ(kp.pub.n.ToHex(), "9bcaaf40e3d0b3def05f27f20325bf11c973eae1f42f1210e2eb0e21ca71e701");
  EXPECT_EQ(ModulusDigestHex(kp), "08622707eb3118fc7348304ad6b909942c66e415ae22637ccfb98009463cdff2");
}

TEST(Rsa, KnownAnswerSignature768) {
  RsaKeypair kp = TestKeypair(768, 768);
  EXPECT_EQ(ModulusDigestHex(kp), "7310968a6f79141808d7c47ba58242cf8114a4da41ac26534a5c9b536f0f5149");
  Bytes msg = ToBytes("accountable virtual machines");
  Bytes sig = RsaSign(kp.priv, msg);
  EXPECT_EQ(HexEncode(sig),
            "847d40082bcaa306440826e04ca27c227d0ca25213c5c14dde18b2adb211610da54478c1fbee25e3b8a571d5f1"
            "cc1f11e45e2de5409c827f7a46952fb936e769b9f026b071ed818da11e3d225eff6ffca100a007074861206e"
            "4b1f03ed0e5aca");
  EXPECT_TRUE(RsaVerify(kp.pub, msg, sig));
}

TEST(Rsa, KnownAnswerSignature2048) {
  RsaKeypair kp = TestKeypair(2048, 2048);
  EXPECT_EQ(ModulusDigestHex(kp), "58908d314d07c3625cbcfc158628f422d023c4694cf28c5f3391356d08897b5b");
  Bytes msg = ToBytes("accountable virtual machines");
  Bytes sig = RsaSign(kp.priv, msg);
  EXPECT_EQ(HexEncode(sig),
            "824e374d7a501c4f598f246299a85879331d391037dd3d6f4b49b81802dffe4725d94b93838ab99a9a90f5c4"
            "3c0e1f4aed44651b10e202eafb7468665e939fcf3b3485605c5e257024d1d2bb3115c374c223df79f2232369"
            "f4a2cdb79ee8d84d6f66b8edce9bba24600f736eb0c30eb1dcfdbf18f72aa823c3c3e9ab8a4e4cdd5102c630"
            "e3660c7c4ae2a178ca3dd250a85874bde67876b4d64d31f0e310c95c9e8af1aa8cfc468bc132df815fe1766d"
            "83271ee5dd634850bc7fdedc515a3196dbd4b8ce646582d5691392fb7b0f0845cdd930911fccad897d97fec3"
            "aae98c1ab1ffe6c6ac073e333eacebd3b4d95bf2b660f2913005528e64c581f0bd3072f8");
  EXPECT_TRUE(RsaVerify(kp.pub, msg, sig));
}

TEST(Rsa, PublicKeySerializationRoundTrip) {
  RsaKeypair kp = TestKeypair();
  RsaPublicKey restored = RsaPublicKey::Deserialize(kp.pub.Serialize());
  EXPECT_EQ(restored.n, kp.pub.n);
  EXPECT_EQ(restored.e, kp.pub.e);
  EXPECT_EQ(restored.Fingerprint(), kp.pub.Fingerprint());
}

TEST(Rsa, ModulusTooSmallThrows) {
  Prng rng(1);
  RsaKeypair kp = RsaKeypair::Generate(rng, 128);
  // 128-bit modulus cannot hold the SHA-256 DigestInfo.
  EXPECT_THROW(RsaSign(kp.priv, ToBytes("x")), std::invalid_argument);
}

TEST(Signer, SchemeNone) {
  Prng rng(1);
  Signer s("alice", SignatureScheme::kNone, rng);
  EXPECT_TRUE(s.Sign(ToBytes("m")).empty());
  KeyRegistry reg;
  reg.RegisterSigner(s);
  EXPECT_TRUE(reg.Verify("alice", ToBytes("m"), Bytes()));
  // A non-empty "signature" is rejected even in nosig mode.
  EXPECT_FALSE(reg.Verify("alice", ToBytes("m"), Bytes{1}));
}

TEST(Signer, SchemeRsaThroughRegistry) {
  Prng rng(2);
  Signer alice("alice", SignatureScheme::kRsa768, rng);
  Signer bob("bob", SignatureScheme::kRsa768, rng);
  KeyRegistry reg;
  reg.RegisterSigner(alice);
  reg.RegisterSigner(bob);

  Bytes msg = ToBytes("hello");
  Bytes sig = alice.Sign(msg);
  EXPECT_TRUE(reg.Verify("alice", msg, sig));
  EXPECT_FALSE(reg.Verify("bob", msg, sig));     // Wrong principal.
  EXPECT_FALSE(reg.Verify("carol", msg, sig));   // Unknown principal.
}

TEST(KeyRegistry, SchemeOf) {
  Prng rng(3);
  Signer s("alice", SignatureScheme::kRsa768, rng);
  KeyRegistry reg;
  reg.RegisterSigner(s);
  EXPECT_EQ(reg.SchemeOf("alice"), SignatureScheme::kRsa768);
  EXPECT_TRUE(reg.Knows("alice"));
  EXPECT_FALSE(reg.Knows("mallory"));
  EXPECT_THROW(reg.SchemeOf("mallory"), std::out_of_range);
}

TEST(SignatureScheme, Names) {
  EXPECT_STREQ(SignatureSchemeName(SignatureScheme::kNone), "nosig");
  EXPECT_STREQ(SignatureSchemeName(SignatureScheme::kRsa768), "rsa768");
  EXPECT_EQ(SignatureSchemeBits(SignatureScheme::kRsa2048), 2048u);
}

}  // namespace
}  // namespace avm
