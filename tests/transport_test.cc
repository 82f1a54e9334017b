#include <gtest/gtest.h>

#include "src/avmm/transport.h"

namespace avm {
namespace {

// Two accountable transports on a simulated network. Uses nosig keys by
// default so the tests are fast; the hash-chain commitments (which carry
// all the protocol state the tests check) are scheme-independent.
struct TransportFixture : public ::testing::Test {
  explicit TransportFixture(SignatureScheme scheme = SignatureScheme::kNone)
      : rng(1),
        alice_signer("alice", scheme, rng),
        bob_signer("bob", scheme, rng),
        alice_log("alice"),
        bob_log("bob") {
    cfg = RunConfig::AvmmNoSig();
    cfg.scheme = scheme;
    registry.RegisterSigner(alice_signer);
    registry.RegisterSigner(bob_signer);
    alice = std::make_unique<Transport>("alice", &cfg, &alice_log, &alice_signer, &net, &registry,
                                        &alice_auths);
    bob = std::make_unique<Transport>("bob", &cfg, &bob_log, &bob_signer, &net, &registry,
                                      &bob_auths);
    net.AttachHost("alice", alice.get());
    net.AttachHost("bob", bob.get());
    bob->SetPacketHandler([this](SimTime, const NodeId& src, const Bytes& payload) {
      bob_received.emplace_back(src, payload);
    });
    alice->SetPacketHandler([this](SimTime, const NodeId& src, const Bytes& payload) {
      alice_received.emplace_back(src, payload);
    });
  }

  void Settle(SimTime until) { net.DeliverUntil(until); }

  Prng rng;
  RunConfig cfg;
  Signer alice_signer, bob_signer;
  KeyRegistry registry;
  SimNetwork net;
  TamperEvidentLog alice_log, bob_log;
  AuthenticatorStore alice_auths, bob_auths;
  std::unique_ptr<Transport> alice, bob;
  std::vector<std::pair<NodeId, Bytes>> alice_received, bob_received;
};

TEST_F(TransportFixture, DataDeliveredAndLogged) {
  alice->SendPacket(0, "bob", ToBytes("hello"));
  Settle(kMicrosPerSecond);
  ASSERT_EQ(bob_received.size(), 1u);
  EXPECT_EQ(ToString(bob_received[0].second), "hello");

  // Alice logged SEND then (after the ack round trip) ACK.
  ASSERT_EQ(alice_log.size(), 2u);
  EXPECT_EQ(alice_log.At(1).type, EntryType::kSend);
  EXPECT_EQ(alice_log.At(2).type, EntryType::kAck);
  // Bob logged RECV.
  ASSERT_EQ(bob_log.size(), 1u);
  EXPECT_EQ(bob_log.At(1).type, EntryType::kRecv);
}

TEST_F(TransportFixture, AuthenticatorsExchanged) {
  alice->SendPacket(0, "bob", ToBytes("x"));
  Settle(kMicrosPerSecond);
  // Bob holds Alice's SEND authenticator; Alice holds Bob's RECV one.
  EXPECT_EQ(bob_auths.CountFor("alice"), 1u);
  EXPECT_EQ(alice_auths.CountFor("bob"), 1u);
  EXPECT_EQ(alice->stats().acks_received, 1u);
  EXPECT_EQ(bob->stats().acks_sent, 1u);
}

TEST_F(TransportFixture, RetransmitUntilAcked) {
  net.SetPartitioned("alice", "bob", true);
  alice->SendPacket(0, "bob", ToBytes("lost"));
  // Several retransmit timeouts pass with the link down.
  for (SimTime t = 0; t < 200 * kMicrosPerMilli; t += 10 * kMicrosPerMilli) {
    alice->Tick(t);
    Settle(t);
  }
  EXPECT_GE(alice->stats().retransmits, 2u);
  EXPECT_TRUE(bob_received.empty());

  net.SetPartitioned("alice", "bob", false);
  alice->Tick(300 * kMicrosPerMilli);
  Settle(400 * kMicrosPerMilli);
  ASSERT_EQ(bob_received.size(), 1u);
  // Exactly one RECV despite multiple transmissions.
  EXPECT_EQ(bob_log.size(), 1u);
}

TEST_F(TransportFixture, DuplicateDataReAckedNotRelogged) {
  alice->SendPacket(0, "bob", ToBytes("once"));
  Settle(kMicrosPerSecond);
  ASSERT_EQ(bob_log.size(), 1u);

  // Simulate a duplicate by forcing a retransmission after the ack was
  // already processed: drop alice's pending-ack state first.
  net.SetPartitioned("alice", "bob", true);
  alice->SendPacket(kMicrosPerSecond, "bob", ToBytes("second"));
  net.SetPartitioned("alice", "bob", false);
  alice->Tick(kMicrosPerSecond + cfg.retransmit_timeout);  // Retransmit #2.
  alice->Tick(kMicrosPerSecond + 2 * cfg.retransmit_timeout);
  Settle(2 * kMicrosPerSecond);
  // "second" was transmitted twice; bob logs it once and re-acks.
  EXPECT_EQ(bob_log.size(), 2u);
  EXPECT_EQ(bob_received.size(), 2u);
}

TEST_F(TransportFixture, SuspectsUnresponsivePeer) {
  net.SetPartitioned("alice", "bob", true);
  alice->SendPacket(0, "bob", ToBytes("void"));
  SimTime t = 0;
  for (int i = 0; i <= cfg.max_retransmits + 2; i++) {
    t += cfg.retransmit_timeout;
    alice->Tick(t);
  }
  EXPECT_TRUE(alice->suspected().count("bob") > 0);
}

TEST_F(TransportFixture, SuspendBlocksTraffic) {
  alice->Suspend("bob");
  alice->SendPacket(0, "bob", ToBytes("blocked"));
  Settle(kMicrosPerSecond);
  EXPECT_TRUE(bob_received.empty());
  EXPECT_EQ(alice->stats().dropped_suspended, 1u);

  alice->Resume("bob");
  alice->SendPacket(2 * kMicrosPerSecond, "bob", ToBytes("open"));
  Settle(3 * kMicrosPerSecond);
  EXPECT_EQ(bob_received.size(), 1u);
}

TEST_F(TransportFixture, MalformedFrameCountedNotCrash) {
  net.SendFrame(0, "alice", "bob", Bytes{0x01, 0xff, 0xff});  // Truncated data frame.
  net.SendFrame(0, "alice", "bob", Bytes{});                  // Empty.
  net.SendFrame(0, "alice", "bob", Bytes{0x77});              // Unknown type.
  Settle(kMicrosPerSecond);
  EXPECT_GE(bob->stats().verify_failures, 3u);
  EXPECT_TRUE(bob_received.empty());
}

TEST_F(TransportFixture, ForgedSenderAuthenticatorRejected) {
  // Craft a frame whose authenticator does not commit to SEND(m).
  MessageRecord rec{"alice", "bob", 1, ToBytes("forged")};
  DataFrame f;
  f.msg = rec;
  f.payload_sig = alice_signer.Sign(rec.Serialize());
  f.prev_hash = Hash256::Zero();
  f.auth.node = "alice";
  f.auth.seq = 1;
  f.auth.hash = Sha256::Digest("unrelated");
  f.auth.signature = alice_signer.Sign(
      Authenticator::SignedPayload("alice", 1, f.auth.hash));
  net.SendFrame(0, "alice", "bob", WrapFrame(FrameType::kData, f.Serialize()));
  Settle(kMicrosPerSecond);
  EXPECT_TRUE(bob_received.empty());
  EXPECT_GE(bob->stats().verify_failures, 1u);
  EXPECT_EQ(bob_log.size(), 0u);  // Nothing logged for a bogus frame.
}

TEST_F(TransportFixture, MisaddressedFrameRejected) {
  // A data frame claiming src=bob arriving from alice.
  MessageRecord rec{"bob", "bob", 1, ToBytes("spoof")};
  DataFrame f;
  f.msg = rec;
  f.payload_sig = bob_signer.Sign(rec.Serialize());
  f.prev_hash = Hash256::Zero();
  f.auth.node = "bob";
  f.auth.seq = 1;
  f.auth.hash = ChainHash(Hash256::Zero(), 1, EntryType::kSend,
                          MessageEntryContent(rec, f.payload_sig));
  f.auth.signature =
      bob_signer.Sign(Authenticator::SignedPayload("bob", 1, f.auth.hash));
  net.SendFrame(0, "alice", "bob", WrapFrame(FrameType::kData, f.Serialize()));
  Settle(kMicrosPerSecond);
  EXPECT_TRUE(bob_received.empty());
  EXPECT_GE(bob->stats().verify_failures, 1u);
}

TEST_F(TransportFixture, ChallengeRoundTrip) {
  // Carol (modeled by direct frames) challenges bob through alice:
  // alice suspends bob, relays the challenge, bob answers, alice resumes.
  bool bob_challenged = false;
  bob->SetChallengeHandler([&](const ChallengeFrame& c) {
    bob_challenged = true;
    EXPECT_EQ(c.accused, "bob");
    return ToBytes("log-segment-here");
  });
  bool alice_saw_response = false;
  alice->SetChallengeResponseHandler([&](const ChallengeResponseFrame& r) {
    alice_saw_response = true;
    EXPECT_EQ(ToString(r.body), "log-segment-here");
  });

  ChallengeFrame challenge{"carol", "bob", 42, ToBytes("produce-log")};
  net.SendFrame(0, "carol", "alice", WrapFrame(FrameType::kChallenge, challenge.Serialize()));
  // One hop: carol -> alice. Alice suspends bob and relays the challenge,
  // but bob's answer has not arrived yet.
  Settle(100);
  EXPECT_TRUE(alice->IsSuspended("bob"));
  Settle(kMicrosPerSecond);
  EXPECT_TRUE(bob_challenged);
  EXPECT_TRUE(alice_saw_response);
  EXPECT_FALSE(alice->IsSuspended("bob"));
}

TEST_F(TransportFixture, PlainModeHasNoAccountability) {
  RunConfig plain_cfg = RunConfig::BareHw();
  TamperEvidentLog clog("carol"), dlog("dave");
  AuthenticatorStore ca, da;
  Transport carol("carol", &plain_cfg, &clog, nullptr, &net, &registry, &ca);
  Transport dave("dave", &plain_cfg, &dlog, nullptr, &net, &registry, &da);
  net.AttachHost("carol", &carol);
  net.AttachHost("dave", &dave);
  Bytes got;
  dave.SetPacketHandler([&](SimTime, const NodeId&, const Bytes& p) { got = p; });
  carol.SendPacket(0, "dave", ToBytes("fast"));
  Settle(kMicrosPerSecond);
  EXPECT_EQ(ToString(got), "fast");
  EXPECT_EQ(clog.size(), 0u);  // No log entries in plain mode.
  EXPECT_EQ(dlog.size(), 0u);
  EXPECT_EQ(dave.stats().acks_sent, 0u);
}

// A frame that carries a commitment means nothing to a non-accountable
// transport: it has no signer to acknowledge it with, so the frame is
// rejected as a violation before anything is logged, acked or signed.
TEST_F(TransportFixture, AccountableFrameAtPlainTransportRejected) {
  RunConfig plain_cfg = RunConfig::BareHw();
  TamperEvidentLog clog("carol");
  AuthenticatorStore ca;
  Transport carol("carol", &plain_cfg, &clog, nullptr, &net, &registry, &ca);
  net.AttachHost("carol", &carol);
  bool delivered = false;
  carol.SetPacketHandler([&](SimTime, const NodeId&, const Bytes&) { delivered = true; });
  alice->SendPacket(0, "carol", ToBytes("accountable"));
  Settle(kMicrosPerSecond);
  EXPECT_EQ(clog.size(), 0u);
  EXPECT_EQ(carol.stats().verify_failures, 1u);
  EXPECT_EQ(carol.violations().size(), 1u);
  EXPECT_EQ(carol.stats().acks_sent, 0u);
  EXPECT_FALSE(delivered);
}

// The same protocol with real RSA-768 signatures end to end.
struct TransportRsaFixture : public TransportFixture {
  TransportRsaFixture() : TransportFixture(SignatureScheme::kRsa768) {}
};

TEST_F(TransportRsaFixture, SignedRoundTrip) {
  alice->SendPacket(0, "bob", ToBytes("signed hello"));
  Settle(kMicrosPerSecond);
  ASSERT_EQ(bob_received.size(), 1u);
  EXPECT_EQ(alice->stats().acks_received, 1u);
  EXPECT_GT(alice->crypto_seconds(), 0.0);
  EXPECT_EQ(bob->stats().verify_failures, 0u);
}

TEST_F(TransportRsaFixture, TamperedPayloadRejected) {
  // Capture a legitimate frame, flip a payload byte, replay it.
  struct Tap : public NetworkDelegate {
    Transport* inner;
    Bytes last;
    void OnFrame(SimTime now, const NodeId& src, ByteView frame) override {
      last.assign(frame.begin(), frame.end());
      inner->OnFrame(now, src, frame);
    }
  };
  Tap tap;
  tap.inner = bob.get();
  net.AttachHost("bob", &tap);
  alice->SendPacket(0, "bob", ToBytes("genuine"));
  Settle(kMicrosPerSecond);
  ASSERT_EQ(bob_received.size(), 1u);
  ASSERT_FALSE(tap.last.empty());

  Bytes tampered = tap.last;
  tampered[tampered.size() / 2] ^= 0x40;
  size_t fails_before = bob->stats().verify_failures;
  bob->OnFrame(kMicrosPerSecond, "alice", tampered);
  // Either a parse failure or a signature/commitment failure; in all
  // cases nothing new is delivered or logged.
  EXPECT_GE(bob->stats().verify_failures + bob->stats().duplicates, fails_before);
  EXPECT_EQ(bob_received.size(), 1u);
}

}  // namespace
}  // namespace avm
