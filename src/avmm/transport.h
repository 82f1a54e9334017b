// The accountable transport: commitment protocol of §4.3 plus the
// multi-party challenge mechanism of §4.6.
//
// Every message runs one pipeline, whatever the sign mode. The sender
// logs SEND(m) and sends m with its commitment to that entry; the
// receiver checks that the commitment covers SEND(m), logs RECV(m),
// hands m to the guest and acks with its own commitment to RECV(m);
// the sender checks that one, logs ACK and stops retransmitting. Every
// frame that carries one of our commitments (data or ack) leaves
// through one release point, which holds it back while durable commit
// says the entries it commits to could still be lost. In the
// non-accountable configurations (bare-hw / vm-norec / vm-rec) the
// same class ships plain frames with no logging, signatures or acks,
// and rejects any frame that carries a commitment.
//
// The sign mode (RunConfig::sign_mode) decides only how a commitment is
// produced and how a peer's commitment is checked. kSync is the paper's
// protocol bit for bit: a signed payload and a signed authenticator per
// message (DataFrame / AckFrame), checked by signature and ChainHash.
// kBatched/kAsync amortize the RSA cost: frames (BatchDataFrame /
// BatchAckFrame) carry the sender's chain links plus its most recent
// *windowed* commitment (one signature per k log entries, produced
// inline or on a background signer thread); receivers track each
// peer's chain incrementally, hold the derived per-entry hashes
// pending, and verify one signature per window. Once a window
// commitment verifies, the receiver logs a PeerCommitRecord so audits
// can re-establish that every signature-less RECV/ACK entry was
// covered. The cost of the deferral is bounded detection lag, not lost
// evidence: misbehavior inside an open window is exposed at the next
// commitment (or by the retransmit/suspect machinery if the peer never
// closes one), and a crash loses at most the unsigned tail of one
// window -- the same exposure as the paper's unacknowledged suffix.
// All nodes of a scenario must run the same sign mode.
#ifndef SRC_AVMM_TRANSPORT_H_
#define SRC_AVMM_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/avmm/async_signer.h"
#include "src/avmm/config.h"
#include "src/avmm/message.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/tel/batch.h"
#include "src/tel/log.h"
#include "src/tel/verifier.h"

namespace avm {

class Transport : public NetworkDelegate {
 public:
  // Called with each verified incoming guest payload.
  using PacketHandler = std::function<void(SimTime now, const NodeId& src, const Bytes& payload)>;
  // Called when this node is challenged; returns the response body.
  using ChallengeHandler = std::function<Bytes(const ChallengeFrame&)>;
  // Called when a challenge response from `responder` arrives.
  using ChallengeResponseHandler = std::function<void(const ChallengeResponseFrame&)>;

  struct Stats {
    uint64_t packets_sent = 0;
    uint64_t packets_received = 0;
    uint64_t acks_sent = 0;
    uint64_t acks_received = 0;
    uint64_t retransmits = 0;
    uint64_t duplicates = 0;
    uint64_t verify_failures = 0;
    uint64_t dropped_suspended = 0;
    // Batched/async signing.
    uint64_t batch_commits_signed = 0;    // Windows this node sealed.
    uint64_t peer_commits_verified = 0;   // Peer windows verified (1 RSA each).
    uint64_t frames_deferred = 0;         // Frames dropped on a chain gap
                                          // (recovered by retransmission).
    // Durable commit (RunConfig::durable_commit).
    uint64_t durable_deferred_frames = 0;   // Frames held for the watermark.
    uint64_t durable_deferred_commits = 0;  // Window commitments held.
    uint64_t durable_forced_flushes = 0;    // Group commits forced at release.
    uint64_t max_released_auth_seq = 0;     // Highest auth seq put on the wire.
    uint64_t durable_gate_violations = 0;   // Auths released above the
                                            // watermark; must stay 0.
  };

  Transport(NodeId id, const RunConfig* cfg, TamperEvidentLog* log, const Signer* signer,
            SimNetwork* net, const KeyRegistry* registry, AuthenticatorStore* auth_store);

  void SetPacketHandler(PacketHandler h) { packet_handler_ = std::move(h); }
  void SetChallengeHandler(ChallengeHandler h) { challenge_handler_ = std::move(h); }
  void SetChallengeResponseHandler(ChallengeResponseHandler h) {
    challenge_response_handler_ = std::move(h);
  }

  // Sends one guest packet. Logs SEND + authenticator in accountable mode.
  void SendPacket(SimTime now, const NodeId& dst, Bytes payload);

  // Retransmits unacknowledged messages past the timeout. In
  // batched/async modes also closes overdue signature windows and
  // integrates finished background signatures.
  void Tick(SimTime now);

  // Batched/async modes: seals the current window (for kAsync this is
  // the barrier that waits for the signer thread to drain) and pushes a
  // kCommit frame to every peer this transport has chain state with, so
  // their pending entries can be verified. No-op in kSync mode. The
  // caller still drives the network to deliver the frames.
  void Flush(SimTime now);

  // NetworkDelegate.
  void OnFrame(SimTime now, const NodeId& src, ByteView frame) override;

  // §4.6: stop/resume communication with a peer that ignores a challenge.
  void Suspend(const NodeId& peer) { suspended_.insert(peer); }
  void Resume(const NodeId& peer) { suspended_.erase(peer); }
  bool IsSuspended(const NodeId& peer) const { return suspended_.count(peer) > 0; }

  // Sends a challenge about `accused` to `witness` (typically broadcast by
  // the caller to every peer).
  void SendChallenge(SimTime now, const NodeId& witness, const ChallengeFrame& challenge);

  // Peers whose retransmit budget was exhausted ("suspected", §4.3).
  const std::set<NodeId>& suspected() const { return suspected_; }
  const Stats& stats() const { return stats_; }
  // First-failure descriptions, for tests and diagnostics.
  const std::vector<std::string>& violations() const { return violations_; }

  // Wall-clock seconds spent in signing/verification and in log writes
  // (the Figure 6 cost split).
  double crypto_seconds() const { return crypto_seconds_; }
  double logging_seconds() const { return logging_seconds_; }

  const NodeId& id() const { return id_; }

 private:
  // One of our frames that carries a commitment: a data frame (kData /
  // kBatchData) or an ack (kAck / kBatchAck). Release puts it on the
  // wire or, while its commitment is not yet durable, parks it; a
  // released data frame then waits in unacked_ until its ack arrives.
  struct PendingSend {
    NodeId dst;
    uint64_t msg_id = 0;  // Ours for data, the acked peer's for acks.
    Bytes frame;          // Wire bytes, resent verbatim.
    Bytes entry_content;  // Data: the SEND content the ack must commit to.
    // Highest seq of ours the frame's commitment covers; it leaves once
    // DurableFor(release_seq). 0 for batched frames: their one
    // signature (latest_commit_) is gated in IntegrateCommit instead.
    uint64_t release_seq = 0;
    SimTime first_sent = 0;
    SimTime last_sent = 0;
    int retransmits = 0;
  };

  // ----- the per-message pipeline (every sign mode) -----
  // kData/kBatchData: addressing, does src's commitment cover SEND(m),
  // duplicate re-ack, RECV, our ack, delivery to the packet handler.
  void HandleData(SimTime now, const NodeId& src, FrameType type, ByteView body);
  // kAck/kBatchAck: addressing, does the acker's commitment cover
  // RECV(m), ACK, retransmission stops.
  void HandleAck(const NodeId& src, FrameType type, ByteView body);
  // The one release point for frames that carry our commitment.
  void Release(SimTime now, PendingSend p);
  // Appends one entry (timed as logging); returns h_{i-1}.
  Hash256 Log(EntryType type, ByteView content);
  // Our commitment to the entry just appended: signed in kSync; in
  // batched modes the unsigned chain state, sealed by a later window.
  Authenticator CommitToTip(bool batched);
  // kSync: prev + the signed authenticator must commit to `type` with
  // `content` (one ChainHash, one signature check).
  bool SignatureCovers(const NodeId& src, EntryType type, const Bytes& content,
                       const Hash256& prev, const Authenticator& auth);
  // Batched: `link`, src's announced entry for the message, must be
  // `type` over `content_hash` and the tail must extend our view of
  // src's chain. For an ack, `ack_auth` (unsigned) must match the
  // derived chain.
  bool ChainCovers(const NodeId& src, EntryType type, const Hash256& content_hash,
                   const ChainLink* link, const ChainTail& tail, const Authenticator* ack_auth);
  // Runs f, charging its wall time to crypto_seconds_.
  template <typename F>
  auto Crypto(F&& f);

  void HandlePlain(SimTime now, const NodeId& src, ByteView body);
  void HandleChallenge(SimTime now, const NodeId& src, ByteView body);
  void HandleChallengeResponse(SimTime now, const NodeId& src, ByteView body);
  void Violation(const std::string& what);

  // ----- batched/async signing -----
  // Our incrementally tracked view of one peer's hash chain.
  struct PeerChainView {
    uint64_t tip_seq = 0;  // Highest seq we have derived a hash for.
    Hash256 tip_hash;      // h_{tip_seq}.
    // Highest seq covered by a verified signed commitment; everything
    // at or below it has been logged as a PeerCommitRecord.
    uint64_t verified_seq = 0;
    Hash256 verified_hash;  // h_{verified_seq} (the walk start of the
                            // next PeerCommitRecord we log).
    // Derived-but-uncommitted state, pruned at each verified commit.
    std::map<uint64_t, Hash256> hashes;
    std::map<uint64_t, ChainLink> links;
  };

  void HandleCommit(const NodeId& src, ByteView body);
  // Extends (and cross-checks) the stored view of src's chain with the
  // tail, then processes its commitment (one RSA verify per new window,
  // logging a PeerCommitRecord). Returns false when the frame cannot be
  // processed (gap -> wait for retransmission, or a violation).
  // On success *want_hash (if given) receives the derived h_{want_seq}.
  bool ApplyChainTail(const NodeId& src, const ChainTail& tail, uint64_t want_seq = 0,
                      Hash256* want_hash = nullptr);
  // The links extending dst's view of our own chain up to the log tip.
  // `advance` records the tip as known to dst (data/ack frames advance;
  // kCommit frames do not, so a dropped commit never leaves a gap).
  ChainTail BuildTailFor(const NodeId& dst, bool advance);
  // Signs (or enqueues) a window commitment at the log tip when the
  // open window has reached sign_batch_entries.
  void MaybeCloseWindow();
  void RequestCommit(uint64_t seq);
  void IntegrateCommit(Authenticator a);
  void PumpAsync();

  // ----- durable commit (RunConfig::durable_commit) -----
  bool DurableFor(uint64_t seq) const;
  // Accounting at the moment an authenticator actually goes on the wire;
  // durable_gate_violations counts releases above the watermark.
  void NoteAuthRelease(uint64_t seq);
  // Flushes the sink when the watermark lags anything parked, then
  // hands every parked frame the watermark covers back to Release and
  // integrates every parked commitment it covers. Tick and Flush call
  // it, making one group commit per quantum the worst-case release
  // latency.
  void ReleaseDurable(SimTime now);

  NodeId id_;
  const RunConfig* cfg_;
  TamperEvidentLog* log_;
  const Signer* signer_;
  SimNetwork* net_;
  const KeyRegistry* registry_;
  AuthenticatorStore* auth_store_;

  PacketHandler packet_handler_;
  ChallengeHandler challenge_handler_;
  ChallengeResponseHandler challenge_response_handler_;

  uint64_t send_counter_ = 0;
  // Released data frames awaiting their ack, by (dst, msg_id).
  std::map<std::pair<NodeId, uint64_t>, PendingSend> unacked_;
  // (src, msg_id) -> serialized ack frame, resent on duplicate data.
  // `released` is false while the ack is parked: a retransmitted data
  // frame must not push the ack past the gate early.
  struct SentAck {
    Bytes wire;
    bool released = true;
  };
  std::map<std::pair<NodeId, uint64_t>, SentAck> acks_sent_;
  std::deque<PendingSend> parked_;  // In log order, awaiting the watermark.
  std::vector<Authenticator> pending_commits_;  // Signed, not yet durable.
  std::set<NodeId> suspended_;
  std::set<NodeId> suspected_;

  // Batched/async signing state.
  std::map<NodeId, PeerChainView> peer_chains_;
  std::map<NodeId, uint64_t> peer_known_seq_;  // Links already shipped per peer.
  Authenticator latest_commit_;                // seq == 0 until the first window closes.
  uint64_t last_commit_request_seq_ = 0;
  std::unique_ptr<AsyncSignPipeline> sign_pipeline_;  // kAsync only.

  Stats stats_;
  std::vector<std::string> violations_;
  double crypto_seconds_ = 0;
  double logging_seconds_ = 0;

  // Publishes stats_ into the obs registry as callback gauges (the
  // struct stays the per-instance compatibility view). Declared last so
  // the callbacks unregister before anything they read is destroyed.
  void RegisterObsMetrics();
  std::vector<obs::Registry::CallbackHandle> obs_handles_;
};

}  // namespace avm

#endif  // SRC_AVMM_TRANSPORT_H_
