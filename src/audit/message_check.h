// The message-stream state machine of the §4.4/§4.5 syntactic check.
// Every audit feeds it through the one chunked walk of the audit
// engine (ChunkedSyntacticChecker in src/audit/pipeline.h); the
// whole-segment SyntacticMessageCheck, which VerifyEvidence runs as
// the independent third-party check, feeds the same state machine.
// Feed() consumes entries in log order; `sig_verdict` is a precomputed
// RSA result (-1 = verify inline), so a walk with a pool and one
// without produce identical verdicts at identical seqs.
//
// Batched/async sign modes elide per-message signatures: SEND/RECV
// entries carry an empty payload signature and ACK entries an unsigned
// authenticator. A signature-less SEND needs no extra check (the
// chain + the node's own authenticators already commit it); a
// signature-less RECV or ACK is held *pending* until a PeerCommitRecord
// (logged by the transport when the peer's windowed commitment
// verified) proves the peer's signed chain contains the matching
// SEND(m) / RECV(m). Finalize() fails any entry still unproven at the
// end of a strict scan. Sync-mode logs contain no empty signatures
// under a real scheme and no PeerCommitRecords, so their verdicts are
// bit-for-bit unchanged.
#ifndef SRC_AUDIT_MESSAGE_CHECK_H_
#define SRC_AUDIT_MESSAGE_CHECK_H_

#include <deque>
#include <map>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "src/avmm/message.h"
#include "src/tel/log.h"
#include "src/tel/verifier.h"
#include "src/util/serde.h"

namespace avm {

struct AuditConfig;

// Parses the (MessageRecord, payload_sig) pair stored in SEND/RECV
// entries. Returns false on malformed content.
bool ParseMessageEntry(const LogEntry& e, MessageRecord* msg, Bytes* sig);

// One per-entry RSA check of a run of entries: a SEND/RECV payload
// signature or an ACK authenticator. `entry` indexes the run.
struct MessageSigJob {
  size_t entry;
  bool is_ack;
  MessageRecord msg;  // Parsed once; valid when !is_ack.
  Bytes sig;
  Authenticator ack_auth;  // Valid when is_ack.

  bool Verify(const KeyRegistry& registry) const;
};

// The RSA checks of `node`'s entries that can run ahead of the scan, so
// a walk with a pool can fan them out and feed the verdicts in. Only
// entries that parse, pass their node check and carry a signature are
// collected; those are exactly the entries whose signatures the scan
// would reach, so consuming the verdicts in order yields an identical
// result. (For a run that fails earlier for a non-signature reason this
// does some wasted verifications; verdict-changing it is not.)
// Signature-less entries (batched/async sign modes) are resolved
// against PeerCommitRecords by the scan, not by an RSA check.
std::vector<MessageSigJob> CollectMessageSigJobs(const NodeId& node,
                                                std::span<const LogEntry> entries);

class MessageCheckState {
 public:
  // `strict`: see SyntacticMessageCheck (src/audit/auditor.h).
  MessageCheckState(NodeId node, const KeyRegistry& registry, bool strict)
      : node_(std::move(node)), registry_(registry), strict_(strict) {}

  CheckResult Feed(const LogEntry& e, int8_t sig_verdict);

  // Strict scans must end with nothing pending: an unproven entry means
  // the log accepted a message no signed commitment ever covered.
  CheckResult Finalize() const;

  // Checkpoint support (src/audit/checkpoint.h): the scan state after
  // feeding entries 1..S, serialized so a later audit can resume at
  // S+1 and produce bit-for-bit the verdict of a from-genesis scan —
  // including checkpoints taken mid-batch-window, where pending
  // RECV/ACK entries are still waiting for a peer commitment.
  void SerializeState(Writer& w) const;
  // Restores into a freshly constructed state (same node/registry/
  // strictness). Throws SerdeError on malformed input.
  void RestoreState(Reader& r);

 private:
  // What a peer's verified batch commitments have proven so far.
  struct PeerProof {
    bool seen = false;
    uint64_t commit_seq = 0;  // Chain position of the last commitment.
    Hash256 commit_hash;
    std::set<Hash256> send_contents;    // H(content) of proven SEND links.
    std::map<uint64_t, Hash256> chain;  // Proven seq -> chain hash.
  };
  struct PendingRecv {
    uint64_t seq;
    NodeId src;
    Hash256 content_hash;
  };
  struct PendingAck {
    uint64_t seq;
    Authenticator auth;
  };

  CheckResult FeedPeerCommit(const LogEntry& e);

  NodeId node_;
  const KeyRegistry& registry_;
  bool strict_;
  // RECV payloads waiting to be delivered into the guest (FIFO).
  std::deque<Bytes> recv_queue_;
  // Tail (bytes after the 4-byte dst header) of the latest guest TX.
  Bytes current_tx_tail_;
  bool have_tx_ = false;
  // msg_ids this node has sent (for ack pairing).
  std::map<std::pair<NodeId, uint64_t>, bool> sent_ids_;
  // Batched-mode bookkeeping.
  std::map<NodeId, PeerProof> peer_proofs_;
  std::vector<PendingRecv> pending_recvs_;
  std::vector<PendingAck> pending_acks_;
};

}  // namespace avm

#endif  // SRC_AUDIT_MESSAGE_CHECK_H_
