// Batched authenticators: one RSA signature commits a whole window of
// log entries.
//
// The hash chain already makes h_i a commitment to the entire prefix,
// so a single signed authenticator at the *last* entry of a k-entry
// window commits every entry in the window — provided the verifier can
// walk the chain from a known point up to the signed hash. A ChainLink
// carries exactly what that walk needs per entry (seq, type, H(c_i)),
// without the content bytes; a BatchAuthenticator bundles the links of
// one window with the one signed commitment that seals it.
//
// Membership of any seq in the window is checked by walking the chain
// from the nearest earlier commitment: the walk reproduces h_s for
// every covered s, so per-seq verdicts are bit-for-bit those of
// per-entry authenticators. What batching trades away is immediacy, not
// evidence: an entry is provably committed only once the window closes,
// so a machine that crashes (or stalls) mid-window has an unsigned tail
// — exactly the paper's unacknowledged-suffix situation.
#ifndef SRC_TEL_BATCH_H_
#define SRC_TEL_BATCH_H_

#include <vector>

#include "src/tel/log.h"
#include "src/tel/verifier.h"
#include "src/util/serde.h"

namespace avm {

class Signer;

// The one wire format for link sequences, shared by BatchAuthenticator
// and the transport's ChainTail so the two cannot drift.
void WriteChainLinks(Writer& w, const std::vector<ChainLink>& links);
std::vector<ChainLink> ReadChainLinks(Reader& r);

// A signed commitment to the window (prior_seq, commit.seq]: the links
// connect h_{prior_seq} to the signed h_{commit.seq}, so one signature
// commits every entry in between.
struct BatchAuthenticator {
  uint64_t prior_seq = 0;  // 0 = window starts at the head of the log.
  Hash256 prior_hash;      // h_{prior_seq}; Zero when prior_seq == 0.
  std::vector<ChainLink> links;
  Authenticator commit;  // commit.seq == links.back().seq.

  uint64_t FirstSeq() const { return prior_seq + 1; }
  uint64_t LastSeq() const { return commit.seq; }
  bool Covers(uint64_t seq) const { return seq > prior_seq && seq <= commit.seq; }

  // Structural checks, the chain walk, and the one signature check.
  // After this passes, HashAt(seq) is the proven chain hash of every
  // covered seq.
  CheckResult Verify(const KeyRegistry& registry) const;

  // Chain hash the walk implies for a covered seq (throws
  // std::out_of_range outside the window). Meaningful once Verify
  // passed; otherwise these are the issuer's unverified claims.
  Hash256 HashAt(uint64_t seq) const;

  // Signs the window (from_seq-1, to_seq] of `log` as one batch.
  static BatchAuthenticator FromLog(const TamperEvidentLog& log, const Signer& signer,
                                    uint64_t from_seq, uint64_t to_seq);

  Bytes Serialize() const;
  static BatchAuthenticator Deserialize(ByteView data);
};

// The proof a receiver logs once a peer's batch commitment verified:
// the auditable record that RECV/ACK entries whose per-message
// signatures were elided (batched/async sign modes) were in fact
// covered by the peer's signed chain. Stored as the content of a kInfo
// entry, tagged with a magic prefix.
struct PeerCommitRecord {
  NodeId peer;
  BatchAuthenticator batch;

  Bytes Serialize() const;
  // True when a kInfo entry's content carries a PeerCommitRecord.
  static bool IsPeerCommit(ByteView content);
  static PeerCommitRecord Deserialize(ByteView content);
};

}  // namespace avm

#endif  // SRC_TEL_BATCH_H_
