// Log-integrity verification: the "verify the log" step of an audit
// (§4.5). Given a segment and the authenticators the auditor collected,
// establish that the segment is genuine before replaying it.
#ifndef SRC_TEL_VERIFIER_H_
#define SRC_TEL_VERIFIER_H_

#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/tel/log.h"

namespace avm {

struct CheckResult {
  bool ok = true;
  // Human-readable reason for the first failure; empty when ok.
  std::string reason;
  // Sequence number at which the failure was detected (0 if n/a).
  uint64_t bad_seq = 0;

  static CheckResult Ok() { return CheckResult{}; }
  static CheckResult Fail(std::string why, uint64_t seq = 0) {
    return CheckResult{false, std::move(why), seq};
  }
};

// One link of the chain rule: `e` must carry `expect_seq` and extend
// `prev` per the hash rule (seq checked first, as every scan does).
// The single source of truth shared by VerifyChain, the streaming
// syntactic check and the audit engine's chunked checker.
CheckResult CheckChainLink(const Hash256& prev, uint64_t expect_seq, const LogEntry& e);

// CheckChainLink's verdict for links [begin, end) of `entries` (begin >=
// 1), each against the *stored* hash and seq of the entry before it, so
// the links are independent: links[i] = 1 if link i holds, else 0. The
// hashing goes four links at a time through Sha256::DigestMany (the four
// content digests, then the four link messages). With
// `stop_at_failure`, stops after the first group of four that
// holds a failing link, leaving the later links unwritten.
void CheckChainLinks(std::span<const LogEntry> entries, size_t begin, size_t end, int8_t* links,
                     bool stop_at_failure);

// Recomputes the hash chain across the segment: sequence numbers must be
// consecutive and every h_i must match the hash rule. Detects in-segment
// tampering, reordering, insertion and deletion.
CheckResult VerifyChain(const LogSegment& segment);

// Checks the segment against previously collected authenticators:
// every authenticator whose seq falls inside the segment must match the
// recomputed hash, and its signature must verify. Detects log forks: a
// machine that shows different histories to different auditors must have
// signed two different hashes for the same seq. Failures are reported
// in authenticator order.
CheckResult VerifyAgainstAuthenticators(const LogSegment& segment,
                                        std::span<const Authenticator> auths,
                                        const KeyRegistry& registry);

// Two signed authenticators from the same node with the same seq but
// different hashes are standalone proof of misbehavior (a forked log).
bool IsForkProof(const Authenticator& a, const Authenticator& b, const KeyRegistry& registry);

struct BatchAuthenticator;

// Collects authenticators an auditor has received from or about a machine.
class AuthenticatorStore {
 public:
  // Returns false (and stores nothing) if the signature does not verify.
  bool Add(const Authenticator& a, const KeyRegistry& registry);

  // Verifies a whole batch (chain walk + one signature) and stores its
  // commitment. The commitment is a regular authenticator, so fork
  // detection works across batched and per-message signers unchanged.
  bool AddBatch(const BatchAuthenticator& batch, const KeyRegistry& registry);

  // All stored authenticators for `node` with seq in [from, to].
  std::vector<Authenticator> InRange(const NodeId& node, uint64_t from, uint64_t to) const;
  std::vector<Authenticator> AllFor(const NodeId& node) const;

  // Highest-seq authenticator known for `node` (the paper: Alice keeps the
  // most recent authenticator as evidence if M refuses to produce its log).
  const Authenticator* Latest(const NodeId& node) const;

  // If adding ever saw two different hashes for one (node, seq), the pair
  // is remembered here as fork proof.
  const std::vector<std::pair<Authenticator, Authenticator>>& fork_proofs() const {
    return fork_proofs_;
  }

  size_t CountFor(const NodeId& node) const;

 private:
  // node -> seq -> authenticator.
  std::map<NodeId, std::map<uint64_t, Authenticator>> by_node_;
  std::vector<std::pair<Authenticator, Authenticator>> fork_proofs_;
};

}  // namespace avm

#endif  // SRC_TEL_VERIFIER_H_
