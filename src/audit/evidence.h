// Evidence (§3.3 step 5, §4.7): a self-contained, serializable object
// that convinces a third party of a fault without trusting the accuser or
// the accused. The third party repeats the auditor's checks using only
// public keys and the reference image.
#ifndef SRC_AUDIT_EVIDENCE_H_
#define SRC_AUDIT_EVIDENCE_H_

#include <string>
#include <vector>

#include "src/crypto/keys.h"
#include "src/tel/log.h"
#include "src/util/bytes.h"

namespace avm {

enum class EvidenceKind : uint8_t {
  // The log is authentic (chain + authenticators verify) but replay
  // diverges from the reference image: no correct execution exists.
  kReplayDivergence = 1,
  // The log is authentic but violates the protocol syntactically
  // (bad payload signature, unmatched ack, MAC/message mismatch...).
  kProtocolViolation = 2,
  // Two signed authenticators for the same seq with different hashes:
  // standalone proof of a forked log; no replay needed.
  kForkProof = 3,
};

const char* EvidenceKindName(EvidenceKind k);

struct Evidence {
  EvidenceKind kind = EvidenceKind::kReplayDivergence;
  NodeId accused;
  std::string claim;  // Human-readable description of the alleged fault.

  // kReplayDivergence / kProtocolViolation:
  Bytes segment;                       // Serialized LogSegment.
  std::vector<Bytes> auths;            // Serialized authenticators.
  std::vector<Bytes> snapshot_deltas;  // Increments to materialize the start
                                       // state, empty for image-start audits.
  uint64_t mem_size = 0;

  // kForkProof: exactly two serialized authenticators in `auths`.

  Bytes Serialize() const;
  static Evidence Deserialize(ByteView data);
};

struct EvidenceVerdict {
  bool fault_confirmed = false;
  std::string detail;
};

// Independently verifies evidence. The verifier needs only the key
// registry and its own trusted copy of the reference image, and repeats
// the audit's checks with the whole-segment primitives in the audit
// engine's phase order: authenticators, message stream, attested inputs
// (when InputAttestationRequired), replay; so evidence of a fault the
// engine's checks found is confirmed here (§4.7 completeness). Accuracy
// (§4.7): if the accused is correct, no evidence can verify against it.
EvidenceVerdict VerifyEvidence(const Evidence& evidence, const KeyRegistry& registry,
                               ByteView reference_image);

}  // namespace avm

#endif  // SRC_AUDIT_EVIDENCE_H_
