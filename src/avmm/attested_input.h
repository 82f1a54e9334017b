// Secure local input (§7.2's "using trust to get stronger guarantees").
//
// The one cheat class AVMs cannot catch is forged *local* input: a
// program outside the AVM feeding synthesized keystrokes through the
// legitimate input channel replays perfectly (§4.8, §5.4). The paper's
// proposed fix is crypto support in the input device itself: "keyboards
// could sign keystroke events before reporting them to the OS, and an
// auditor could verify that the keystrokes are genuine using the
// keyboard's public key."
//
// AttestedInput implements exactly that. The input device holds a
// keypair certified in the key registry under the device identity
// "<node>/input". Each event is signed over (device id, event index,
// code); the AVMM logs the attestation alongside the input value, and
// the syntactic check (whenever the registry certifies the node's input
// device) verifies every consumed input event. A forged event either carries no
// valid attestation (detected) or must reuse an old one (detected by the
// strictly increasing event index).
#ifndef SRC_AVMM_ATTESTED_INPUT_H_
#define SRC_AVMM_ATTESTED_INPUT_H_

#include <cstdint>
#include <string>

#include "src/crypto/keys.h"
#include "src/tel/log.h"
#include "src/tel/verifier.h"
#include "src/util/bytes.h"
#include "src/util/serde.h"

namespace avm {

// Device identity under which an input attestor's public key is
// registered: "<node id>/input".
NodeId InputDeviceId(const NodeId& node);

// The attested-input policy: `node`'s consumed input events must carry
// valid attestations iff the registry certifies its input device
// (InputDeviceId(node)). Every audit path -- the audit engine's
// checker, checkpoint validation and VerifyEvidence -- asks this one
// question, so none of them can disagree about it.
bool InputAttestationRequired(const NodeId& node, const KeyRegistry& registry);

struct AttestedInputEvent {
  NodeId device;       // The signing device's registry identity.
  uint64_t index = 0;  // Strictly increasing per device.
  uint32_t code = 0;   // The input event (key code).
  Bytes signature;     // Over SignedPayload(device, index, code).

  static Bytes SignedPayload(const NodeId& device, uint64_t index, uint32_t code);
  Bytes Serialize() const;
  static AttestedInputEvent Deserialize(ByteView data);

  bool Verify(const KeyRegistry& registry) const;
};

// The "hardware" side: lives with the physical keyboard, not with the
// (untrusted) machine. Cheats running on the machine cannot produce
// valid attestations because the signing key never leaves the device.
class InputAttestor {
 public:
  InputAttestor(const NodeId& node, SignatureScheme scheme, Prng& rng)
      : signer_(InputDeviceId(node), scheme, rng) {}

  AttestedInputEvent Attest(uint32_t code) {
    AttestedInputEvent e;
    e.device = signer_.id();
    e.index = next_index_++;
    e.code = code;
    e.signature = signer_.Sign(AttestedInputEvent::SignedPayload(e.device, e.index, e.code));
    return e;
  }

  const Signer& signer() const { return signer_; }

 private:
  Signer signer_;
  uint64_t next_index_ = 0;
};

// Streaming form of the audit-side check: Feed() entries in log order;
// the first failure is the scan's verdict. Factored out so the chunked
// audit engine (src/audit/pipeline.h) can run the identical check
// without materializing the segment.
class AttestedInputScanner {
 public:
  AttestedInputScanner(const NodeId& node, const KeyRegistry& registry);

  CheckResult Feed(const LogEntry& e);

  // Checkpoint support (src/audit/checkpoint.h): the replay-protection
  // cursor (last seen device index) mid-scan, so a resumed audit
  // rejects a replayed attestation exactly as a from-genesis scan does.
  void SerializeState(Writer& w) const;
  void RestoreState(Reader& r);

 private:
  NodeId device_;
  const KeyRegistry& registry_;
  bool device_known_;
  uint64_t last_index_ = 0;
  bool saw_any_ = false;
};

// Audit-side check over a log segment: every consumed input event (a
// PortIn on the INPUT port with a nonzero value) must carry a valid
// attestation with strictly increasing indices. Runs as part of the
// syntactic check when InputAttestationRequired().
CheckResult VerifyAttestedInputs(const LogSegment& segment, const KeyRegistry& registry);

}  // namespace avm

#endif  // SRC_AVMM_ATTESTED_INPUT_H_
