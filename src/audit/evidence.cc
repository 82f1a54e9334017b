#include "src/audit/evidence.h"

#include "src/audit/auditor.h"
#include "src/audit/replayer.h"
#include "src/avmm/attested_input.h"
#include "src/avmm/snapshot.h"
#include "src/tel/verifier.h"
#include "src/util/serde.h"

namespace avm {

const char* EvidenceKindName(EvidenceKind k) {
  switch (k) {
    case EvidenceKind::kReplayDivergence:
      return "replay-divergence";
    case EvidenceKind::kProtocolViolation:
      return "protocol-violation";
    case EvidenceKind::kForkProof:
      return "fork-proof";
  }
  return "?";
}

Bytes Evidence::Serialize() const {
  Writer w;
  w.U8(static_cast<uint8_t>(kind));
  w.Str(accused);
  w.Str(claim);
  w.Blob(segment);
  w.U32(static_cast<uint32_t>(auths.size()));
  for (const Bytes& a : auths) {
    w.Blob(a);
  }
  w.U32(static_cast<uint32_t>(snapshot_deltas.size()));
  for (const Bytes& d : snapshot_deltas) {
    w.Blob(d);
  }
  w.U64(mem_size);
  return w.Take();
}

Evidence Evidence::Deserialize(ByteView data) {
  Reader r(data);
  Evidence e;
  uint8_t k = r.U8();
  if (k < 1 || k > 3) {
    throw SerdeError("Evidence: bad kind");
  }
  e.kind = static_cast<EvidenceKind>(k);
  e.accused = r.Str();
  e.claim = r.Str();
  e.segment = r.Blob();
  uint32_t na = r.U32();
  for (uint32_t i = 0; i < na; i++) {
    e.auths.push_back(r.Blob());
  }
  uint32_t nd = r.U32();
  for (uint32_t i = 0; i < nd; i++) {
    e.snapshot_deltas.push_back(r.Blob());
  }
  e.mem_size = r.U64();
  r.ExpectEnd();
  return e;
}

EvidenceVerdict VerifyEvidence(const Evidence& evidence, const KeyRegistry& registry,
                               ByteView reference_image) {
  EvidenceVerdict verdict;

  std::vector<Authenticator> auths;
  try {
    for (const Bytes& a : evidence.auths) {
      auths.push_back(Authenticator::Deserialize(a));
    }
  } catch (const SerdeError& e) {
    verdict.detail = std::string("evidence malformed: ") + e.what();
    return verdict;
  }

  if (evidence.kind == EvidenceKind::kForkProof) {
    if (auths.size() != 2) {
      verdict.detail = "fork proof must contain exactly two authenticators";
      return verdict;
    }
    if (auths[0].node != evidence.accused) {
      verdict.detail = "fork proof does not name the accused";
      return verdict;
    }
    if (IsForkProof(auths[0], auths[1], registry)) {
      verdict.fault_confirmed = true;
      verdict.detail = "two valid authenticators commit to different logs at seq " +
                       std::to_string(auths[0].seq);
    } else {
      verdict.detail = "authenticators do not constitute a fork proof";
    }
    return verdict;
  }

  LogSegment segment;
  try {
    segment = LogSegment::Deserialize(evidence.segment);
  } catch (const SerdeError& e) {
    verdict.detail = std::string("evidence segment malformed: ") + e.what();
    return verdict;
  }
  if (segment.node != evidence.accused) {
    verdict.detail = "segment does not belong to the accused";
    return verdict;
  }

  // The segment must be authentic: otherwise the *accuser* may have
  // fabricated it, and it proves nothing about the accused (§4.7 accuracy).
  CheckResult auth_check = VerifyAgainstAuthenticators(segment, auths, registry);
  if (!auth_check.ok) {
    verdict.detail = "segment not authenticated: " + auth_check.reason;
    return verdict;
  }

  // Repeat the syntactic check: the message stream (strict unless the
  // segment is a spot-check window, which starts from a snapshot), then
  // attested inputs under the registry's input-device policy.
  CheckResult syntactic =
      SyntacticMessageCheck(segment, registry, /*strict=*/evidence.snapshot_deltas.empty());
  if (syntactic.ok && InputAttestationRequired(segment.node, registry)) {
    syntactic = VerifyAttestedInputs(segment, registry);
  }
  if (!syntactic.ok) {
    verdict.fault_confirmed = true;
    verdict.detail = "protocol violation confirmed: " + syntactic.reason + " at seq " +
                     std::to_string(syntactic.bad_seq);
    return verdict;
  }
  if (evidence.kind == EvidenceKind::kProtocolViolation) {
    verdict.detail = "claimed protocol violation not reproducible; accused appears correct";
    return verdict;
  }

  // Repeat the semantic check.
  ReplayResult replay;
  if (evidence.snapshot_deltas.empty()) {
    replay = ReplaySegment(segment, reference_image, evidence.mem_size);
  } else {
    SnapshotStore store;
    try {
      for (const Bytes& d : evidence.snapshot_deltas) {
        store.Add(SnapshotDelta::Deserialize(d));
      }
      MaterializedState start = store.Materialize(store.Count() - 1, evidence.mem_size);
      replay = ReplaySegment(segment, start);
    } catch (const std::exception& e) {
      verdict.detail = std::string("evidence snapshots malformed: ") + e.what();
      return verdict;
    }
  }

  if (!replay.ok) {
    verdict.fault_confirmed = true;
    verdict.detail = "replay divergence confirmed: " + replay.reason + " at seq " +
                     std::to_string(replay.diverged_seq);
  } else {
    verdict.detail = "log replays correctly against the reference image; accused appears correct";
  }
  return verdict;
}

}  // namespace avm
