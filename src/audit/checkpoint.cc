#include "src/audit/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <filesystem>
#include <utility>

#include "src/audit/replayer.h"
#include "src/avmm/snapshot.h"
#include "src/crypto/sha256.h"
#include "src/store/log_store.h"
#include "src/util/serde.h"

namespace avm {

namespace {

constexpr char kCheckpointMagic[8] = {'A', 'V', 'M', 'C', 'K', 'P', 'T', '\n'};

Bytes SerializeCheckpointPayload(const AuditCheckpoint& cp) {
  Writer w;
  w.Str(cp.node);
  w.Str(cp.auditor);
  w.U64(cp.seq);
  w.Raw(cp.chain_hash.view());
  w.U64(cp.mem_size);
  w.Blob(cp.machine_state);
  w.Blob(cp.scan_state);
  w.U32(static_cast<uint32_t>(cp.verified_auth_hashes.size()));
  for (const auto& [seq, hash] : cp.verified_auth_hashes) {
    w.U64(seq);
    w.Raw(hash.view());
  }
  return w.Take();
}

}  // namespace

Hash256 AuditCheckpoint::PayloadDigest() const {
  return Sha256::Digest(SerializeCheckpointPayload(*this));
}

Bytes AuditCheckpoint::Serialize() const {
  Writer w;
  w.Raw(ByteView(reinterpret_cast<const uint8_t*>(kCheckpointMagic), 8));
  w.Blob(SerializeCheckpointPayload(*this));
  w.Raw(PayloadDigest().view());
  w.Blob(signature);
  return w.Take();
}

AuditCheckpoint AuditCheckpoint::Deserialize(ByteView data) {
  Reader outer(data);
  Bytes magic = outer.Raw(8);
  if (std::memcmp(magic.data(), kCheckpointMagic, 8) != 0) {
    throw SerdeError("bad audit-checkpoint magic");
  }
  Bytes payload = outer.Blob();
  Hash256 stored_digest = Hash256::FromBytes(outer.Raw(32));
  AuditCheckpoint cp;
  cp.signature = outer.Blob();
  outer.ExpectEnd();

  Reader r(payload);
  cp.node = r.Str();
  cp.auditor = r.Str();
  cp.seq = r.U64();
  cp.chain_hash = Hash256::FromBytes(r.Raw(32));
  cp.mem_size = r.U64();
  cp.machine_state = r.Blob();
  cp.scan_state = r.Blob();
  uint32_t n = r.U32();
  for (uint32_t i = 0; i < n; i++) {
    uint64_t seq = r.U64();
    cp.verified_auth_hashes[seq] = Hash256::FromBytes(r.Raw(32));
  }
  r.ExpectEnd();
  if (Sha256::Digest(payload) != stored_digest) {
    throw SerdeError("audit-checkpoint digest mismatch (file corrupt)");
  }
  return cp;
}

std::string AuditCheckpointFileName(const NodeId& auditor) {
  std::string safe = auditor;
  std::replace(safe.begin(), safe.end(), '/', '_');
  return "audit-" + safe + ".ckpt";
}

void SaveAuditCheckpoint(const std::string& dir, const AuditCheckpoint& cp,
                         LogStore* aux_store) {
  std::filesystem::create_directories(dir);
  std::string path = (std::filesystem::path(dir) / AuditCheckpointFileName(cp.auditor)).string();
  if (aux_store != nullptr) {
    aux_store->WriteAuxFileBatched(path, cp.Serialize());
    return;
  }
  LogStore::WriteAuxFile(path, cp.Serialize(), /*sync=*/false);
}

std::optional<AuditCheckpoint> LoadAuditCheckpoint(const std::string& dir,
                                                   const NodeId& auditor,
                                                   std::string* reject_reason) {
  if (reject_reason != nullptr) {
    reject_reason->clear();
  }
  std::string path = (std::filesystem::path(dir) / AuditCheckpointFileName(auditor)).string();
  std::optional<Bytes> raw;
  try {
    raw = LogStore::ReadAuxFile(path);
  } catch (const std::runtime_error& e) {
    if (reject_reason != nullptr) {
      *reject_reason = std::string("checkpoint unreadable: ") + e.what();
    }
    return std::nullopt;
  }
  if (!raw.has_value()) {
    return std::nullopt;
  }
  try {
    return AuditCheckpoint::Deserialize(*raw);
  } catch (const SerdeError& e) {
    if (reject_reason != nullptr) {
      *reject_reason = std::string("checkpoint unparseable: ") + e.what();
    }
    return std::nullopt;
  }
}

std::string ValidateAuditCheckpoint(const AuditCheckpoint& cp, const NodeId& auditor,
                                    bool must_be_signed, const SegmentSource& source,
                                    std::span<const Authenticator> auths,
                                    const KeyRegistry& registry, size_t mem_size,
                                    AuditResume* out) {
  if (cp.node != source.node()) {
    return "checkpoint names a different node";
  }
  if (cp.auditor != auditor) {
    return "checkpoint written by a different auditor";
  }
  // A forged checkpoint would let a tampered prefix escape verification,
  // so when the auditing identity has a real key the signature is
  // load-bearing, not optional.
  if (must_be_signed || registry.RequiresSignature(cp.auditor)) {
    if (!registry.VerifyDigest(cp.auditor, cp.PayloadDigest(), cp.signature)) {
      return "checkpoint signature invalid";
    }
  }
  if (cp.seq < 1 || cp.seq > source.LastSeq()) {
    return "watermark beyond the end of the log (log rewound or foreign)";
  }
  if (cp.mem_size != mem_size) {
    return "checkpoint machine size does not match the audit config";
  }
  // The anchor: the log's stored chain hash at the watermark must still
  // be the one this auditor verified. Any prefix rewrite that
  // propagates hashes forward changes h_S and lands here; the fallback
  // genesis audit then catches the tamper itself.
  try {
    if (source.HashAt(cp.seq) != cp.chain_hash) {
      return "log chain hash at watermark changed (tamper or rewind)";
    }
  } catch (const std::exception& e) {
    return std::string("cannot read watermark entry: ") + e.what();
  }
  // Behind-watermark authenticators are re-checked against the hashes
  // recorded in the checkpoint; one we cannot resolve forces a genesis
  // audit (conservative: never changes a verdict, only costs speed).
  for (const Authenticator& a : auths) {
    if (a.node == cp.node && a.seq >= 1 && a.seq <= cp.seq &&
        cp.verified_auth_hashes.count(a.seq) == 0) {
      return "authenticator behind the watermark is not covered by the checkpoint";
    }
  }
  // Machine state: decode and authenticate against its recorded Merkle
  // root (the §4.4 rule, same as snapshot verification — Deserialize
  // rejects a state that does not hash to the root it claims).
  AuditResume rs;
  try {
    rs.machine = MaterializedState::Deserialize(cp.machine_state);
  } catch (const SerdeError& e) {
    return std::string("checkpoint machine state undecodable: ") + e.what();
  }
  if (rs.machine.memory.size() != cp.mem_size) {
    return "checkpoint memory size mismatch";
  }
  std::string scan_err =
      ChunkedSyntacticChecker::ResumableStateError(cp.scan_state, cp.node, registry);
  if (!scan_err.empty()) {
    return "checkpoint scan state undecodable: " + scan_err;
  }
  rs.watermark = cp.seq;
  rs.chain_hash = cp.chain_hash;
  rs.scan_state = cp.scan_state;
  rs.auth_hashes = cp.verified_auth_hashes;
  *out = std::move(rs);
  return "";
}

AuditCheckpoint CaptureAuditCheckpoint(const NodeId& node, const NodeId& auditor, uint64_t seq,
                                       const ChunkedSyntacticChecker& checker,
                                       StreamingReplayer& replayer, const Signer* signer) {
  AuditCheckpoint cp;
  cp.node = node;
  cp.auditor = auditor;
  cp.seq = seq;
  cp.chain_hash = checker.chain_cursor();
  replayer.StateRoot();
  const Machine& m = replayer.machine();
  cp.mem_size = m.mem_size();
  MaterializedState ms;
  ms.cpu = m.cpu();
  ms.memory = m.ReadMemRange(0, m.mem_size());
  ms.tree = replayer.state_tree();
  cp.machine_state = ms.Serialize();
  Writer w;
  checker.SerializeResumableState(w);
  cp.scan_state = w.Take();
  cp.verified_auth_hashes = checker.auth_hashes();
  if (signer != nullptr) {
    cp.signature = signer->SignDigest(cp.PayloadDigest());
  }
  return cp;
}

}  // namespace avm
