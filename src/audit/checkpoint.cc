#include "src/audit/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <filesystem>
#include <utility>

#include "src/audit/pipeline.h"
#include "src/audit/replayer.h"
#include "src/avmm/recorder.h"
#include "src/avmm/snapshot.h"
#include "src/crypto/sha256.h"
#include "src/obs/trace.h"
#include "src/store/log_store.h"
#include "src/util/serde.h"
#include "src/util/threadpool.h"

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

void SaveAuditCheckpoint(const std::string& dir, const AuditCheckpoint& cp, bool sync,
                         LogStore* aux_store) {
  std::filesystem::create_directories(dir);
  std::string path = (std::filesystem::path(dir) / AuditCheckpointFileName(cp.auditor)).string();
  if (aux_store != nullptr) {
    aux_store->WriteAuxFileBatched(path, cp.Serialize());
    return;
  }
  LogStore::WriteAuxFile(path, cp.Serialize(), sync);
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

namespace {

// Validates `cp` against the log and the audit configuration. Returns
// the reason the checkpoint must be rejected, or "" with `out` filled.
// Everything in the file is untrusted input: a reject is a silent
// fall-back to a from-genesis audit, never an audit failure.
std::string ValidateCheckpoint(const AuditCheckpoint& cp, const SegmentSource& source,
                               uint64_t last, const KeyRegistry& registry,
                               const CheckpointConfig& ckpt, const AuditConfig& cfg,
                               std::span<const Authenticator> auths, AuditResume* out) {
  if (cp.node != source.node()) {
    return "checkpoint names a different node";
  }
  if (cp.auditor != ckpt.auditor) {
    return "checkpoint written by a different auditor";
  }
  // A forged checkpoint would let a tampered prefix escape verification,
  // so when the auditing identity has a real key the signature is
  // load-bearing, not optional.
  if (ckpt.signer != nullptr || registry.RequiresSignature(cp.auditor)) {
    if (!registry.VerifyDigest(cp.auditor, cp.PayloadDigest(), cp.signature)) {
      return "checkpoint signature invalid";
    }
  }
  if (cp.seq < 1 || cp.seq > last) {
    return "watermark beyond the end of the log (log rewound or foreign)";
  }
  if (cp.mem_size != cfg.mem_size) {
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
  AuditConfig full_cfg = cfg;
  full_cfg.strict_message_crossref = true;
  std::string scan_err =
      ChunkedSyntacticChecker::ResumableStateError(cp.scan_state, cp.node, registry, full_cfg);
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

}  // namespace

ThreadPool* CheckpointedAuditor::EnsurePool() {
  if (pool_ == nullptr && ResolveThreads(cfg_.threads) > 1) {
    pool_ = std::make_unique<ThreadPool>(cfg_.threads);
  }
  return pool_.get();
}

AuditOutcome CheckpointedAuditor::AuditFull(const Avmm& target, const SegmentSource& source,
                                            ByteView reference_image,
                                            std::span<const Authenticator> auths,
                                            const std::string& checkpoint_dir,
                                            ResumeInfo* info) {
  ResumeInfo local_info;
  ResumeInfo& ri = info != nullptr ? *info : local_info;
  ri = ResumeInfo{};
  return PrecheckedFullAudit(target, source, reference_image, auths, *registry_, cfg_, [&] {
    return AuditFromCheckpoint(target, source, reference_image, auths, checkpoint_dir, ri);
  });
}

AuditOutcome CheckpointedAuditor::AuditFromCheckpoint(const Avmm& target,
                                                      const SegmentSource& source,
                                                      ByteView reference_image,
                                                      std::span<const Authenticator> auths,
                                                      const std::string& checkpoint_dir,
                                                      ResumeInfo& ri) {
  const uint64_t last = source.LastSeq();
  AuditRun run;
  run.last_seq = last;
  run.reference_image = reference_image;
  run.accused = &target;

  // Try to resume from a persisted checkpoint.
  const uint64_t cadence = checkpoint_dir.empty() ? 0 : ckpt_.every_entries;
  AuditResume resume;
  if (cadence > 0) {
    obs::Span load_span(obs::kPhaseAuditCheckpointIo, "audit");
    std::string reject;
    std::optional<AuditCheckpoint> cp = LoadAuditCheckpoint(checkpoint_dir, ckpt_.auditor,
                                                            &reject);
    if (cp.has_value()) {
      reject = ValidateCheckpoint(*cp, source, last, *registry_, ckpt_, cfg_, auths, &resume);
    }
    if (cp.has_value() && reject.empty()) {
      run.resume = &resume;
      ri.resumed = true;
      ri.resumed_from = resume.watermark;
    } else if (!reject.empty()) {
      ri.checkpoint_rejected = true;
      ri.reject_reason = reject;
    }
  }

  // Capture at cadence boundaries: the engine calls back only from a
  // fully verified, replay-quiescent state.
  run.boundary_every = cadence;
  run.on_boundary = [&](uint64_t seq, const ChunkedSyntacticChecker& checker,
                        const StreamingReplayer& replayer) {
    AuditCheckpoint ncp;
    ncp.node = source.node();
    ncp.auditor = ckpt_.auditor;
    ncp.seq = seq;
    ncp.chain_hash = checker.chain_cursor();
    ncp.mem_size = cfg_.mem_size;
    const Machine& m = replayer.machine();
    MaterializedState ms;
    ms.cpu = m.cpu();
    ms.memory = m.ReadMemRange(0, m.mem_size());
    ms.root = ComputeStateRoot(m);
    ncp.machine_state = ms.Serialize();
    Writer w;
    checker.SerializeResumableState(w);
    ncp.scan_state = w.Take();
    ncp.verified_auth_hashes = checker.auth_hashes();
    if (ckpt_.signer != nullptr) {
      ncp.signature = ckpt_.signer->SignDigest(ncp.PayloadDigest());
    }
    // Plain-file capture is a pure optimization: a full disk or an
    // unwritable directory must cost a future resume, never this
    // verdict. A failure from the auditee's own store, though, is a
    // store-health signal (poisoned writer, failed fsync) that the
    // fleet's retry/recovery path must see — rethrow it so the job
    // errors, the owner can reopen the store, and the audit reruns
    // instead of silently losing its checkpoint cadence.
    try {
      obs::Span save_span(obs::kPhaseAuditCheckpointIo, "audit");
      SaveAuditCheckpoint(checkpoint_dir, ncp, ckpt_.sync, ckpt_.aux_store);
      ri.checkpoints_written++;
    } catch (const std::runtime_error&) {
      if (ckpt_.aux_store != nullptr) {
        throw;
      }
    }
  };
  run.entries_checked = &ri.entries_scanned;
  return RunAuditEngine(source, auths, *registry_, cfg_, EnsurePool(), run);
}

}  // namespace avm
