// Audit checkpoints (§6.11, §8): resumable, incremental audits.
//
// The paper's deployment story is one auditor responsible for many
// accountable machines over long uptimes, yet a from-genesis
// AuditFull replays the *whole* log every time — O(total log) per
// re-audit. A checkpoint persists everything the auditor has already
// established about one auditee's log prefix 1..S:
//
//  * the verified chain watermark (S, h_S);
//  * the replayed reference-machine state at S (CpuState + memory,
//    LZSS-compressed, authenticated by its Merkle state root — the
//    same machinery as the §4.4 snapshots in src/avmm/snapshot);
//  * the streaming syntactic-scan state (message-stream state machine,
//    mid-batch-window pending entries, attested-input cursor);
//  * the chain hashes at every authenticator seq verified so far.
//
// A later audit resumes at S+1 and produces bit-for-bit the verdict of
// a from-genesis audit. Trust model: the checkpoint is the *auditor's*
// own record (signed with the auditor's key and kept in the auditee's
// store directory); a forged or stale file fails signature/digest/chain
// validation and the audit silently falls back to genesis, and
// tampering behind an accepted checkpoint is still caught — rewriting
// the prefix changes h_S (checkpoint rejected, genesis audit catches
// the tamper) or contradicts an authenticator resolved against the
// watermarked chain.
#ifndef SRC_AUDIT_CHECKPOINT_H_
#define SRC_AUDIT_CHECKPOINT_H_

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "src/audit/auditor.h"
#include "src/crypto/keys.h"
#include "src/tel/segment_source.h"
#include "src/util/bytes.h"

namespace avm {

class LogStore;

struct AuditCheckpoint {
  NodeId node;                // Whose log this watermark is about.
  NodeId auditor;             // Who verified the prefix (signature key id).
  uint64_t seq = 0;           // Last verified seq (the watermark S).
  Hash256 chain_hash;         // h_S: the log's chain hash at S.
  uint64_t mem_size = 0;      // Reference machine memory size.
  Bytes machine_state;        // MaterializedState wire form at S (CpuState +
                              // LZSS memory + its Merkle root, §4.4's rule).
  Bytes scan_state;           // ChunkedSyntacticChecker resumable state.
  // Chain hash at each authenticator seq verified up to S: lets a
  // resumed audit re-check authenticators behind the watermark (new
  // ones included) without reading the prefix back from the store.
  std::map<uint64_t, Hash256> verified_auth_hashes;
  Bytes signature;            // Auditor's signature over PayloadDigest().

  // SHA-256 over every field except the signature; what gets signed.
  Hash256 PayloadDigest() const;
  Bytes Serialize() const;
  // Throws SerdeError on malformed or truncated input.
  static AuditCheckpoint Deserialize(ByteView data);
};

// File name a checkpoint is kept under inside the auditee's log/store
// directory: "audit-<auditor>.ckpt" ('/' mapped to '_', so device
// identities like "node/input" stay single path components).
std::string AuditCheckpointFileName(const NodeId& auditor);

// Atomically persists `cp` into `dir` (via LogStore::WriteAuxFile, so
// a crash mid-write leaves only a *.tmp that store recovery removes).
// With `aux_store`, the write goes through that store's batched-fsync
// path instead (WriteAuxFileBatched): the rename is still atomic, and
// the fsync piggybacks on the store's next group commit rather than
// costing the audit thread a synchronous durability round-trip.
void SaveAuditCheckpoint(const std::string& dir, const AuditCheckpoint& cp, bool sync = false,
                         LogStore* aux_store = nullptr);

// Loads the checkpoint `auditor` previously saved in `dir`. Returns
// nullopt when absent or unparseable (a corrupt checkpoint is a reason
// to fall back to genesis, never to fail the audit). When
// `reject_reason` is non-null it is set to "" for a cleanly absent
// file and to the parse/read failure otherwise.
std::optional<AuditCheckpoint> LoadAuditCheckpoint(const std::string& dir,
                                                   const NodeId& auditor,
                                                   std::string* reject_reason = nullptr);

// How checkpointed audits behave.
struct CheckpointConfig {
  // Capture cadence in log entries (0 = never write checkpoints).
  // The audit engine ends a chunk on every multiple of the cadence, and
  // captures there only from fully-verified, replay-quiescent states —
  // so the cadence changes how much a resume saves, never any verdict.
  uint64_t every_entries = 8192;
  // The auditing identity: names the checkpoint file, and — when
  // `signer` is set — signs checkpoints so the (auditee-controlled)
  // store cannot forge one. With no signer, checkpoints carry an empty
  // signature and validation degrades to digest + chain-hash checks
  // (the avmm-nosig posture: fine against corruption, not malice).
  NodeId auditor = "auditor";
  const Signer* signer = nullptr;
  // fsync checkpoint files (tests and benches leave this off).
  bool sync = false;
  // When set, checkpoint writes go through this store's batched-fsync
  // path (LogStore::WriteAuxFileBatched) instead of a standalone
  // synchronous write; `sync` is then irrelevant. Typically the
  // auditee's own store, whose directory also holds the checkpoint.
  LogStore* aux_store = nullptr;
};

// Why the last AuditFull call did or did not resume.
struct ResumeInfo {
  bool resumed = false;
  uint64_t resumed_from = 0;        // Watermark S when resumed.
  bool checkpoint_rejected = false; // A checkpoint existed but failed validation.
  std::string reject_reason;
  uint64_t entries_scanned = 0;     // Entries read and checked by this audit.
  uint64_t checkpoints_written = 0;
};

// A full audit that resumes from (and refreshes) a persisted
// checkpoint. It runs the audit engine (src/audit/pipeline.h) from the
// restored checker and replayer, capturing at cadence boundaries, so
// verdicts — ok, syntactic/semantic reason + seq, evidence kind — are
// bit-for-bit those of Auditor::AuditFull at every cadence, sign mode
// and thread count; only wall-clock time and the bytes-read accounting
// change.
class CheckpointedAuditor {
 public:
  CheckpointedAuditor(NodeId self, const KeyRegistry* registry, AuditConfig cfg = {},
                      CheckpointConfig ckpt = {})
      : self_(std::move(self)), registry_(registry), cfg_(cfg), ckpt_(ckpt) {}

  // Full audit of `source`, resuming from the checkpoint in
  // `checkpoint_dir` when one validates (pass "" to disable both resume
  // and capture). `target` plays the same role as in Auditor::AuditFull
  // (accused identity for evidence).
  AuditOutcome AuditFull(const Avmm& target, const SegmentSource& source,
                         ByteView reference_image, std::span<const Authenticator> auths,
                         const std::string& checkpoint_dir, ResumeInfo* info = nullptr);

  const AuditConfig& config() const { return cfg_; }
  const CheckpointConfig& checkpoint_config() const { return ckpt_; }

 private:
  ThreadPool* EnsurePool();
  // AuditFull after its prechecks pass: resume, run, capture.
  AuditOutcome AuditFromCheckpoint(const Avmm& target, const SegmentSource& source,
                                   ByteView reference_image,
                                   std::span<const Authenticator> auths,
                                   const std::string& checkpoint_dir, ResumeInfo& ri);

  NodeId self_;
  const KeyRegistry* registry_;
  AuditConfig cfg_;
  CheckpointConfig ckpt_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace avm

#endif  // SRC_AUDIT_CHECKPOINT_H_
