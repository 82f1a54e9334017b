// Auditing (§4.5): the syntactic check (log well-formedness, signatures,
// ack pairing, message/trace cross-referencing) and the semantic check
// (deterministic replay). The Auditor entry points below are thin
// callers of the one audit engine in src/audit/pipeline.h.
#ifndef SRC_AUDIT_AUDITOR_H_
#define SRC_AUDIT_AUDITOR_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "src/audit/evidence.h"
#include "src/audit/replayer.h"
#include "src/avmm/recorder.h"
#include "src/tel/segment_source.h"
#include "src/tel/verifier.h"
#include "src/util/threadpool.h"

namespace avm {

class LogStore;

struct AuditConfig {
  size_t mem_size = 256 * 1024;
  // Worker threads (0 = one per hardware thread). With more than one,
  // replay of chunk i runs on a worker while this thread checks chunk
  // i+1, and workers beyond that one fan the per-chunk hash-chain links
  // and RSA checks (authenticators, messages) and SpotCheckMany's
  // independent windows. 1 runs everything inline on the calling
  // thread: the reference path. Verdicts are identical at every
  // setting; only wall-clock time changes.
  unsigned threads = 0;
  // Entries per chunk of the audit engine's scan: every audit holds at
  // most two chunks of the log in memory.
  size_t pipeline_chunk_entries = 2048;
  // Run the semantic check (deterministic replay) on the fast path, the
  // x86-64 JIT where compiled in (src/vm/jit). Off replays on the
  // reference Step() loop. Verdicts are bit-for-bit identical either way
  // (asserted by pipeline_audit_test); only replay wall clock changes.
  bool jit_replay = true;
  // Full-audit pre-pass: statically verify the reference image (CFG
  // recovery + the src/vm/analysis verifier) before replay starts. An
  // image with errors (illegal opcodes, direct jumps out of the image,
  // statically out-of-bounds accesses) fails the audit up front without
  // replaying a single instruction; warnings (self-modifying stores,
  // unreachable code) are attached to the outcome but do not fail it.
  // Spot checks start from a snapshot, not the image, and skip it.
  bool verify_image = false;
};

// The §4.4/§4.5 syntactic check on a segment whose chain/authenticators
// have already been (or will be) verified:
//  * every entry parses according to its type;
//  * SEND/RECV records name this node as src/dst respectively;
//  * payload signatures inside SEND/RECV entries verify;
//  * every ACK corresponds to an earlier SEND;
//  * packets the guest transmitted (MAC OUT) match the SEND stream, and
//    packets delivered into the guest (MAC DMA) match the RECV stream —
//    this is the cross-reference that catches an AVMM forging, dropping
//    or modifying messages between the network and the AVM.
// `strict` cross-references every DMA delivery against the RECV queue in
// FIFO order, as full audits do; a spot-check segment can begin
// mid-queue, so it relaxes the check to packets visible within the
// segment. This is the plain sequential whole-segment walk:
// VerifyEvidence runs it as the independent third-party path, and tests
// compare the audit engine (RunAuditEngine, which fans the per-entry RSA
// checks across its pool chunk by chunk) against it.
CheckResult SyntacticMessageCheck(const LogSegment& segment, const KeyRegistry& registry,
                                  bool strict);

struct AuditOutcome {
  bool ok = false;
  CheckResult syntactic;
  ReplayResult semantic;
  double syntactic_seconds = 0;
  double semantic_seconds = 0;
  uint64_t log_bytes = 0;       // "Downloaded" segment size.
  uint64_t snapshot_bytes = 0;  // "Downloaded" snapshot increments size.
  std::optional<Evidence> evidence;  // Present iff a fault was found.
  // AuditConfig::verify_image findings over the reference image, as
  // human-readable strings (kept decoupled from src/vm/analysis types).
  // image_errors > 0 fails the audit before replay.
  std::vector<std::string> image_findings;
  int image_errors = 0;
  int image_warnings = 0;

  std::string Describe() const;
};

// How a full audit persists and resumes its progress (§6.11, §8; the
// checkpoint format is in src/audit/checkpoint.h).
struct CheckpointConfig {
  // Capture cadence in log entries (0 = neither resume nor capture).
  // The audit engine ends a chunk on every multiple of the cadence, and
  // captures there only from fully-verified, replay-quiescent states --
  // so the cadence changes how much a resume saves, never any verdict.
  uint64_t every_entries = 8192;
  // Signs checkpoints as the Auditor's identity, so the
  // (auditee-controlled) store cannot forge one. With no signer,
  // checkpoints carry an empty signature and validation degrades to
  // digest + chain-hash checks (the avmm-nosig posture: fine against
  // corruption, not malice).
  const Signer* signer = nullptr;
  // When set, checkpoint writes go through this store's batched-fsync
  // path (LogStore::WriteAuxFileBatched) instead of a standalone,
  // un-fsynced write. Typically the auditee's own store, whose
  // directory also holds the checkpoint.
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

// Positions (seq) and metadata of the kSnapshot entries in a log.
struct SnapshotIndexEntry {
  uint64_t seq;
  SnapshotMeta meta;
};
std::vector<SnapshotIndexEntry> IndexSnapshots(const TamperEvidentLog& log);
// Same, but streamed from any segment source (O(segment) memory when
// the source is a disk-backed store).
std::vector<SnapshotIndexEntry> IndexSnapshots(const SegmentSource& source);

// Drives audits against a (possibly remote, here in-process) AVMM.
// The auditor trusts only: the key registry, the reference image, and the
// authenticators it has collected; everything read from `target` or a
// source is treated as untrusted input and verified. Every entry point
// runs the one audit engine (src/audit/pipeline.h).
class Auditor {
 public:
  // `self` is the auditing identity: it names the checkpoint files this
  // auditor writes and reads, and `ckpt.signer` signs them under it.
  Auditor(NodeId self, const KeyRegistry* registry, AuditConfig cfg = {},
          CheckpointConfig ckpt = {})
      : self_(std::move(self)), registry_(registry), cfg_(cfg), ckpt_(ckpt) {}

  // Full audit (§4.5): verify the whole log of `source` and replay it
  // from the reference image. `auths` are the authenticators this
  // auditor collected for the target during the execution; `target`
  // supplies the accused identity for evidence. `source` is the
  // target's in-memory log (InMemorySegmentSource) or a store opened
  // from disk; since Scan yields the same entries, so is the verdict.
  //
  // Before the scan, with cfg.verify_image, the static verifier checks
  // the reference image: errors fail the audit without replaying an
  // instruction and without evidence (they accuse the auditor's own
  // inputs, not the auditee); warnings ride along on the outcome. Then
  // the log-rewind check: a signature-verified authenticator past the
  // end of the served log is evidence of a rewind (§4.3) -- the machine
  // signed a commitment at seq X but cannot produce a log containing it
  // -- and fails the audit with kProtocolViolation evidence. Honest
  // crash recovery never looks like this (no authenticator is released
  // above the durability watermark); unverified signatures are skipped
  // so a forged authenticator cannot frame the auditee.
  //
  // With a `checkpoint_dir` and a nonzero ckpt.every_entries, the audit
  // resumes from the checkpoint this auditor left there when it
  // validates, and writes fresh ones at the cadence. The verdict -- ok,
  // syntactic/semantic reason + seq, evidence kind -- is bit-for-bit
  // that of a from-genesis audit at every cadence, sign mode and thread
  // count; only wall-clock time and the bytes read change. `info`, when
  // given, says whether and from where the audit resumed.
  AuditOutcome AuditFull(const Avmm& target, const SegmentSource& source,
                         ByteView reference_image, std::span<const Authenticator> auths,
                         const std::string& checkpoint_dir = "", ResumeInfo* info = nullptr);

  // Spot check (§3.5/§6.12): audit only the chunk between two snapshots,
  // starting replay from the (verified) snapshot at `from_snapshot_id`.
  // The log is read from `source` (InMemorySegmentSource(target.log())
  // for the target's in-memory log); `target` still supplies what only
  // the machine can: snapshot increments and a fresh end-of-segment
  // commitment.
  AuditOutcome SpotCheck(const Avmm& target, const SegmentSource& source,
                         uint64_t from_snapshot_id, uint64_t to_snapshot_id,
                         std::span<const Authenticator> auths);

  // Audits several independent snapshot windows, fanning whole-window
  // audits (verification + replay) across the worker pool. Outcomes are
  // positionally identical to calling SpotCheck on each window in order;
  // only the wall-clock time differs.
  std::vector<AuditOutcome> SpotCheckMany(const Avmm& target, const SegmentSource& source,
                                          std::span<const std::pair<uint64_t, uint64_t>> windows,
                                          std::span<const Authenticator> auths);

  const AuditConfig& config() const { return cfg_; }

 private:
  // AuditFull once its prechecks passed: resume, scan + replay, capture.
  AuditOutcome FullAuditAfterPrechecks(const Avmm& target, const SegmentSource& source,
                                       ByteView reference_image,
                                       std::span<const Authenticator> auths,
                                       const std::string& checkpoint_dir, ResumeInfo& ri);
  // `snaps` is the log's snapshot index, computed once by the caller
  // (indexing scans the whole source, which for a store-backed log
  // means reading every segment -- too costly to repeat per window).
  AuditOutcome SpotCheckImpl(const Avmm& target, const SegmentSource& source,
                             std::span<const SnapshotIndexEntry> snaps,
                             uint64_t from_snapshot_id, uint64_t to_snapshot_id,
                             std::span<const Authenticator> auths, ThreadPool* pool);

  // Constructs the worker pool on first use, so auditors created in a
  // loop (one per audit) cost nothing until they actually audit.
  // Returns null when the resolved thread count is 1 (sequential mode).
  ThreadPool* EnsurePool() {
    if (pool_ == nullptr && ResolveThreads(cfg_.threads) > 1) {
      pool_ = std::make_unique<ThreadPool>(cfg_.threads);
    }
    return pool_.get();
  }

  NodeId self_;
  const KeyRegistry* registry_;
  AuditConfig cfg_;
  CheckpointConfig ckpt_;
  std::unique_ptr<ThreadPool> pool_;
};

// The §4.4/§4.5 syntactic check of the entire log of `source` --
// chain rule, seq continuity, authenticator matching, the full (strict)
// message-stream check and, when InputAttestationRequired(), attested
// inputs -- without replay and without materializing more than one
// chunk; the per-chunk checks fan across cfg.threads. This is
// how an auditor triages a log far larger than RAM before deciding
// which windows are worth replaying; store-layer corruption (bad CRC,
// truncated segment) surfaces as a failed check, not an exception.
//
// It is the audit engine (src/audit/pipeline.h) with replay off, so it
// walks the log exactly as AuditFull does and reports the same verdict:
// phase priority -- chain, then authenticators in span order, then the
// message stream, then attested inputs -- not the first failure in seq
// order. There is one walk to maintain (ChunkedSyntacticChecker); the
// whole-segment primitives (VerifyChain, VerifyAgainstAuthenticators,
// SyntacticMessageCheck, VerifyAttestedInputs) remain as the
// independent reference VerifyEvidence and the tests check it against.
CheckResult StreamingSyntacticCheck(const SegmentSource& source,
                                    std::span<const Authenticator> auths,
                                    const KeyRegistry& registry, const AuditConfig& cfg);

}  // namespace avm

#endif  // SRC_AUDIT_AUDITOR_H_
