// Auditing (§4.5): the syntactic check (log well-formedness, signatures,
// ack pairing, message/trace cross-referencing) and the semantic check
// (deterministic replay). The Auditor entry points below are thin
// callers of the one audit engine in src/audit/pipeline.h.
#ifndef SRC_AUDIT_AUDITOR_H_
#define SRC_AUDIT_AUDITOR_H_

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "src/audit/evidence.h"
#include "src/audit/replayer.h"
#include "src/avmm/recorder.h"
#include "src/tel/segment_source.h"
#include "src/tel/verifier.h"
#include "src/util/threadpool.h"

namespace avm {

struct AuditConfig {
  size_t mem_size = 256 * 1024;
  // Worker threads for the verification hot path (hash-chain links,
  // per-authenticator and per-message RSA checks, independent segment
  // audits in SpotCheckMany). 0 = one per hardware thread; 1 = run
  // everything on the calling thread, reproducing the sequential code
  // path bit-for-bit. Verdicts are identical at every setting; only
  // wall-clock time changes.
  unsigned threads = 0;
  // §7.2 extension: the audited node's inputs are signed by a trusted
  // input device whose key is registered as "<node>/input"; the
  // syntactic check then verifies every consumed input event.
  bool attested_input = false;
  // Full audits cross-reference the message stream against the MAC-layer
  // trace strictly (every DMA delivery must match the RECV queue in FIFO
  // order). Spot-check segments can begin mid-queue, so the check is
  // relaxed to packets visible within the segment.
  bool strict_message_crossref = true;
  // Overlap the syntactic check with the semantic check (deterministic
  // replay) on the worker pool: chunk i replays on a worker while chunk
  // i+1 goes through hashing + signature verification, instead of each
  // chunk replaying right after its check. Takes effect only when the
  // resolved thread count is > 1; every verdict — audit, spot check,
  // evidence kind, failure seq — is bit-for-bit identical either way
  // (asserted by pipeline_audit_test), only wall-clock time changes.
  bool pipelined = true;
  // Entries per chunk of the audit engine's scan: every audit holds at
  // most two chunks of the log in memory.
  size_t pipeline_chunk_entries = 2048;
  // Run the semantic check (deterministic replay) on the fast path, the
  // x86-64 JIT where compiled in (src/vm/jit). Off replays on the
  // reference Step() loop. Verdicts are bit-for-bit identical either way
  // (asserted by pipeline_audit_test); only replay wall clock changes.
  bool jit_replay = true;
  // Pre-audit pass: statically verify the reference image (CFG
  // recovery + the src/vm/analysis verifier) before replay starts. An
  // image with errors (illegal opcodes, direct jumps out of the image,
  // statically out-of-bounds accesses) fails the audit up front without
  // replaying a single instruction; warnings (self-modifying stores,
  // unreachable code) are attached to the outcome but do not fail it.
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
// This is the plain sequential whole-segment walk: VerifyEvidence runs it
// as the independent third-party path, and tests compare the audit engine
// (RunAuditEngine, which fans the per-entry RSA checks across its pool
// chunk by chunk) against it.
CheckResult SyntacticMessageCheck(const LogSegment& segment, const KeyRegistry& registry,
                                  const AuditConfig& cfg);

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

// The full-audit prechecks shared by Auditor::AuditFull and
// CheckpointedAuditor::AuditFull, run in this order before `audit`:
//  * with cfg.verify_image, the static verifier over the reference
//    image. An image with errors fails the audit without replaying an
//    instruction; that accuses the auditor's own inputs, not the
//    auditee, so no evidence is attached. Warnings and findings ride
//    along on whatever outcome the audit produces.
//  * the log-rewind check: a signature-verified authenticator past the
//    end of the served log is evidence of a rewind (§4.3): the machine
//    signed a commitment at seq X but cannot produce a log containing
//    it. Honest crash recovery never looks like this (no authenticator
//    is released above the durability watermark), and spot checks
//    audit a window by design, so the check applies to full audits
//    only. Unverified signatures are skipped: a forged authenticator
//    must not frame the auditee. A rewind fails the audit with
//    kProtocolViolation evidence.
// `audit` runs only when both pass.
AuditOutcome PrecheckedFullAudit(const Avmm& target, const SegmentSource& source,
                                 ByteView reference_image, std::span<const Authenticator> auths,
                                 const KeyRegistry& registry, const AuditConfig& cfg,
                                 const std::function<AuditOutcome()>& audit);

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
// authenticators it has collected; everything read from `target` is
// treated as untrusted input and verified.
class Auditor {
 public:
  Auditor(NodeId self, const KeyRegistry* registry, AuditConfig cfg = {})
      : self_(std::move(self)), registry_(registry), cfg_(cfg) {}

  // Full audit: verify the whole log and replay it from the reference
  // image (§4.5). `auths` are the authenticators this auditor collected
  // for the target during the execution.
  AuditOutcome AuditFull(const Avmm& target, ByteView reference_image,
                         std::span<const Authenticator> auths);

  // Spot check (§3.5/§6.12): audit only the chunk between two snapshots,
  // starting replay from the (verified) snapshot at `from_snapshot_id`.
  AuditOutcome SpotCheck(const Avmm& target, uint64_t from_snapshot_id, uint64_t to_snapshot_id,
                         std::span<const Authenticator> auths);

  // Audits several independent snapshot windows, fanning whole-window
  // audits (verification + replay) across the worker pool. Outcomes are
  // positionally identical to calling SpotCheck on each window in order;
  // only the wall-clock time differs.
  std::vector<AuditOutcome> SpotCheckMany(const Avmm& target,
                                          std::span<const std::pair<uint64_t, uint64_t>> windows,
                                          std::span<const Authenticator> auths);

  // Store-backed variants: identical audits, but the log is read from
  // `source` (e.g. a store::LogStore opened from disk, possibly in a
  // different process than the one that recorded it) instead of the
  // target's in-memory log; the overloads above wrap the in-memory log
  // in an InMemorySegmentSource. Since Scan yields the same entries,
  // the verdicts are bit-for-bit those of the in-memory path. `target`
  // still supplies what only the machine can: snapshot increments and
  // fresh end-of-segment commitments.
  AuditOutcome AuditFull(const Avmm& target, const SegmentSource& source,
                         ByteView reference_image, std::span<const Authenticator> auths);
  AuditOutcome SpotCheck(const Avmm& target, const SegmentSource& source,
                         uint64_t from_snapshot_id, uint64_t to_snapshot_id,
                         std::span<const Authenticator> auths);
  std::vector<AuditOutcome> SpotCheckMany(const Avmm& target, const SegmentSource& source,
                                          std::span<const std::pair<uint64_t, uint64_t>> windows,
                                          std::span<const Authenticator> auths);

  const AuditConfig& config() const { return cfg_; }

 private:
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
  std::unique_ptr<ThreadPool> pool_;
};

// The §4.4/§4.5 syntactic check of the entire log of `source` --
// chain rule, seq continuity, authenticator matching, the full
// message-stream check and (with cfg.attested_input) attested inputs --
// without replay and without materializing more than one chunk. This is
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
