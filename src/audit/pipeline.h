// The audit engine (§4.5): every full audit, spot check, checkpointed
// audit, syntactic triage and online poll runs the one loop defined
// here.
//
// A §4.5 audit is a syntactic check (hash chain, authenticators,
// message stream, attested inputs) followed by a semantic check
// (deterministic replay); a §3.5 spot check is the same procedure
// started from a verified snapshot, and a §6.11 online audit is the
// same procedure run while the log still grows. The engine reads the
// audited range of a SegmentSource in one forward Scan, cuts it into
// AuditConfig::pipeline_chunk_entries chunks, and feeds each chunk to
// a ChunkedSyntacticChecker and then to the one StreamingReplayer. Only
// two chunks are ever materialized, so every audit streams in
// O(chunk) memory, at every thread count. Three pieces:
//
//  * ChunkedSyntacticChecker: the syntactic check as an incremental
//    consumer of entry runs. It records every failure category
//    separately (chain rule, authenticator, message stream, attested
//    input) and Finalize() reports them in phase priority -- chain,
//    then authenticators in span order, then message stream, then
//    attested inputs -- which is exactly the verdict of the
//    whole-segment composition VerifyAgainstAuthenticators ->
//    SyntacticMessageCheck -> VerifyAttestedInputs that VerifyEvidence
//    runs as the independent third-party path.
//
//  * AuditEngine: one run of the loop, which can be advanced in steps.
//    Without a pool (threads=1, the reference) replay runs inline on
//    the scanning thread; with one, it runs on a worker with one chunk
//    in flight while the next chunk is checked. Verdicts are
//    bit-for-bit identical either way.
//
//  * RunAuditEngine: an engine advanced once to the end of its range
//    and finished. An online session (src/audit/online.h) advances one
//    engine at every poll instead.
#ifndef SRC_AUDIT_PIPELINE_H_
#define SRC_AUDIT_PIPELINE_H_

#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "src/audit/auditor.h"
#include "src/audit/message_check.h"
#include "src/avmm/attested_input.h"

namespace avm {

class ChunkedSyntacticChecker {
 public:
  // `first_seq` is the first seq of the audited segment and
  // `prior_hash` the chain hash the next fed entry must continue (Zero
  // for a log audited from its head). `strict_crossref` is
  // MessageCheckState's strictness; attested inputs are checked iff
  // InputAttestationRequired(node, registry). An `open_ended` checker
  // (an online session, covered again at every poll, with
  // authenticators that may arrive after their seq streamed by) keeps
  // the chain hash of every fed entry -- 32 bytes per entry -- so any
  // later Cover() can resolve them, and remembers the signatures it
  // found valid, so each is verified once.
  ChunkedSyntacticChecker(const NodeId& node, uint64_t first_seq, const Hash256& prior_hash,
                          const KeyRegistry& registry, bool strict_crossref,
                          bool open_ended = false);

  // Sets the authenticators that cover the segment [first_seq,
  // last_seq], exactly as VerifyAgainstAuthenticators bounds them with
  // the materialized segment. The RSA signature of each is verified
  // here, up front (fanned across `pool` when given). Those at or behind
  // the last fed entry are checked at once against the chain hashes
  // verified so far; the rest are consumed when their seq streams by.
  // A one-shot audit covers once; an online session covers again, with
  // the authenticators collected so far, every time its range grows.
  // Throws std::out_of_range if no verified chain hash is known for a
  // covering seq behind the last fed entry.
  void Cover(std::span<const Authenticator> auths, uint64_t last_seq, ThreadPool* pool);

  // Every covering signature is valid (vacuously true without any).
  // Otherwise the verdict is a syntactic failure whatever the log holds
  // -- a forged log, which anyone can chain-hash but only the accused
  // machine can sign, must not buy a replay.
  bool SignaturesValid() const;
  // Some authenticator covers the segment: without one its
  // authenticity cannot be established. An end-of-log check.
  bool Covered() const { return !covering_.empty(); }

  // Consumes the next run of entries (in log order, continuing the
  // previous runs). With a pool, the run's chain links and per-message
  // RSA checks are fanned across it first, in one ParallelFor; the
  // verdict is unchanged.
  void Feed(std::span<const LogEntry> entries, ThreadPool* pool = nullptr);

  // True if any failure has been recorded; the final outcome will be a
  // syntactic failure, so replay work can be skipped (its result would
  // be discarded).
  bool AnyFailure() const;

  // The phase-priority verdict over everything fed so far. The checks
  // that need the end of the log -- some authenticator covers the
  // segment, and the message stream's Finalize (say, an unacked
  // trailing SEND) -- run only with `end_of_log`; without, the verdict
  // is the prefix's.
  CheckResult Finalize(bool end_of_log) const;

  // ---- Checkpoint support (src/audit/checkpoint.h) ----
  // Chain hash of the last entry fed (h_S): what a checkpoint records
  // as its verified watermark.
  const Hash256& chain_cursor() const { return prior_hash_; }
  // Chain hash at every covering authenticator's seq seen so far
  // (streamed by, or restored from a checkpoint).
  std::map<uint64_t, Hash256> auth_hashes() const {
    return {auth_hashes_.begin(), auth_hashes_.end()};
  }

  // Serializes the streaming scan state (message-stream state machine +
  // attested-input cursor) after feeding entries 1..S; failure slots are
  // intentionally not captured -- checkpoints are only taken from
  // fully-verified states (AnyFailure() must be false).
  void SerializeResumableState(Writer& w) const;
  // "" if `state` restores into a full-audit (strict) checker for
  // `node` under `registry`, else why not. A checkpoint is validated
  // with this before it is resumed.
  static std::string ResumableStateError(ByteView state, const NodeId& node,
                                         const KeyRegistry& registry);
  // Restores into a freshly constructed, not yet covered checker whose
  // ctor received the checkpoint's chain hash as `prior_hash`. The
  // checker then behaves as if entries 1..`watermark_seq` had been fed:
  // Cover() resolves covering authenticators at or behind the watermark
  // against `auth_hashes` (the chain hashes verified when the checkpoint
  // was written) under their span index, so the verdict is bit-for-bit
  // the from-genesis one. Throws SerdeError on malformed input.
  void RestoreResumableState(ByteView state, uint64_t watermark_seq,
                             const std::map<uint64_t, Hash256>& auth_hashes);

 private:
  struct CoveringAuth {
    uint64_t seq;
    size_t index;  // Into the covered span: the order failures are reported in.
    Hash256 hash;
    bool sig_ok;
    bool operator<(const CoveringAuth& o) const {
      return seq != o.seq ? seq < o.seq : index < o.index;
    }
  };

  // Shared sig + hash check for one authenticator, whether its seq
  // streamed by (Feed) or lay behind the last fed entry when covered.
  void CheckAuthAt(const CoveringAuth& c, const Hash256& log_hash);

  const NodeId node_;
  const KeyRegistry& registry_;
  const uint64_t first_seq_;
  const bool open_ended_;
  Hash256 prior_hash_;  // Expected prior hash of the next entry.
  uint64_t expect_seq_ = 0;
  bool started_ = false;
  uint64_t fed_ = 0;
  // Reused by Feed: chain-link and message-signature verdicts fanned
  // across the pool ahead of the scan (0 / -1 = check inline).
  std::vector<int8_t> links_;
  std::vector<int8_t> sig_verdicts_;

  // Every covering authenticator, sorted by seq, then span order.
  // next_auth_ is the first whose seq has not streamed by yet.
  std::vector<CoveringAuth> covering_;
  size_t next_auth_ = 0;
  // Verified chain hashes in seq order: at every covering seq that
  // streamed by or was restored from a checkpoint, and when open_ended_
  // at every fed seq.
  std::vector<std::pair<uint64_t, Hash256>> auth_hashes_;
  // When open_ended_: (seq, hash, signature) of every authenticator
  // whose signature verified.
  std::set<std::tuple<uint64_t, Hash256, Bytes>> valid_sigs_;

  CheckResult chain_fail_;     // First chain-rule/seq failure, entry order.
  size_t auth_fail_idx_;       // Smallest failing authenticator span index.
  CheckResult auth_fail_;
  CheckResult smc_fail_;       // First message-stream failure, entry order.
  CheckResult attested_fail_;  // First attested-input failure, entry order.

  MessageCheckState smc_;
  std::optional<AttestedInputScanner> attested_;
};

// A verified audit state to continue from (src/audit/checkpoint.h):
// entries 1..watermark were checked and replayed by an earlier audit.
struct AuditResume {
  uint64_t watermark = 0;
  Hash256 chain_hash;  // h_watermark.
  MaterializedState machine;
  Bytes scan_state;  // ChunkedSyntacticChecker::SerializeResumableState.
  std::map<uint64_t, Hash256> auth_hashes;
};

// The last_seq of an online session's run: its range grows with every
// Advance(), and its checker keeps every verified chain hash.
inline constexpr uint64_t kOpenEndedRun = UINT64_MAX;

// What one engine run audits.
struct AuditRun {
  // The audited segment [first_seq, last_seq]: it bounds authenticator
  // coverage and is what evidence ships. An empty range fails with
  // "empty segment". kOpenEndedRun: the segment ends wherever the
  // latest Advance() took it.
  uint64_t first_seq = 1;
  uint64_t last_seq = 0;
  Hash256 prior_hash;  // h_{first_seq-1}; Zero when first_seq == 1.
  // Full audits cross-reference the message stream strictly; spot
  // checks begin mid-queue and relax it (see SyntacticMessageCheck).
  bool strict_crossref = true;
  // The semantic check, from `start_state` when set, else from
  // `reference_image`. Off = the syntactic check alone (triage).
  bool replay = true;
  ByteView reference_image;
  const MaterializedState* start_state = nullptr;
  // When set, the scan starts after resume->watermark from the restored
  // checker and replayer instead of at first_seq.
  const AuditResume* resume = nullptr;
  // When nonzero, chunks also end on every multiple of boundary_every;
  // at each such seq, once replay has caught up and nothing has failed,
  // on_boundary(seq, checker, replayer) runs (checkpoint capture).
  // Exceptions it throws propagate out of the engine.
  uint64_t boundary_every = 0;
  std::function<void(uint64_t, const ChunkedSyntacticChecker&, StreamingReplayer&)>
      on_boundary;
  // Evidence names this machine; null = no evidence is assembled.
  const Avmm* accused = nullptr;
  // When set, receives how many entries the scan handed to the checks:
  // fewer than the range when the source stops being readable.
  uint64_t* entries_checked = nullptr;
};

// One run of the audit engine over `source`, advanced in steps: the
// checker, the replayer and the chunk slots live here between steps.
// `source`, `registry`, `pool` and whatever `run` points to must
// outlive the engine.
class AuditEngine {
 public:
  AuditEngine(const SegmentSource& source, const KeyRegistry& registry, const AuditConfig& cfg,
              ThreadPool* pool, const AuditRun& run);
  AuditEngine(const AuditEngine&) = delete;
  AuditEngine& operator=(const AuditEngine&) = delete;
  ~AuditEngine();

  // Extends the audit to [first_seq, last_seq]: covers it with `auths`
  // (their signatures are the replay gate; see
  // ChunkedSyntacticChecker::Cover), then scans the new entries in one
  // forward Scan, checking and replaying them chunk by chunk. The whole
  // range is read even after a failure: an unreadable entry anywhere
  // outranks every check verdict. `auths` must stay valid until the
  // next Outcome().
  void Advance(uint64_t last_seq, std::span<const Authenticator> auths);

  // The verdict over everything advanced so far, with log_bytes and
  // evidence. With `end_of_log`, the checks that need the end of the
  // log run too -- coverage, the message stream's Finalize and the
  // replayer's Finish -- and the engine is done; without, they wait,
  // and the verdict is that of the prefix. A source that threw
  // std::runtime_error while being read yields the "log source
  // unreadable" outcome.
  AuditOutcome Outcome(bool end_of_log);

 private:
  void ProcessChunk(uint64_t end_seq);
  void Replay(std::span<const LogEntry> entries);
  void JoinReplay();
  bool ReplayWanted() const;
  void AttachEvidence(AuditOutcome& out, EvidenceKind kind, const std::string& claim) const;

  const SegmentSource& source_;
  const AuditConfig cfg_;
  ThreadPool* pool_;
  const AuditRun run_;
  ChunkedSyntacticChecker checker_;
  // Heap-allocated: the replayer registers itself as the machine's
  // device backend, so it must never move.
  std::unique_ptr<StreamingReplayer> replayer_;
  // With a pool, chunk i replays on a worker while this thread checks
  // chunk i+1; without one, replay runs inline. Workers beyond the
  // replay task fan each chunk's checks.
  bool overlap_ = false;
  ThreadPool* check_pool_ = nullptr;
  size_t chunk_entries_ = 0;
  bool replay_gate_ = false;
  std::span<const Authenticator> auths_;  // Of the latest Advance().
  uint64_t last_ = 0;                     // The range ends here so far.
  uint64_t scan_from_ = 0;                // The first seq this engine scans.
  uint64_t next_ = 0;                     // Seq of the next entry scanned.
  // Entry slots are kept from chunk to chunk: each scanned entry is
  // copy-assigned into the next slot, reusing its content buffer, and
  // the first `fill_` slots are the chunk.
  std::vector<LogEntry> chunk_;  // Being filled by the scan.
  size_t fill_ = 0;
  std::vector<LogEntry> inflight_;  // Being replayed by the worker task.
  size_t inflight_fill_ = 0;
  bool task_in_flight_ = false;
  std::exception_ptr replay_err_;
  std::optional<std::string> unreadable_;
  uint64_t entry_wire_bytes_ = 0;
  double syn_seconds_ = 0;
  double sem_seconds_ = 0;
};

// Runs the audit of `run` over `source` in one step: an AuditEngine
// advanced to run.last_seq, then its end-of-log Outcome. `pool` may be
// null (everything on this thread); with one, replay overlaps the
// checks.
AuditOutcome RunAuditEngine(const SegmentSource& source, std::span<const Authenticator> auths,
                            const KeyRegistry& registry, const AuditConfig& cfg, ThreadPool* pool,
                            const AuditRun& run);

// The outcome of an audit whose source could not be read: no verdict
// on the machine, no evidence. `what` says why.
AuditOutcome UnreadableSourceOutcome(const std::string& what);

// The prechecks of an audit from the reference image (AuditFull and
// online sessions). VerifyReferenceImage is AuditConfig::verify_image's
// static pass: it fills `out`'s image findings. DetectLogRewind finds a
// signature-verified authenticator past the end of the served log --
// the machine signed a commitment at seq X but cannot produce a log
// containing it (§4.3) -- and returns the failed outcome with its
// kProtocolViolation evidence; unverified signatures are skipped, so a
// forged authenticator cannot frame the auditee.
void VerifyReferenceImage(ByteView image, size_t mem_size, AuditOutcome* out);
std::optional<AuditOutcome> DetectLogRewind(const Avmm& target, const SegmentSource& source,
                                            std::span<const Authenticator> auths,
                                            const KeyRegistry& registry, size_t mem_size);

}  // namespace avm

#endif  // SRC_AUDIT_PIPELINE_H_
