// The audit engine (§4.5): every full audit, spot check, checkpointed
// audit and syntactic triage runs the one loop defined here.
//
// A §4.5 audit is a syntactic check (hash chain, authenticators,
// message stream, attested inputs) followed by a semantic check
// (deterministic replay); a §3.5 spot check is the same procedure
// started from a verified snapshot. The engine reads the audited range
// of a SegmentSource in one forward Scan, cuts it into
// AuditConfig::pipeline_chunk_entries chunks, and feeds each chunk to
// a ChunkedSyntacticChecker and then to the one StreamingReplayer. Only
// two chunks are ever materialized, so every audit streams in
// O(chunk) memory, at every thread count. Two pieces:
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
//  * RunAuditEngine: the loop itself. Without a pool (threads=1, the
//    reference) replay runs inline on the scanning thread; with one, it
//    runs on a worker with one chunk in flight while the next chunk is
//    checked. Verdicts are bit-for-bit identical either way.
#ifndef SRC_AUDIT_PIPELINE_H_
#define SRC_AUDIT_PIPELINE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/audit/auditor.h"
#include "src/audit/message_check.h"
#include "src/avmm/attested_input.h"

namespace avm {

class ChunkedSyntacticChecker {
 public:
  // `auths` must outlive the checker. `first_seq`/`last_seq` bound the
  // authenticator coverage exactly as VerifyAgainstAuthenticators does
  // with the materialized segment; `prior_hash` is the chain hash the
  // next fed entry must continue (Zero for a log audited from its head).
  // The RSA signature of every covering authenticator is verified here,
  // up front (fanned across `pool` when given), and consumed when its
  // seq streams by. `strict_crossref` is MessageCheckState's
  // strictness; attested inputs are checked iff
  // InputAttestationRequired(node, registry).
  ChunkedSyntacticChecker(const NodeId& node, uint64_t first_seq, uint64_t last_seq,
                          const Hash256& prior_hash, std::span<const Authenticator> auths,
                          const KeyRegistry& registry, bool strict_crossref,
                          ThreadPool* pool = nullptr);

  // The replay gate: some authenticator covers the segment and every
  // covering signature is valid. Otherwise the verdict is a syntactic
  // failure whatever the log holds -- a forged log, which anyone can
  // chain-hash but only the accused machine can sign, must not buy a
  // replay.
  bool SignaturesValid() const;

  // Consumes the next run of entries (in log order, continuing the
  // previous runs). With a pool, the run's chain links and per-message
  // RSA checks are fanned across it first, in one ParallelFor; the
  // verdict is unchanged.
  void Feed(std::span<const LogEntry> entries, ThreadPool* pool = nullptr);

  // True if any failure has been recorded; the final outcome will be a
  // syntactic failure, so replay work can be skipped (its result would
  // be discarded).
  bool AnyFailure() const;

  // The phase-priority verdict over everything fed so far.
  CheckResult Finalize() const;

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
  // Restores into a freshly constructed checker whose ctor received the
  // checkpoint's chain hash as `prior_hash`. The checker then behaves
  // as if entries 1..`watermark_seq` had been fed: covering
  // authenticators at or behind the watermark are resolved against
  // `auth_hashes` (the chain hashes verified when the checkpoint was
  // written) under their span index, so the verdict is bit-for-bit the
  // from-genesis one. Throws SerdeError on malformed input and
  // std::out_of_range if `auth_hashes` misses a covering seq.
  void RestoreResumableState(ByteView state, uint64_t watermark_seq,
                             const std::map<uint64_t, Hash256>& auth_hashes);

 private:
  struct CoveringAuth {
    uint64_t seq;
    size_t index;  // Into auths_: the span order failures are reported in.
    bool sig_ok;
    bool operator<(const CoveringAuth& o) const {
      return seq != o.seq ? seq < o.seq : index < o.index;
    }
  };

  // Shared sig + hash check for one authenticator, whether its seq
  // streamed by (Feed) or was resolved behind a resume watermark.
  void CheckAuthAt(const CoveringAuth& c, const Hash256& log_hash);

  const NodeId node_;
  const KeyRegistry& registry_;
  std::span<const Authenticator> auths_;
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
  std::vector<std::pair<uint64_t, Hash256>> auth_hashes_;  // In seq order.

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

// What one engine run audits.
struct AuditRun {
  // The audited segment [first_seq, last_seq]: it bounds authenticator
  // coverage and is what evidence ships. An empty range fails with
  // "empty segment".
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

// Runs the audit of `run` over `source`: the authenticator signatures
// (the replay gate), one forward Scan of the range, the chunked
// syntactic check and replay, then the verdict, log_bytes and
// evidence. A source that throws std::runtime_error while being read
// yields the "log source unreadable" outcome. `pool` may be null
// (everything on this thread); with one, replay overlaps the checks.
AuditOutcome RunAuditEngine(const SegmentSource& source, std::span<const Authenticator> auths,
                            const KeyRegistry& registry, const AuditConfig& cfg, ThreadPool* pool,
                            const AuditRun& run);

// The outcome of an audit whose source could not be read: no verdict
// on the machine, no evidence. `what` says why.
AuditOutcome UnreadableSourceOutcome(const std::string& what);

}  // namespace avm

#endif  // SRC_AUDIT_PIPELINE_H_
