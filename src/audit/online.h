// Online auditing (§6.11): audit another machine's log while its
// execution is still in progress, so cheating is detected as soon as
// the log shows it.
//
// An online session is one run of the audit engine (src/audit/
// pipeline.h) that every poll advances to the log's current end: each
// poll checks the hash chain, the authenticators collected so far, the
// message stream and attested inputs, and replays, over the new
// entries, with every AuditConfig field in effect. A poll up to seq n
// reports the ok, reason, seq and evidence kind the engine reports over
// [1, n], except for the three checks that need the end of the log --
// some authenticator covers it, the message stream's Finalize (say, an
// unacked trailing SEND) and the replayer's Finish -- which wait for
// Finish().
#ifndef SRC_AUDIT_ONLINE_H_
#define SRC_AUDIT_ONLINE_H_

#include <memory>
#include <optional>
#include <span>

#include "src/audit/pipeline.h"
#include "src/tel/segment_source.h"

namespace avm {

// What the most recent Poll() observed about the followed log.
enum class OnlinePollStatus {
  kIdle,           // Nothing new since the last poll.
  kAdvanced,       // New entries were audited (the verdict is still the prefix's).
  kDiverged,       // The audit failed; final (§6.11: a divergence is final).
  kTargetRewound,  // The target log *shrank* below the consumed prefix.
};

inline const char* OnlinePollStatusName(OnlinePollStatus s) {
  switch (s) {
    case OnlinePollStatus::kIdle:
      return "idle";
    case OnlinePollStatus::kAdvanced:
      return "advanced";
    case OnlinePollStatus::kDiverged:
      return "diverged";
    case OnlinePollStatus::kTargetRewound:
      return "target-rewound";
  }
  return "?";
}

class OnlineAuditor {
 public:
  // Follows the log `source` serves for `target` (its live in-memory log
  // through an InMemorySegmentSource, or a store::LogStore it spills
  // to), replaying from `reference_image` under `cfg`. The auditor
  // trusts only `registry`, the image and the authenticators handed to
  // each poll. `target` names the accused in evidence. The source, the
  // registry, the image and the target outlive the auditor; the source
  // grows between polls. With cfg.verify_image the image is checked
  // here, and an image with errors fails every poll without a replay.
  OnlineAuditor(const Avmm& target, const SegmentSource* source, ByteView reference_image,
                const KeyRegistry* registry, const AuditConfig& cfg);
  OnlineAuditor(const OnlineAuditor&) = delete;
  OnlineAuditor& operator=(const OnlineAuditor&) = delete;

  // Audits the entries appended since the last poll, under `auths`, the
  // authenticators collected so far for the target; returns the verdict
  // over the prefix consumed so far. A failure is final: every later
  // poll returns it again.
  //
  // If the target log has *shrunk* below the already-consumed prefix
  // (legitimately reachable: the auditee crashed and LogStore::Open
  // truncated a torn tail, or restarted with a fresh log), continuing
  // would silently audit a history that no longer matches what the
  // auditor consumed. The rewind is surfaced as kTargetRewound -- sticky,
  // like a failure, but distinct: it is not proof of cheating, it means
  // this online session cannot make progress and the caller must
  // restart the audit (from genesis or a checkpoint).
  AuditOutcome Poll(std::span<const Authenticator> auths);

  // Declares the log complete: polls to its end, then runs the end-of-log
  // checks and the log-rewind check, so the outcome is Auditor::AuditFull's
  // over the whole log. The session is over; later calls return the
  // same outcome.
  AuditOutcome Finish(std::span<const Authenticator> auths);

  OnlinePollStatus status() const { return status_; }
  bool target_rewound() const { return status_ == OnlinePollStatus::kTargetRewound; }

  // Entries appended but not yet audited (the "auditing falls behind the
  // game" metric of §6.11). Saturates at 0 when the target rewound, so a
  // shrunken log cannot underflow the lag into an absurd value.
  uint64_t LagEntries() const {
    uint64_t last = source_->LastSeq();
    return last + 1 >= next_seq_ ? last + 1 - next_seq_ : 0;
  }
  uint64_t consumed_seq() const { return next_seq_ - 1; }

 private:
  // No poll can change the outcome any more.
  bool Final() const {
    return finished_ || status_ == OnlinePollStatus::kDiverged ||
           status_ == OnlinePollStatus::kTargetRewound;
  }

  const Avmm& target_;
  const SegmentSource* source_;
  const KeyRegistry& registry_;
  const AuditConfig cfg_;
  AuditOutcome image_check_;  // cfg.verify_image's findings.
  std::unique_ptr<ThreadPool> pool_;  // Null at threads=1.
  // Declared after pool_, so destroyed before it. Null (and status_
  // kDiverged) when the image failed verify_image.
  std::unique_ptr<AuditEngine> engine_;
  AuditOutcome outcome_;  // The latest verdict.
  bool finished_ = false;
  uint64_t next_seq_ = 1;
  OnlinePollStatus status_ = OnlinePollStatus::kIdle;
};

}  // namespace avm

#endif  // SRC_AUDIT_ONLINE_H_
