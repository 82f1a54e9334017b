#include "src/audit/online.h"

#include <utility>

namespace avm {

namespace {

// AuditFull attaches the image pass's findings to every outcome.
AuditOutcome WithImageFindings(AuditOutcome out, const AuditOutcome& image_check) {
  out.image_findings = image_check.image_findings;
  out.image_warnings = image_check.image_warnings;
  return out;
}

}  // namespace

OnlineAuditor::OnlineAuditor(const Avmm& target, const SegmentSource* source,
                             ByteView reference_image, const KeyRegistry* registry,
                             const AuditConfig& cfg)
    : target_(target), source_(source), registry_(*registry), cfg_(cfg) {
  outcome_.ok = true;  // Nothing audited, nothing failed.
  if (cfg.verify_image) {
    VerifyReferenceImage(reference_image, cfg.mem_size, &image_check_);
    if (image_check_.image_errors > 0) {
      outcome_ = image_check_;
      status_ = OnlinePollStatus::kDiverged;
      return;  // No engine: nothing is ever replayed from this image.
    }
  }
  if (ResolveThreads(cfg.threads) > 1) {
    pool_ = std::make_unique<ThreadPool>(cfg.threads);
  }
  AuditRun run;
  run.last_seq = kOpenEndedRun;
  run.reference_image = reference_image;
  run.accused = &target;
  engine_ = std::make_unique<AuditEngine>(*source, registry_, cfg_, pool_.get(), run);
}

AuditOutcome OnlineAuditor::Poll(std::span<const Authenticator> auths) {
  if (Final()) {
    return outcome_;
  }
  const uint64_t last = source_->LastSeq();
  if (last + 1 < next_seq_) {
    status_ = OnlinePollStatus::kTargetRewound;
    return outcome_;
  }
  if (last == 0) {
    status_ = OnlinePollStatus::kIdle;
    return outcome_;
  }
  // Also with nothing new: authenticators collected since the last poll
  // may commit to entries already consumed.
  const bool grew = last >= next_seq_;
  engine_->Advance(last, auths);
  next_seq_ = last + 1;
  outcome_ = WithImageFindings(engine_->Outcome(/*end_of_log=*/false), image_check_);
  status_ = !outcome_.ok ? OnlinePollStatus::kDiverged
            : grew       ? OnlinePollStatus::kAdvanced
                         : OnlinePollStatus::kIdle;
  return outcome_;
}

AuditOutcome OnlineAuditor::Finish(std::span<const Authenticator> auths) {
  Poll(auths);
  const bool final = Final();
  finished_ = true;
  if (final) {
    return outcome_;
  }
  std::optional<AuditOutcome> rewound =
      DetectLogRewind(target_, *source_, auths, registry_, cfg_.mem_size);
  outcome_ = WithImageFindings(
      rewound.has_value() ? *std::move(rewound) : engine_->Outcome(/*end_of_log=*/true),
      image_check_);
  if (!outcome_.ok) {
    status_ = OnlinePollStatus::kDiverged;
  }
  return outcome_;
}

}  // namespace avm
