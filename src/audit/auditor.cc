#include "src/audit/auditor.h"

#include <optional>
#include <sstream>
#include <vector>

#include "src/audit/checkpoint.h"
#include "src/audit/message_check.h"
#include "src/audit/pipeline.h"
#include "src/obs/trace.h"

namespace avm {

CheckResult SyntacticMessageCheck(const LogSegment& segment, const KeyRegistry& registry,
                                  bool strict) {
  MessageCheckState state(segment.node, registry, strict);
  for (const LogEntry& e : segment.entries) {
    CheckResult r = state.Feed(e, /*sig_verdict=*/-1);
    if (!r.ok) {
      return r;
    }
  }
  return state.Finalize();
}

CheckResult StreamingSyntacticCheck(const SegmentSource& source,
                                    std::span<const Authenticator> auths,
                                    const KeyRegistry& registry, const AuditConfig& cfg) {
  AuditRun run;
  run.last_seq = source.LastSeq();
  run.replay = false;
  std::unique_ptr<ThreadPool> pool;
  if (ResolveThreads(cfg.threads) > 1) {
    pool = std::make_unique<ThreadPool>(cfg.threads);
  }
  return RunAuditEngine(source, auths, registry, cfg, pool.get(), run).syntactic;
}

std::vector<SnapshotIndexEntry> IndexSnapshots(const TamperEvidentLog& log) {
  return IndexSnapshots(InMemorySegmentSource(log));
}

std::vector<SnapshotIndexEntry> IndexSnapshots(const SegmentSource& source) {
  std::vector<SnapshotIndexEntry> out;
  if (source.LastSeq() == 0) {
    return out;
  }
  source.Scan(1, source.LastSeq(), [&](const LogEntry& e) {
    if (e.type == EntryType::kSnapshot) {
      out.push_back({e.seq, SnapshotMeta::Deserialize(e.content)});
    }
    return true;
  });
  return out;
}

std::string AuditOutcome::Describe() const {
  std::ostringstream os;
  if (ok) {
    os << "PASS";
    if (image_warnings > 0) {
      os << " (" << image_warnings << " image warning" << (image_warnings == 1 ? "" : "s") << ")";
    }
  } else if (image_errors > 0) {
    os << "FAIL (image): " << image_errors << " verifier error"
       << (image_errors == 1 ? "" : "s") << " in the reference image";
    if (!image_findings.empty()) {
      os << "; first: " << image_findings.front();
    }
  } else if (!syntactic.ok) {
    os << "FAIL (syntactic): " << syntactic.reason << " at seq " << syntactic.bad_seq;
  } else {
    os << "FAIL (semantic): " << semantic.reason << " at seq " << semantic.diverged_seq;
  }
  return os.str();
}

AuditOutcome Auditor::AuditFull(const Avmm& target, const SegmentSource& source,
                                ByteView reference_image, std::span<const Authenticator> auths,
                                const std::string& checkpoint_dir, ResumeInfo* info) {
  ResumeInfo local_info;
  ResumeInfo& ri = info != nullptr ? *info : local_info;
  ri = ResumeInfo{};
  AuditOutcome image_check;
  if (cfg_.verify_image) {
    VerifyReferenceImage(reference_image, cfg_.mem_size, &image_check);
    if (image_check.image_errors > 0) {
      return image_check;
    }
  }
  std::optional<AuditOutcome> rewound =
      DetectLogRewind(target, source, auths, *registry_, cfg_.mem_size);
  AuditOutcome out = rewound.has_value()
                         ? *std::move(rewound)
                         : FullAuditAfterPrechecks(target, source, reference_image, auths,
                                                   checkpoint_dir, ri);
  out.image_findings = std::move(image_check.image_findings);
  out.image_warnings = image_check.image_warnings;
  return out;
}

AuditOutcome Auditor::FullAuditAfterPrechecks(const Avmm& target, const SegmentSource& source,
                                              ByteView reference_image,
                                              std::span<const Authenticator> auths,
                                              const std::string& checkpoint_dir,
                                              ResumeInfo& ri) {
  AuditRun run;
  run.last_seq = source.LastSeq();
  run.reference_image = reference_image;
  run.accused = &target;
  run.entries_checked = &ri.entries_scanned;
  const uint64_t cadence = checkpoint_dir.empty() ? 0 : ckpt_.every_entries;
  if (cadence == 0) {
    return RunAuditEngine(source, auths, *registry_, cfg_, EnsurePool(), run);
  }

  // Resume from the checkpoint this auditor left behind, if it validates.
  AuditResume resume;
  {
    obs::Span load_span(obs::kPhaseAuditCheckpointIo, "audit");
    std::string reject;
    std::optional<AuditCheckpoint> cp = LoadAuditCheckpoint(checkpoint_dir, self_, &reject);
    if (cp.has_value()) {
      reject = ValidateAuditCheckpoint(*cp, self_, ckpt_.signer != nullptr, source, auths,
                                       *registry_, cfg_.mem_size, &resume);
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
                        StreamingReplayer& replayer) {
    AuditCheckpoint cp = CaptureAuditCheckpoint(source.node(), self_, seq, checker, replayer,
                                                 ckpt_.signer);
    // Plain-file capture is a pure optimization: a full disk or an
    // unwritable directory must cost a future resume, never this
    // verdict. A failure from the auditee's own store, though, is a
    // store-health signal (poisoned writer, failed fsync) that the
    // fleet's retry/recovery path must see -- rethrow it so the job
    // errors, the owner can reopen the store, and the audit reruns
    // instead of silently losing its checkpoint cadence.
    try {
      obs::Span save_span(obs::kPhaseAuditCheckpointIo, "audit");
      SaveAuditCheckpoint(checkpoint_dir, cp, ckpt_.aux_store);
      ri.checkpoints_written++;
    } catch (const std::runtime_error&) {
      if (ckpt_.aux_store != nullptr) {
        throw;
      }
    }
  };
  return RunAuditEngine(source, auths, *registry_, cfg_, EnsurePool(), run);
}

AuditOutcome Auditor::SpotCheck(const Avmm& target, const SegmentSource& source,
                                uint64_t from_snapshot_id, uint64_t to_snapshot_id,
                                std::span<const Authenticator> auths) {
  std::vector<SnapshotIndexEntry> snaps;
  try {
    snaps = IndexSnapshots(source);
  } catch (const std::runtime_error& e) {
    return UnreadableSourceOutcome(e.what());
  }
  return SpotCheckImpl(target, source, snaps, from_snapshot_id, to_snapshot_id, auths,
                       EnsurePool());
}

std::vector<AuditOutcome> Auditor::SpotCheckMany(
    const Avmm& target, const SegmentSource& source,
    std::span<const std::pair<uint64_t, uint64_t>> windows,
    std::span<const Authenticator> auths) {
  std::vector<AuditOutcome> out(windows.size());
  // One snapshot-index scan for all windows: for a store-backed source
  // the scan reads every segment from disk.
  std::vector<SnapshotIndexEntry> snaps;
  try {
    snaps = IndexSnapshots(source);
  } catch (const std::runtime_error& e) {
    for (AuditOutcome& o : out) {
      o = UnreadableSourceOutcome(e.what());
    }
    return out;
  }
  // One window per worker; within a window the audit runs sequentially
  // (no nested fan-out), since independent replays parallelize far
  // better than the per-signature checks inside one window do.
  auto audit_window = [&](size_t i) {
    out[i] =
        SpotCheckImpl(target, source, snaps, windows[i].first, windows[i].second, auths, nullptr);
  };
  if (ThreadPool* pool = EnsurePool()) {
    pool->ParallelFor(windows.size(), audit_window);
  } else {
    for (size_t i = 0; i < windows.size(); i++) {
      audit_window(i);
    }
  }
  return out;
}

AuditOutcome Auditor::SpotCheckImpl(const Avmm& target, const SegmentSource& source,
                                    std::span<const SnapshotIndexEntry> snaps,
                                    uint64_t from_snapshot_id, uint64_t to_snapshot_id,
                                    std::span<const Authenticator> auths, ThreadPool* pool) {
  const SnapshotIndexEntry* from = nullptr;
  const SnapshotIndexEntry* to = nullptr;
  for (const auto& s : snaps) {
    if (s.meta.snapshot_id == from_snapshot_id) {
      from = &s;
    }
    if (s.meta.snapshot_id == to_snapshot_id) {
      to = &s;
    }
  }
  if (from == nullptr || to == nullptr || from->seq > to->seq) {
    AuditOutcome out;
    out.syntactic = CheckResult::Fail("requested snapshots not found in log");
    return out;
  }

  AuditRun run;
  run.first_seq = from->seq;
  run.last_seq = to->seq;
  run.strict_crossref = false;
  run.accused = &target;
  try {
    run.prior_hash = from->seq > 1 ? source.HashAt(from->seq - 1) : Hash256::Zero();
  } catch (const std::runtime_error& e) {
    return UnreadableSourceOutcome(e.what());
  }
  // The auditor asks the machine to commit to the segment's endpoint
  // (the paper's "retrieve a pair of authenticators ... and challenge M
  // to produce the log segment that connects them").
  std::vector<Authenticator> all_auths(auths.begin(), auths.end());
  all_auths.push_back(target.CommitLogAt(to->seq));
  // "Download" the snapshot increments and materialize the start state.
  // Its Merkle root is verified by the replayer against the first
  // kSnapshot entry of the (chain-verified) segment.
  const SnapshotStore& snapshots = target.snapshot_store();
  MaterializedState start = snapshots.Materialize(from_snapshot_id, cfg_.mem_size);
  run.start_state = &start;
  AuditOutcome out = RunAuditEngine(source, all_auths, *registry_, cfg_, pool, run);
  out.snapshot_bytes = snapshots.TransferBytesUpTo(from_snapshot_id);
  if (out.evidence.has_value() && out.evidence->kind == EvidenceKind::kReplayDivergence) {
    // Ship the snapshot increments so a third party can materialize the
    // same (verified) start state.
    for (uint64_t id = 0; id <= from_snapshot_id; id++) {
      out.evidence->snapshot_deltas.push_back(snapshots.Get(id).Serialize());
    }
  }
  return out;
}

}  // namespace avm
