#include "src/audit/auditor.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <vector>

#include "src/audit/message_check.h"
#include "src/audit/pipeline.h"
#include "src/avmm/attested_input.h"
#include "src/avmm/message.h"
#include "src/obs/trace.h"
#include "src/tel/batch.h"
#include "src/util/serde.h"
#include "src/vm/analysis/cfg.h"
#include "src/vm/analysis/verifier.h"
#include "src/vm/trace.h"

namespace avm {

namespace {

// Joins the worker pool on scope exit: the pipelined Run() submits a
// replay task that captures stack locals by reference, so a throwing
// syntactic phase must not unwind past them while the task runs. The
// moot flag is raised first so the doomed replay stops at its next
// chunk boundary instead of running to completion.
struct PoolJoinGuard {
  ThreadPool* pool;
  std::atomic<bool>* replay_moot = nullptr;
  ~PoolJoinGuard() {
    if (pool != nullptr) {
      if (replay_moot != nullptr) {
        replay_moot->store(true, std::memory_order_relaxed);
      }
      try {
        pool->Wait();
      } catch (...) {
        // Already unwinding; the replay task stores its own exceptions.
      }
    }
  }
};

}  // namespace

CheckResult SyntacticMessageCheck(const LogSegment& segment, const KeyRegistry& registry,
                                  const AuditConfig& cfg, ThreadPool* pool) {
  SigVerdicts precomputed;
  if (pool != nullptr && pool->thread_count() > 1) {
    precomputed = PrecomputeMessageSigVerdicts(segment, registry, *pool);
  }
  MessageCheckState state(segment.node, registry, cfg.strict_message_crossref);
  for (size_t i = 0; i < segment.entries.size(); i++) {
    int8_t verdict = i < precomputed.size() ? precomputed[i] : int8_t{-1};
    CheckResult r = state.Feed(segment.entries[i], verdict);
    if (!r.ok) {
      return r;
    }
  }
  return state.Finalize();
}

CheckResult StreamingSyntacticCheck(const SegmentSource& source,
                                    std::span<const Authenticator> auths,
                                    const KeyRegistry& registry, const AuditConfig& cfg) {
  uint64_t last = source.LastSeq();
  if (last == 0) {
    return CheckResult::Fail("empty segment");
  }
  // Authenticators that cover the log, keyed by seq; mirrors
  // VerifyAgainstAuthenticators' coverage requirement.
  std::multimap<uint64_t, const Authenticator*> by_seq;
  for (const Authenticator& a : auths) {
    if (a.node == source.node() && a.seq >= 1 && a.seq <= last) {
      by_seq.emplace(a.seq, &a);
    }
  }
  if (by_seq.empty()) {
    return CheckResult::Fail("no authenticator covers the segment; cannot establish authenticity");
  }
  MessageCheckState state(source.node(), registry, cfg.strict_message_crossref);
  Hash256 prev = Hash256::Zero();
  uint64_t expect_seq = 1;
  CheckResult result = CheckResult::Ok();
  try {
    source.Scan(1, last, [&](const LogEntry& e) {
      CheckResult link = CheckChainLink(prev, expect_seq, e);
      if (!link.ok) {
        result = link;
        return false;
      }
      auto [first, end] = by_seq.equal_range(e.seq);
      for (auto it = first; it != end; ++it) {
        if (!it->second->VerifySignature(registry)) {
          result = CheckResult::Fail("authenticator signature invalid", e.seq);
          return false;
        }
        if (e.hash != it->second->hash) {
          result =
              CheckResult::Fail("log does not match issued authenticator (tamper or fork)", e.seq);
          return false;
        }
      }
      CheckResult r = state.Feed(e, -1);
      if (!r.ok) {
        result = r;
        return false;
      }
      prev = e.hash;
      expect_seq++;
      return true;
    });
  } catch (const std::runtime_error& err) {
    // Store-layer corruption (CRC mismatch, truncated segment, ...): the
    // log cannot be verified past this point.
    return CheckResult::Fail(std::string("log store unreadable: ") + err.what(), expect_seq);
  }
  if (result.ok) {
    result = state.Finalize();
  }
  return result;
}

std::vector<SnapshotIndexEntry> IndexSnapshots(const TamperEvidentLog& log) {
  std::vector<SnapshotIndexEntry> out;
  for (const LogEntry& e : log.entries()) {
    if (e.type == EntryType::kSnapshot) {
      out.push_back({e.seq, SnapshotMeta::Deserialize(e.content)});
    }
  }
  return out;
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

AuditOutcome Auditor::Run(const Avmm& target, const LogSegment& segment,
                          std::span<const Authenticator> auths, ByteView reference_image,
                          const MaterializedState* start_state, uint64_t snapshot_bytes,
                          bool strict_crossref, ThreadPool* pool) {
  AuditOutcome out;
  out.log_bytes = segment.SerializedSize();
  out.snapshot_bytes = snapshot_bytes;

  // Pipelined mode: replay the segment on a worker while this thread
  // runs the message-stream check, instead of strictly after it. Replay
  // only starts once the chain + authenticators verified — a forged
  // segment is still rejected for the price of a hash pass and a few
  // RSA checks, never a (attacker-sized) replay; what overlaps is the
  // expensive per-message RSA scan. The verdict assembly below is
  // order-identical to the sequential phases: a syntactic failure
  // discards the replay result (and any replay exception a hostile
  // segment provoked — sequentially the replay would never have run).
  ReplayResult pipelined_replay;
  std::exception_ptr pipelined_replay_err;
  double pipelined_sem_seconds = 0;
  const bool pipelined = pool != nullptr && cfg_.pipelined;
  bool replay_submitted = false;
  // Set once the syntactic verdict is a failure: the replay result is
  // discarded in that case, so the task stops feeding at its next chunk
  // boundary instead of replaying the rest for nothing.
  std::atomic<bool> replay_moot{false};
  PoolJoinGuard join_guard{pipelined ? pool : nullptr, &replay_moot};

  WallTimer syn_timer;
  obs::Span syn_span(obs::kPhaseAuditSyntactic, "audit");
  {
    obs::Span rsa_span(obs::kPhaseAuditRsaVerify, "audit");
    out.syntactic = VerifyAgainstAuthenticators(segment, auths, *registry_, pool);
  }
  if (out.syntactic.ok) {
    if (pipelined) {
      replay_submitted = true;
      pool->Submit([&] {
        WallTimer sem_timer;
        obs::Span replay_span(obs::kPhaseAuditReplay, "audit");
        try {
          // In-place construction: the replayer registers itself as the
          // machine's device backend, so it must never move.
          std::optional<StreamingReplayer> replayer;
          if (start_state != nullptr) {
            replayer.emplace(*start_state);
          } else {
            replayer.emplace(reference_image, cfg_.mem_size);
          }
          replayer->mutable_machine().set_jit_enabled(cfg_.jit_replay);
          constexpr size_t kReplayChunk = 4096;
          std::span<const LogEntry> entries(segment.entries);
          size_t pos = 0;
          while (pos < entries.size() && !replay_moot.load(std::memory_order_relaxed)) {
            const size_t n = std::min(kReplayChunk, entries.size() - pos);
            replayer->Feed(entries.subspan(pos, n));
            pos += n;
          }
          if (!replay_moot.load(std::memory_order_relaxed)) {
            pipelined_replay = replayer->Finish();
          }
        } catch (...) {
          pipelined_replay_err = std::current_exception();
        }
        pipelined_sem_seconds = sem_timer.ElapsedSeconds();
      });
    }
    AuditConfig cfg = cfg_;
    cfg.strict_message_crossref = strict_crossref;
    out.syntactic = SyntacticMessageCheck(segment, *registry_, cfg, pool);
  }
  if (out.syntactic.ok && cfg_.attested_input) {
    out.syntactic = VerifyAttestedInputs(segment, *registry_);
  }
  out.syntactic_seconds = syn_timer.ElapsedSeconds();
  syn_span.End();
  if (!out.syntactic.ok) {
    replay_moot.store(true, std::memory_order_relaxed);
  }
  if (replay_submitted) {
    pool->Wait();
  }

  if (!out.syntactic.ok) {
    Evidence ev;
    ev.kind = EvidenceKind::kProtocolViolation;
    ev.accused = target.id();
    ev.claim = out.syntactic.reason;
    ev.segment = segment.Serialize();
    for (const Authenticator& a : auths) {
      ev.auths.push_back(a.Serialize());
    }
    ev.mem_size = cfg_.mem_size;
    out.evidence = std::move(ev);
    out.ok = false;
    return out;
  }

  if (replay_submitted) {
    if (pipelined_replay_err != nullptr) {
      std::rethrow_exception(pipelined_replay_err);
    }
    out.semantic = pipelined_replay;
    out.semantic_seconds = pipelined_sem_seconds;
  } else {
    WallTimer sem_timer;
    obs::Span replay_span(obs::kPhaseAuditReplay, "audit");
    out.semantic = start_state != nullptr
                       ? ReplaySegment(segment, *start_state)
                       : ReplaySegment(segment, reference_image, cfg_.mem_size);
    out.semantic_seconds = sem_timer.ElapsedSeconds();
  }

  out.ok = out.semantic.ok;
  if (!out.ok) {
    Evidence ev;
    ev.kind = EvidenceKind::kReplayDivergence;
    ev.accused = target.id();
    ev.claim = out.semantic.reason;
    ev.segment = segment.Serialize();
    for (const Authenticator& a : auths) {
      ev.auths.push_back(a.Serialize());
    }
    if (start_state != nullptr) {
      // Ship the snapshot increments so a third party can materialize the
      // same (verified) start state.
      const SnapshotStore& store = target.snapshot_store();
      uint64_t start_id = SnapshotMeta::Deserialize(segment.entries.front().content).snapshot_id;
      for (uint64_t id = 0; id <= start_id; id++) {
        ev.snapshot_deltas.push_back(store.Get(id).Serialize());
      }
    }
    ev.mem_size = cfg_.mem_size;
    out.evidence = std::move(ev);
  }
  return out;
}

AuditOutcome Auditor::AuditFull(const Avmm& target, ByteView reference_image,
                                std::span<const Authenticator> auths) {
  return AuditFull(target, InMemorySegmentSource(target.log()), reference_image, auths);
}

namespace {

// An audit source is untrusted input: a corrupt or truncated store
// (CRC mismatch, torn segment, garbage snapshot entry) must fail the
// audit, not escape as an exception. Range errors (std::out_of_range,
// a logic_error) still propagate, matching the in-memory contract.
AuditOutcome UnreadableSourceOutcome(const std::runtime_error& e) {
  AuditOutcome out;
  out.syntactic = CheckResult::Fail(std::string("log source unreadable: ") + e.what());
  return out;
}

// AuditConfig::verify_image: run the static image verifier (CFG
// recovery + src/vm/analysis checks) over the reference image and
// render the findings to strings, so AuditOutcome stays decoupled from
// the analysis types.
void VerifyReferenceImage(ByteView image, size_t mem_size, AuditOutcome* out) {
  const analysis::Cfg cfg = analysis::BuildCfg(image);
  const analysis::VerifyReport rep = analysis::VerifyImage(image, mem_size, cfg);
  out->image_errors = rep.errors;
  out->image_warnings = rep.warnings;
  out->image_findings.reserve(rep.findings.size());
  for (const analysis::Finding& f : rep.findings) {
    std::ostringstream os;
    os << (f.severity == analysis::Severity::kError ? "error" : "warning") << ": "
       << analysis::FindingKindName(f.kind) << " at 0x" << std::hex << f.addr;
    if (!f.detail.empty()) {
      os << std::dec << ": " << f.detail;
    }
    out->image_findings.push_back(os.str());
  }
}

}  // namespace

std::optional<AuditOutcome> DetectLogRewind(const Avmm& target, const SegmentSource& source,
                                            std::span<const Authenticator> auths,
                                            const KeyRegistry& registry, size_t mem_size) {
  const uint64_t served_last = source.LastSeq();
  for (const Authenticator& a : auths) {
    if (a.node == source.node() && a.seq > served_last && a.VerifySignature(registry)) {
      AuditOutcome out;
      out.syntactic =
          CheckResult::Fail("log rewound: authenticator commits seq " + std::to_string(a.seq) +
                                " but the served log ends at " + std::to_string(served_last),
                            a.seq);
      Evidence ev;
      ev.kind = EvidenceKind::kProtocolViolation;
      ev.accused = target.id();
      ev.claim = out.syntactic.reason;
      ev.auths.push_back(a.Serialize());
      ev.mem_size = mem_size;
      out.evidence = std::move(ev);
      return out;
    }
  }
  return std::nullopt;
}

AuditOutcome Auditor::AuditFull(const Avmm& target, const SegmentSource& source,
                                ByteView reference_image, std::span<const Authenticator> auths) {
  AuditOutcome image_check;
  if (cfg_.verify_image) {
    VerifyReferenceImage(reference_image, cfg_.mem_size, &image_check);
    if (image_check.image_errors > 0) {
      // A reference image the verifier rejects (illegal opcodes on a
      // reachable path, jumps out of the image, statically
      // out-of-bounds accesses) makes any replay verdict meaningless:
      // fail up front without replaying an instruction. Note this
      // accuses the auditor's own inputs, not the auditee — no
      // evidence is attached.
      return image_check;
    }
  }
  // Warnings (and the findings list) ride along on whichever outcome
  // the audit proper produces.
  auto attach = [&image_check](AuditOutcome out) {
    out.image_findings = std::move(image_check.image_findings);
    out.image_warnings = image_check.image_warnings;
    return out;
  };
  if (auto rewound = DetectLogRewind(target, source, auths, *registry_, cfg_.mem_size)) {
    return attach(*std::move(rewound));
  }
  ThreadPool* pool = EnsurePool();
  if (pool != nullptr && cfg_.pipelined && source.LastSeq() >= 1) {
    // Streaming pipeline: the syntactic check of chunk i+1 overlaps the
    // replay of chunk i, and only O(chunk) entries are materialized at
    // a time. Verdicts are bit-for-bit the sequential path's.
    AuditConfig cfg = cfg_;
    cfg.strict_message_crossref = true;
    return attach(PipelinedStreamingAuditFull(target, source, reference_image, auths, *registry_,
                                              cfg, *pool));
  }
  LogSegment segment;
  try {
    segment = source.Extract(1, source.LastSeq());
  } catch (const std::runtime_error& e) {
    return attach(UnreadableSourceOutcome(e));
  }
  return attach(
      Run(target, segment, auths, reference_image, nullptr, 0, /*strict_crossref=*/true, pool));
}

AuditOutcome Auditor::SpotCheck(const Avmm& target, uint64_t from_snapshot_id,
                                uint64_t to_snapshot_id, std::span<const Authenticator> auths) {
  InMemorySegmentSource source(target.log());
  return SpotCheck(target, source, from_snapshot_id, to_snapshot_id, auths);
}

AuditOutcome Auditor::SpotCheck(const Avmm& target, const SegmentSource& source,
                                uint64_t from_snapshot_id, uint64_t to_snapshot_id,
                                std::span<const Authenticator> auths) {
  std::vector<SnapshotIndexEntry> snaps;
  try {
    snaps = IndexSnapshots(source);
  } catch (const std::runtime_error& e) {
    return UnreadableSourceOutcome(e);
  }
  return SpotCheckImpl(target, source, snaps, from_snapshot_id, to_snapshot_id, auths,
                       EnsurePool());
}

std::vector<AuditOutcome> Auditor::SpotCheckMany(
    const Avmm& target, std::span<const std::pair<uint64_t, uint64_t>> windows,
    std::span<const Authenticator> auths) {
  return SpotCheckMany(target, InMemorySegmentSource(target.log()), windows, auths);
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
      o = UnreadableSourceOutcome(e);
    }
    return out;
  }
  ThreadPool* pool = EnsurePool();
  if (pool == nullptr) {
    for (size_t i = 0; i < windows.size(); i++) {
      out[i] =
          SpotCheckImpl(target, source, snaps, windows[i].first, windows[i].second, auths, nullptr);
    }
    return out;
  }
  // One window per worker; within a window the audit runs sequentially
  // (no nested fan-out), since independent replays parallelize far
  // better than the per-signature checks inside one window do.
  pool->ParallelFor(windows.size(), [&](size_t i) {
    out[i] =
        SpotCheckImpl(target, source, snaps, windows[i].first, windows[i].second, auths, nullptr);
  });
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

  LogSegment segment;
  try {
    segment = source.Extract(from->seq, to->seq);
  } catch (const std::runtime_error& e) {
    return UnreadableSourceOutcome(e);
  }
  // The auditor asks the machine to commit to the segment's endpoint
  // (the paper's "retrieve a pair of authenticators ... and challenge M
  // to produce the log segment that connects them").
  std::vector<Authenticator> all_auths(auths.begin(), auths.end());
  all_auths.push_back(target.CommitLogAt(to->seq));
  // "Download" the snapshot increments and materialize the start state.
  // Its Merkle root is verified by the replayer against the first
  // kSnapshot entry of the (chain-verified) segment.
  MaterializedState start =
      target.snapshot_store().Materialize(from_snapshot_id, cfg_.mem_size);
  uint64_t snapshot_bytes = target.snapshot_store().TransferBytesUpTo(from_snapshot_id);
  return Run(target, segment, all_auths, ByteView(), &start, snapshot_bytes,
             /*strict_crossref=*/false, pool);
}

}  // namespace avm
