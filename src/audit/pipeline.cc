#include "src/audit/pipeline.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <memory>
#include <utility>

#include "src/audit/replayer.h"
#include "src/avmm/recorder.h"
#include "src/obs/trace.h"
#include "src/util/threadpool.h"

namespace avm {

ChunkedSyntacticChecker::ChunkedSyntacticChecker(const NodeId& node, uint64_t first_seq,
                                                 uint64_t last_seq, const Hash256& prior_hash,
                                                 std::span<const Authenticator> auths,
                                                 const KeyRegistry& registry,
                                                 bool strict_crossref, ThreadPool* pool)
    : node_(node),
      registry_(registry),
      auths_(auths),
      prior_hash_(prior_hash),
      auth_fail_idx_(std::numeric_limits<size_t>::max()),
      smc_(node, registry, strict_crossref) {
  for (size_t i = 0; i < auths.size(); i++) {
    if (auths[i].node == node && auths[i].seq >= first_seq && auths[i].seq <= last_seq) {
      covering_.push_back({auths[i].seq, i, false});
    }
  }
  std::sort(covering_.begin(), covering_.end());
  obs::Span rsa_span(obs::kPhaseAuditRsaVerify, "audit");
  auto verify = [&](size_t k) {
    covering_[k].sig_ok = auths[covering_[k].index].VerifySignature(registry);
  };
  if (pool != nullptr) {
    pool->ParallelFor(covering_.size(), verify);
  } else {
    for (size_t k = 0; k < covering_.size(); k++) {
      verify(k);
    }
  }
  if (InputAttestationRequired(node, registry)) {
    attested_.emplace(node, registry);
  }
}

bool ChunkedSyntacticChecker::SignaturesValid() const {
  return !covering_.empty() && std::all_of(covering_.begin(), covering_.end(),
                                           [](const CoveringAuth& c) { return c.sig_ok; });
}

bool ChunkedSyntacticChecker::AnyFailure() const {
  return !chain_fail_.ok || covering_.empty() || !auth_fail_.ok || !smc_fail_.ok ||
         !attested_fail_.ok;
}

void ChunkedSyntacticChecker::Feed(std::span<const LogEntry> entries, ThreadPool* pool) {
  if (entries.empty() || !chain_fail_.ok) {
    return;  // A chain failure fixes the verdict; later entries cannot matter.
  }
  // The chain links run ahead of the scan, under audit.rsa_verify, so
  // the chain hashing is attributed there as VerifyChain's was (e2ebench
  // reports it as audit.chain_auth_s). Link i (i >= 1) is checked
  // against entry i-1 of this run, which is exactly what the scan below
  // would check once entry i-1 passed, so the links are independent
  // and are hashed four at a time (CheckChainLinks); links_[i] == 1 lets
  // the scan skip the rehash, and the first entry and any failing link
  // are checked inline. Without a pool the groups go in order and stop
  // after the first one holding a failing link. With a pool they fan
  // out in one ParallelFor together with the message RSA checks --
  // unless a failure is already recorded: the message scan is then over
  // and the rest only needs hashing, for chain precedence.
  const size_t n = entries.size();
  links_.assign(n, 0);
  sig_verdicts_.assign(n, -1);
  obs::Span ahead_span(obs::kPhaseAuditRsaVerify, "audit");
  if (pool == nullptr) {
    CheckChainLinks(entries, 1, n, links_.data(), /*stop_at_failure=*/true);
  } else {
    std::vector<MessageSigJob> jobs;
    if (!AnyFailure()) {
      jobs = CollectMessageSigJobs(node_, entries);
    }
    // Links go in blocks: one hash is too little work per pool task.
    constexpr size_t kLinksPerTask = 64;
    const size_t link_tasks = (n - 1 + kLinksPerTask - 1) / kLinksPerTask;
    pool->ParallelFor(jobs.size() + link_tasks, [&](size_t k) {
      if (k < jobs.size()) {
        sig_verdicts_[jobs[k].entry] = jobs[k].Verify(registry_) ? 1 : 0;
        return;
      }
      const size_t begin = 1 + (k - jobs.size()) * kLinksPerTask;
      CheckChainLinks(entries, begin, std::min(n, begin + kLinksPerTask), links_.data(),
                      /*stop_at_failure=*/false);
    });
  }
  ahead_span.End();
  for (size_t i = 0; i < entries.size(); i++) {
    const LogEntry& e = entries[i];
    fed_++;
    if (!started_) {
      started_ = true;
      expect_seq_ = e.seq;
      // VerifyChain's prechecks, evaluated against the actual first entry.
      if (e.seq == 0) {
        chain_fail_ = CheckResult::Fail("sequence numbers are 1-based", 0);
        return;
      }
      if (e.seq == 1 && !prior_hash_.IsZero()) {
        chain_fail_ = CheckResult::Fail("segment starts at seq 1 but prior hash is nonzero", 1);
        return;
      }
    }
    // The chain rule, link by link (shared with VerifyChain).
    if (links_[i] == 0) {
      CheckResult link = CheckChainLink(prior_hash_, expect_seq_, e);
      if (!link.ok) {
        chain_fail_ = link;
        return;
      }
    }
    prior_hash_ = e.hash;
    expect_seq_++;

    // Authenticators whose seq just streamed by. Failures are recorded
    // under the authenticator's *span index*: the sequential scan
    // reports the first failing authenticator in span order, not in
    // seq order.
    // Seqs stream strictly in order, so one cursor walks the sorted
    // index.
    while (next_auth_ < covering_.size() && covering_[next_auth_].seq < e.seq) {
      next_auth_++;
    }
    if (next_auth_ < covering_.size() && covering_[next_auth_].seq == e.seq) {
      auth_hashes_.emplace_back(e.seq, e.hash);
    }
    for (; next_auth_ < covering_.size() && covering_[next_auth_].seq == e.seq; next_auth_++) {
      CheckAuthAt(covering_[next_auth_], e.hash);
    }

    // The message-stream state machine; stops at its first failure (the
    // sequential scan never feeds past it). An authenticator failure
    // outranks anything these scans could report, so once one is
    // recorded their (RSA-heavy) work is moot and skipped -- only the
    // chain hashing above still matters for the final verdict.
    if (auth_fail_.ok && smc_fail_.ok) {
      CheckResult r = smc_.Feed(e, sig_verdicts_[i]);
      if (!r.ok) {
        smc_fail_ = r;
      }
    }
    if (auth_fail_.ok && smc_fail_.ok && attested_.has_value() && attested_fail_.ok) {
      CheckResult r = attested_->Feed(e);
      if (!r.ok) {
        attested_fail_ = r;
      }
    }
  }
}

void ChunkedSyntacticChecker::CheckAuthAt(const CoveringAuth& c, const Hash256& log_hash) {
  if (c.index >= auth_fail_idx_) {
    return;  // A smaller span index already failed.
  }
  const Authenticator& a = auths_[c.index];
  if (!c.sig_ok) {
    auth_fail_idx_ = c.index;
    auth_fail_ = CheckResult::Fail("authenticator signature invalid", a.seq);
  } else if (log_hash != a.hash) {
    auth_fail_idx_ = c.index;
    auth_fail_ =
        CheckResult::Fail("log does not match issued authenticator (tamper or fork)", a.seq);
  }
}

void ChunkedSyntacticChecker::SerializeResumableState(Writer& w) const {
  smc_.SerializeState(w);
  w.U8(attested_.has_value() ? 1 : 0);
  if (attested_.has_value()) {
    attested_->SerializeState(w);
  }
}

namespace {

// The one decoder of SerializeResumableState's format.
void DecodeScanState(ByteView state, MessageCheckState& smc,
                     std::optional<AttestedInputScanner>& attested) {
  Reader r(state);
  smc.RestoreState(r);
  const bool has_attested = r.U8() != 0;
  if (has_attested != attested.has_value()) {
    throw SerdeError("checkpoint attested-input mode does not match the registry");
  }
  if (attested.has_value()) {
    attested->RestoreState(r);
  }
  r.ExpectEnd();
}

}  // namespace

std::string ChunkedSyntacticChecker::ResumableStateError(ByteView state, const NodeId& node,
                                                         const KeyRegistry& registry) {
  MessageCheckState smc(node, registry, /*strict=*/true);
  std::optional<AttestedInputScanner> attested;
  if (InputAttestationRequired(node, registry)) {
    attested.emplace(node, registry);
  }
  try {
    DecodeScanState(state, smc, attested);
  } catch (const SerdeError& e) {
    return e.what();
  }
  return "";
}

void ChunkedSyntacticChecker::RestoreResumableState(
    ByteView state, uint64_t watermark_seq, const std::map<uint64_t, Hash256>& auth_hashes) {
  DecodeScanState(state, smc_, attested_);
  // Behave as if entries 1..watermark had been fed (they were, by the
  // audit that wrote the checkpoint): the next entry must chain from
  // the ctor's prior_hash at watermark+1, and Finalize() must not
  // mistake a fully-caught-up resume for an empty segment.
  started_ = true;
  expect_seq_ = watermark_seq + 1;
  fed_ = watermark_seq;
  // Authenticators at or behind the watermark never stream by; resolve
  // them against the chain hashes verified when the checkpoint was
  // written.
  auth_hashes_.assign(auth_hashes.begin(), auth_hashes.end());
  for (; next_auth_ < covering_.size() && covering_[next_auth_].seq <= watermark_seq;
       next_auth_++) {
    const CoveringAuth& c = covering_[next_auth_];
    CheckAuthAt(c, auth_hashes.at(c.seq));
  }
}

CheckResult ChunkedSyntacticChecker::Finalize() const {
  // Phase priority, exactly the whole-segment composition: VerifyChain
  // (prechecks + links), then authenticator coverage + checks, then the
  // message-stream scan and its Finalize, then attested inputs.
  if (fed_ == 0) {
    return CheckResult::Fail("empty segment");
  }
  if (!chain_fail_.ok) {
    return chain_fail_;
  }
  if (covering_.empty()) {
    return CheckResult::Fail("no authenticator covers the segment; cannot establish authenticity");
  }
  if (!auth_fail_.ok) {
    return auth_fail_;
  }
  if (!smc_fail_.ok) {
    return smc_fail_;
  }
  CheckResult fin = smc_.Finalize();
  if (!fin.ok) {
    return fin;
  }
  if (!attested_fail_.ok) {
    return attested_fail_;
  }
  return CheckResult::Ok();
}

AuditOutcome UnreadableSourceOutcome(const std::string& what) {
  AuditOutcome out;
  out.syntactic = CheckResult::Fail("log source unreadable: " + what);
  return out;
}

AuditOutcome RunAuditEngine(const SegmentSource& source, std::span<const Authenticator> auths,
                            const KeyRegistry& registry, const AuditConfig& cfg, ThreadPool* pool,
                            const AuditRun& run) {
  AuditOutcome out;
  const NodeId& node = source.node();
  const uint64_t last = run.last_seq;
  if (last < run.first_seq) {
    out.syntactic = CheckResult::Fail("empty segment");
    return out;
  }

  // The checker verifies every covering authenticator's signature up
  // front: the replay gate. The verdict itself still comes from the
  // checker, in phase order.
  const AuditResume* resume = run.resume;
  WallTimer gate_timer;
  obs::Span gate_span(obs::kPhaseAuditSyntactic, "audit");
  ChunkedSyntacticChecker checker(node, run.first_seq, last,
                                  resume != nullptr ? resume->chain_hash : run.prior_hash, auths,
                                  registry, run.strict_crossref, pool);
  const bool replay_gate = run.replay && checker.SignaturesValid();
  gate_span.End();
  double syn_seconds = gate_timer.ElapsedSeconds();
  // Heap-allocated: the replayer registers itself as the machine's
  // device backend, so it must never move.
  std::unique_ptr<StreamingReplayer> replayer;
  if (run.replay) {
    const MaterializedState* start = resume != nullptr ? &resume->machine : run.start_state;
    replayer = start != nullptr
                   ? std::make_unique<StreamingReplayer>(*start)
                   : std::make_unique<StreamingReplayer>(run.reference_image, cfg.mem_size);
    replayer->mutable_machine().set_jit_enabled(cfg.jit_replay);
  }
  if (resume != nullptr) {
    checker.RestoreResumableState(resume->scan_state, resume->watermark, resume->auth_hashes);
  }

  // With a pool, chunk i replays on a worker while this thread checks
  // chunk i+1; without one, replay runs inline. Workers beyond the
  // replay task fan each chunk's checks.
  const bool overlap = pool != nullptr && pool->thread_count() > 1 && run.replay;
  ThreadPool* check_pool =
      pool != nullptr && pool->thread_count() > (overlap ? 2u : 1u) ? pool : nullptr;
  const size_t chunk_entries = cfg.pipeline_chunk_entries > 0 ? cfg.pipeline_chunk_entries : 2048;
  // Entry slots are kept from chunk to chunk: each scanned entry is
  // copy-assigned into the next slot, reusing its content buffer, and
  // the first `fill` slots are the chunk.
  std::vector<LogEntry> chunk;  // Being filled by the scan.
  size_t fill = 0;
  std::vector<LogEntry> inflight;  // Being replayed by the worker task.
  size_t inflight_fill = 0;
  bool task_in_flight = false;
  std::exception_ptr replay_err;
  double sem_seconds = 0;
  auto replay = [&](std::span<const LogEntry> entries) {
    WallTimer sem_timer;
    obs::Span replay_span(obs::kPhaseAuditReplay, "audit");
    try {
      replayer->Feed(entries);
    } catch (...) {
      // A hostile log can make the replayer throw (e.g. an oversized
      // DMA write). Hold the exception until the syntactic verdict is
      // known: a syntactic failure outranks it.
      replay_err = std::current_exception();
    }
    sem_seconds += sem_timer.ElapsedSeconds();
  };
  auto join_replay = [&] {
    if (task_in_flight) {
      pool->Wait();
      task_in_flight = false;
    }
  };
  auto replay_wanted = [&] {
    return replay_gate && replay_err == nullptr && !checker.AnyFailure();
  };
  auto process_chunk = [&](uint64_t end_seq) {
    {
      WallTimer syn_timer;
      obs::Span syn_span(obs::kPhaseAuditSyntactic, "audit");
      checker.Feed(std::span<const LogEntry>(chunk.data(), fill), check_pool);
      syn_seconds += syn_timer.ElapsedSeconds();
    }
    join_replay();
    // Replay's result is discarded on any syntactic failure, so stop
    // replaying once one is recorded (the checker still scans the rest:
    // a later chain break or unreadable entry outranks it).
    if (replay_wanted()) {
      if (overlap) {
        std::swap(chunk, inflight);
        std::swap(fill, inflight_fill);
        task_in_flight = true;
        pool->Submit([&] { replay(std::span<const LogEntry>(inflight.data(), inflight_fill)); });
      } else {
        replay(std::span<const LogEntry>(chunk.data(), fill));
      }
    }
    if (run.on_boundary && run.boundary_every > 0 && end_seq % run.boundary_every == 0) {
      join_replay();
      if (replay_wanted() && replayer->Checkpointable()) {
        run.on_boundary(end_seq, checker, *replayer);
      }
    }
    fill = 0;
  };

  // The one forward scan. The whole range is read even after a failure:
  // an unreadable entry anywhere outranks every check verdict.
  const uint64_t scan_from = resume != nullptr ? resume->watermark + 1 : run.first_seq;
  uint64_t next = scan_from;  // Seq position of the next entry scanned.
  uint64_t entry_wire_bytes = 0;
  std::exception_ptr visit_err;  // Thrown by the checks, not by the source.
  std::optional<std::string> unreadable;
  try {
    if (scan_from <= last) {
      source.Scan(scan_from, last, [&](const LogEntry& e) {
        try {
          entry_wire_bytes += e.WireSize();
          if (fill == chunk.size()) {
            chunk.push_back(e);
          } else {
            chunk[fill] = e;
          }
          fill++;
          if (fill >= chunk_entries || next == last ||
              (run.boundary_every > 0 && next % run.boundary_every == 0)) {
            process_chunk(next);
          }
        } catch (...) {
          visit_err = std::current_exception();
          return false;
        }
        next++;
        return true;
      });
    }
  } catch (const std::runtime_error& e) {
    // Store-layer corruption (CRC mismatch, truncated segment, ...).
    unreadable = e.what();
  } catch (...) {
    join_replay();  // The task captures this frame's locals.
    throw;
  }
  join_replay();
  if (visit_err != nullptr) {
    std::rethrow_exception(visit_err);
  }
  if (run.entries_checked != nullptr) {
    // Entries still in `chunk` were read but never reached the checks.
    *run.entries_checked = next - scan_from - fill;
  }
  if (!unreadable.has_value() && next <= last) {
    unreadable = "log ends before seq " + std::to_string(next);
  }
  if (unreadable.has_value()) {
    return UnreadableSourceOutcome(*unreadable);
  }

  out.syntactic_seconds = syn_seconds;
  out.log_bytes = LogSegment::SerializedSize(node, entry_wire_bytes);
  // Evidence ships the whole audited segment; this second read can hit
  // a store that broke after the scan, which must still surface as an
  // unreadable outcome, not an exception.
  auto attach_evidence = [&](EvidenceKind kind, const std::string& claim) {
    if (run.accused == nullptr) {
      return;
    }
    Evidence ev;
    ev.kind = kind;
    ev.accused = run.accused->id();
    ev.claim = claim;
    try {
      ev.segment = source.Extract(run.first_seq, last).Serialize();
    } catch (const std::runtime_error& e) {
      out = UnreadableSourceOutcome(e.what());
      return;
    }
    for (const Authenticator& a : auths) {
      ev.auths.push_back(a.Serialize());
    }
    ev.mem_size = cfg.mem_size;
    out.evidence = std::move(ev);
  };

  out.syntactic = checker.Finalize();
  if (!out.syntactic.ok) {
    attach_evidence(EvidenceKind::kProtocolViolation, out.syntactic.reason);
    return out;
  }
  if (!run.replay) {
    out.ok = true;
    return out;
  }
  if (replay_err != nullptr) {
    std::rethrow_exception(replay_err);
  }
  {
    WallTimer finish_timer;
    obs::Span finish_span(obs::kPhaseAuditReplay, "audit");
    out.semantic = replayer->Finish();
    out.semantic_seconds = sem_seconds + finish_timer.ElapsedSeconds();
  }
  out.ok = out.semantic.ok;
  if (!out.ok) {
    attach_evidence(EvidenceKind::kReplayDivergence, out.semantic.reason);
  }
  return out;
}

}  // namespace avm
