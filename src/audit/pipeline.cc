#include "src/audit/pipeline.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "src/audit/replayer.h"
#include "src/avmm/recorder.h"
#include "src/obs/trace.h"
#include "src/util/threadpool.h"
#include "src/vm/analysis/analysis.h"

namespace avm {

ChunkedSyntacticChecker::ChunkedSyntacticChecker(const NodeId& node, uint64_t first_seq,
                                                 const Hash256& prior_hash,
                                                 const KeyRegistry& registry,
                                                 bool strict_crossref, bool open_ended)
    : node_(node),
      registry_(registry),
      first_seq_(first_seq),
      open_ended_(open_ended),
      prior_hash_(prior_hash),
      auth_fail_idx_(std::numeric_limits<size_t>::max()),
      smc_(node, registry, strict_crossref) {
  if (InputAttestationRequired(node, registry)) {
    attested_.emplace(node, registry);
  }
}

void ChunkedSyntacticChecker::Cover(std::span<const Authenticator> auths, uint64_t last_seq,
                                    ThreadPool* pool) {
  covering_.clear();
  for (size_t i = 0; i < auths.size(); i++) {
    if (auths[i].node == node_ && auths[i].seq >= first_seq_ && auths[i].seq <= last_seq) {
      covering_.push_back({auths[i].seq, i, auths[i].hash, false});
    }
  }
  std::sort(covering_.begin(), covering_.end());
  obs::Span rsa_span(obs::kPhaseAuditRsaVerify, "audit");
  auto key = [&](size_t k) {
    const Authenticator& a = auths[covering_[k].index];
    return std::make_tuple(a.seq, a.hash, a.signature);
  };
  std::vector<size_t> unverified;
  for (size_t k = 0; k < covering_.size(); k++) {
    covering_[k].sig_ok = open_ended_ && valid_sigs_.count(key(k)) != 0;
    if (!covering_[k].sig_ok) {
      unverified.push_back(k);
    }
  }
  auto verify = [&](size_t i) {
    const size_t k = unverified[i];
    covering_[k].sig_ok = auths[covering_[k].index].VerifySignature(registry_);
  };
  if (pool != nullptr) {
    pool->ParallelFor(unverified.size(), verify);
  } else {
    for (size_t i = 0; i < unverified.size(); i++) {
      verify(i);
    }
  }
  for (size_t k : unverified) {
    if (open_ended_ && covering_[k].sig_ok) {
      valid_sigs_.insert(key(k));
    }
  }
  rsa_span.End();
  // Authenticators whose seq was fed already never stream by; resolve
  // them against the chain hashes verified when it was.
  const uint64_t fed_through = first_seq_ - 1 + fed_;
  for (next_auth_ = 0; next_auth_ < covering_.size() && covering_[next_auth_].seq <= fed_through;
       next_auth_++) {
    const CoveringAuth& c = covering_[next_auth_];
    auto it = std::lower_bound(
        auth_hashes_.begin(), auth_hashes_.end(), c.seq,
        [](const std::pair<uint64_t, Hash256>& h, uint64_t seq) { return h.first < seq; });
    if (it == auth_hashes_.end() || it->first != c.seq) {
      throw std::out_of_range("no verified chain hash at authenticator seq " +
                              std::to_string(c.seq));
    }
    CheckAuthAt(c, it->second);
  }
}

bool ChunkedSyntacticChecker::SignaturesValid() const {
  return std::all_of(covering_.begin(), covering_.end(),
                     [](const CoveringAuth& c) { return c.sig_ok; });
}

bool ChunkedSyntacticChecker::AnyFailure() const {
  return !chain_fail_.ok || !auth_fail_.ok || !smc_fail_.ok || !attested_fail_.ok;
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
    if (open_ended_ || (next_auth_ < covering_.size() && covering_[next_auth_].seq == e.seq)) {
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
  if (!c.sig_ok) {
    auth_fail_idx_ = c.index;
    auth_fail_ = CheckResult::Fail("authenticator signature invalid", c.seq);
  } else if (log_hash != c.hash) {
    auth_fail_idx_ = c.index;
    auth_fail_ =
        CheckResult::Fail("log does not match issued authenticator (tamper or fork)", c.seq);
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
  // Cover() resolves the authenticators at or behind the watermark
  // against the chain hashes verified when the checkpoint was written.
  auth_hashes_.assign(auth_hashes.begin(), auth_hashes.end());
}

CheckResult ChunkedSyntacticChecker::Finalize(bool end_of_log) const {
  // Phase priority, exactly the whole-segment composition: VerifyChain
  // (prechecks + links), then authenticator coverage + checks, then the
  // message-stream scan and its Finalize, then attested inputs.
  if (fed_ == 0) {
    return CheckResult::Fail("empty segment");
  }
  if (!chain_fail_.ok) {
    return chain_fail_;
  }
  if (end_of_log && covering_.empty()) {
    return CheckResult::Fail("no authenticator covers the segment; cannot establish authenticity");
  }
  if (!auth_fail_.ok) {
    return auth_fail_;
  }
  if (!smc_fail_.ok) {
    return smc_fail_;
  }
  if (end_of_log) {
    CheckResult fin = smc_.Finalize();
    if (!fin.ok) {
      return fin;
    }
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

// The static image verifier (src/vm/analysis), its findings rendered
// to strings so AuditOutcome stays decoupled from the analysis types.
void VerifyReferenceImage(ByteView image, size_t mem_size, AuditOutcome* out) {
  const analysis::VerifyReport rep = analysis::AnalyzeImage(image, mem_size).report;
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

AuditEngine::AuditEngine(const SegmentSource& source, const KeyRegistry& registry,
                         const AuditConfig& cfg, ThreadPool* pool, const AuditRun& run)
    : source_(source),
      cfg_(cfg),
      pool_(pool),
      run_(run),
      checker_(source.node(), run.first_seq,
               run.resume != nullptr ? run.resume->chain_hash : run.prior_hash, registry,
               run.strict_crossref, /*open_ended=*/run.last_seq == kOpenEndedRun) {
  const AuditResume* resume = run.resume;
  if (run.replay) {
    const MaterializedState* start = resume != nullptr ? &resume->machine : run.start_state;
    replayer_ = start != nullptr
                    ? std::make_unique<StreamingReplayer>(*start)
                    : std::make_unique<StreamingReplayer>(run.reference_image, cfg.mem_size);
    replayer_->mutable_machine().set_jit_enabled(cfg.jit_replay);
  }
  if (resume != nullptr) {
    checker_.RestoreResumableState(resume->scan_state, resume->watermark, resume->auth_hashes);
  }
  overlap_ = pool != nullptr && pool->thread_count() > 1 && run.replay;
  check_pool_ = pool != nullptr && pool->thread_count() > (overlap_ ? 2u : 1u) ? pool : nullptr;
  chunk_entries_ = cfg.pipeline_chunk_entries > 0 ? cfg.pipeline_chunk_entries : 2048;
  scan_from_ = resume != nullptr ? resume->watermark + 1 : run.first_seq;
  next_ = scan_from_;
}

AuditEngine::~AuditEngine() { JoinReplay(); }

void AuditEngine::Replay(std::span<const LogEntry> entries) {
  WallTimer sem_timer;
  obs::Span replay_span(obs::kPhaseAuditReplay, "audit");
  try {
    replayer_->Feed(entries);
  } catch (...) {
    // A hostile log can make the replayer throw (e.g. an oversized DMA
    // write). Hold the exception until the syntactic verdict is known:
    // a syntactic failure outranks it.
    replay_err_ = std::current_exception();
  }
  sem_seconds_ += sem_timer.ElapsedSeconds();
}

void AuditEngine::JoinReplay() {
  if (task_in_flight_) {
    pool_->Wait();
    task_in_flight_ = false;
  }
}

bool AuditEngine::ReplayWanted() const {
  return replay_gate_ && replay_err_ == nullptr && !checker_.AnyFailure();
}

void AuditEngine::ProcessChunk(uint64_t end_seq) {
  {
    WallTimer syn_timer;
    obs::Span syn_span(obs::kPhaseAuditSyntactic, "audit");
    checker_.Feed(std::span<const LogEntry>(chunk_.data(), fill_), check_pool_);
    syn_seconds_ += syn_timer.ElapsedSeconds();
  }
  JoinReplay();
  // Replay's result is discarded on any syntactic failure, so stop
  // replaying once one is recorded (the checker still scans the rest:
  // a later chain break or unreadable entry outranks it).
  if (ReplayWanted()) {
    if (overlap_) {
      std::swap(chunk_, inflight_);
      std::swap(fill_, inflight_fill_);
      task_in_flight_ = true;
      pool_->Submit([this] { Replay(std::span<const LogEntry>(inflight_.data(), inflight_fill_)); });
    } else {
      Replay(std::span<const LogEntry>(chunk_.data(), fill_));
    }
  }
  if (run_.on_boundary && run_.boundary_every > 0 && end_seq % run_.boundary_every == 0) {
    JoinReplay();
    if (ReplayWanted() && replayer_->Checkpointable()) {
      run_.on_boundary(end_seq, checker_, *replayer_);
    }
  }
  fill_ = 0;
}

void AuditEngine::Advance(uint64_t last_seq, std::span<const Authenticator> auths) {
  auths_ = auths;
  last_ = last_seq;
  if (unreadable_.has_value()) {
    return;  // The scan cannot go on past an entry it could not read.
  }
  // The checker verifies every covering authenticator's signature up
  // front: the replay gate. An open-ended run cannot replay what it
  // skipped once its coverage grows, so coverage gates only a run whose
  // end is known; the verdict itself still comes from the checker, in
  // phase order.
  {
    WallTimer gate_timer;
    obs::Span gate_span(obs::kPhaseAuditSyntactic, "audit");
    checker_.Cover(auths, last_seq, pool_);
    replay_gate_ = run_.replay && checker_.SignaturesValid() &&
                   (run_.last_seq == kOpenEndedRun || checker_.Covered());
    syn_seconds_ += gate_timer.ElapsedSeconds();
  }

  // The one forward scan of the new entries.
  const uint64_t from = next_;
  std::exception_ptr visit_err;  // Thrown by the checks, not by the source.
  try {
    if (from <= last_seq) {
      source_.Scan(from, last_seq, [&](const LogEntry& e) {
        try {
          entry_wire_bytes_ += e.WireSize();
          if (fill_ == chunk_.size()) {
            chunk_.push_back(e);
          } else {
            chunk_[fill_] = e;
          }
          fill_++;
          if (fill_ >= chunk_entries_ || next_ == last_seq ||
              (run_.boundary_every > 0 && next_ % run_.boundary_every == 0)) {
            ProcessChunk(next_);
          }
        } catch (...) {
          visit_err = std::current_exception();
          return false;
        }
        next_++;
        return true;
      });
    }
  } catch (const std::runtime_error& e) {
    // Store-layer corruption (CRC mismatch, truncated segment, ...).
    unreadable_ = e.what();
  } catch (...) {
    JoinReplay();  // The task reads this engine's chunk slots.
    throw;
  }
  JoinReplay();
  if (visit_err != nullptr) {
    std::rethrow_exception(visit_err);
  }
  if (run_.entries_checked != nullptr) {
    // Entries still in the chunk were read but never reached the checks.
    *run_.entries_checked = next_ - scan_from_ - fill_;
  }
  if (!unreadable_.has_value() && next_ <= last_seq) {
    unreadable_ = "log ends before seq " + std::to_string(next_);
  }
}

void AuditEngine::AttachEvidence(AuditOutcome& out, EvidenceKind kind,
                                 const std::string& claim) const {
  if (run_.accused == nullptr) {
    return;
  }
  // Evidence ships the whole audited segment; this second read can hit
  // a store that broke after the scan, which must still surface as an
  // unreadable outcome, not an exception.
  Evidence ev;
  ev.kind = kind;
  ev.accused = run_.accused->id();
  ev.claim = claim;
  try {
    ev.segment = source_.Extract(run_.first_seq, last_).Serialize();
  } catch (const std::runtime_error& e) {
    out = UnreadableSourceOutcome(e.what());
    return;
  }
  for (const Authenticator& a : auths_) {
    ev.auths.push_back(a.Serialize());
  }
  ev.mem_size = cfg_.mem_size;
  out.evidence = std::move(ev);
}

AuditOutcome AuditEngine::Outcome(bool end_of_log) {
  AuditOutcome out;
  if (last_ < run_.first_seq) {
    out.syntactic = CheckResult::Fail("empty segment");
    return out;
  }
  if (unreadable_.has_value()) {
    return UnreadableSourceOutcome(*unreadable_);
  }
  out.syntactic_seconds = syn_seconds_;
  out.log_bytes = LogSegment::SerializedSize(source_.node(), entry_wire_bytes_);
  out.syntactic = checker_.Finalize(end_of_log);
  if (!out.syntactic.ok) {
    AttachEvidence(out, EvidenceKind::kProtocolViolation, out.syntactic.reason);
    return out;
  }
  if (!run_.replay) {
    out.ok = true;
    return out;
  }
  if (replay_err_ != nullptr) {
    std::rethrow_exception(replay_err_);
  }
  if (end_of_log) {
    WallTimer finish_timer;
    obs::Span finish_span(obs::kPhaseAuditReplay, "audit");
    out.semantic = replayer_->Finish();
    sem_seconds_ += finish_timer.ElapsedSeconds();
  } else {
    out.semantic = replayer_->result();
  }
  out.semantic_seconds = sem_seconds_;
  out.ok = out.semantic.ok;
  if (!out.ok) {
    AttachEvidence(out, EvidenceKind::kReplayDivergence, out.semantic.reason);
  }
  return out;
}

AuditOutcome RunAuditEngine(const SegmentSource& source, std::span<const Authenticator> auths,
                            const KeyRegistry& registry, const AuditConfig& cfg, ThreadPool* pool,
                            const AuditRun& run) {
  AuditEngine engine(source, registry, cfg, pool, run);
  engine.Advance(run.last_seq, auths);
  return engine.Outcome(/*end_of_log=*/true);
}

}  // namespace avm
