#include "src/audit/pipeline.h"

#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>

#include "src/audit/replayer.h"
#include "src/avmm/recorder.h"
#include "src/obs/trace.h"
#include "src/util/threadpool.h"

namespace avm {

ChunkedSyntacticChecker::ChunkedSyntacticChecker(const NodeId& node, uint64_t first_seq,
                                                 uint64_t last_seq, const Hash256& prior_hash,
                                                 std::span<const Authenticator> auths,
                                                 const KeyRegistry& registry,
                                                 const AuditConfig& cfg,
                                                 std::span<const int8_t> auth_sig_verdicts)
    : cfg_(cfg),
      registry_(registry),
      auths_(auths),
      auth_sig_verdicts_(auth_sig_verdicts),
      prior_hash_(prior_hash),
      auth_fail_idx_(std::numeric_limits<size_t>::max()),
      smc_(node, registry, cfg.strict_message_crossref) {
  for (size_t i = 0; i < auths.size(); i++) {
    if (auths[i].node == node && auths[i].seq >= first_seq && auths[i].seq <= last_seq) {
      auth_by_seq_.emplace(auths[i].seq, i);
      any_auth_relevant_ = true;
    }
  }
  if (cfg.attested_input) {
    attested_.emplace(node, registry);
  }
}

bool ChunkedSyntacticChecker::AnyFailure() const {
  return !chain_fail_.ok || !any_auth_relevant_ || !auth_fail_.ok || !smc_fail_.ok ||
         !attested_fail_.ok;
}

void ChunkedSyntacticChecker::Feed(std::span<const LogEntry> entries,
                                   std::span<const int8_t> smc_verdicts) {
  for (size_t i = 0; i < entries.size(); i++) {
    const LogEntry& e = entries[i];
    if (!chain_fail_.ok) {
      return;  // The verdict is fixed; later entries cannot matter.
    }
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
    CheckResult link = CheckChainLink(prior_hash_, expect_seq_, e);
    if (!link.ok) {
      chain_fail_ = link;
      return;
    }
    prior_hash_ = e.hash;
    expect_seq_++;

    // Authenticators whose seq just streamed by. Failures are recorded
    // under the authenticator's *span index*: the sequential scan
    // reports the first failing authenticator in span order, not in
    // seq order.
    auto [first, end] = auth_by_seq_.equal_range(e.seq);
    for (auto it = first; it != end; ++it) {
      CheckAuthAt(it->second, e.hash);
    }

    // The message-stream state machine; stops at its first failure (the
    // sequential scan never feeds past it). An authenticator failure
    // outranks anything these scans could report, so once one is
    // recorded their (RSA-heavy) work is moot and skipped — only the
    // chain hashing above still matters for the final verdict.
    if (auth_fail_.ok && smc_fail_.ok) {
      CheckResult r = smc_.Feed(e, i < smc_verdicts.size() ? smc_verdicts[i] : int8_t{-1});
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

void ChunkedSyntacticChecker::CheckAuthAt(size_t auth_index, const Hash256& log_hash) {
  if (auth_index >= auth_fail_idx_) {
    return;  // A smaller span index already failed.
  }
  const Authenticator& a = auths_[auth_index];
  const int8_t pre =
      auth_index < auth_sig_verdicts_.size() ? auth_sig_verdicts_[auth_index] : int8_t{-1};
  const bool sig_ok = pre >= 0 ? pre == 1 : a.VerifySignature(registry_);
  if (!sig_ok) {
    auth_fail_idx_ = auth_index;
    auth_fail_ = CheckResult::Fail("authenticator signature invalid", a.seq);
  } else if (log_hash != a.hash) {
    auth_fail_idx_ = auth_index;
    auth_fail_ =
        CheckResult::Fail("log does not match issued authenticator (tamper or fork)", a.seq);
  }
}

void ChunkedSyntacticChecker::ResolveAuthBehindWatermark(size_t auth_index,
                                                         const Hash256& log_hash) {
  CheckAuthAt(auth_index, log_hash);
}

void ChunkedSyntacticChecker::SerializeResumableState(Writer& w) const {
  smc_.SerializeState(w);
  w.U8(attested_.has_value() ? 1 : 0);
  if (attested_.has_value()) {
    attested_->SerializeState(w);
  }
}

void ChunkedSyntacticChecker::RestoreResumableState(Reader& r, uint64_t watermark_seq) {
  smc_.RestoreState(r);
  bool has_attested = r.U8() != 0;
  if (has_attested != attested_.has_value()) {
    throw SerdeError("checkpoint attested-input mode does not match the audit config");
  }
  if (attested_.has_value()) {
    attested_->RestoreState(r);
  }
  // Behave as if entries 1..watermark had been fed (they were, by the
  // audit that wrote the checkpoint): the next entry must chain from
  // the ctor's prior_hash at watermark+1, and Finalize() must not
  // mistake a fully-caught-up resume for an empty segment.
  started_ = true;
  expect_seq_ = watermark_seq + 1;
  fed_ = watermark_seq;
}

CheckResult ChunkedSyntacticChecker::Finalize() const {
  // Exactly the sequential composition: VerifyChain (prechecks + links),
  // then authenticator coverage + checks, then the message-stream scan
  // and its Finalize, then attested inputs.
  if (fed_ == 0) {
    return CheckResult::Fail("empty segment");
  }
  if (!chain_fail_.ok) {
    return chain_fail_;
  }
  if (!any_auth_relevant_) {
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

namespace {

// Bounded handoff of checked chunks from the syntactic task to the
// replaying caller. The producer always runs to the end of the source
// (readability of every chunk is part of the sequential verdict), so
// the consumer must drain until Close().
struct ChunkQueue {
  static constexpr size_t kMaxQueued = 2;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<LogSegment> ready;
  bool closed = false;
  bool aborted = false;  // Consumer gone; pushes are discarded.

  void Push(LogSegment seg) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return ready.size() < kMaxQueued || aborted; });
    if (aborted) {
      return;
    }
    ready.push_back(std::move(seg));
    cv.notify_all();
  }
  void Close() {
    std::unique_lock<std::mutex> lock(mu);
    closed = true;
    cv.notify_all();
  }
  void Abort() {
    std::unique_lock<std::mutex> lock(mu);
    aborted = true;
    cv.notify_all();
  }
  // False = producer closed and nothing left.
  bool Pop(LogSegment* out) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return !ready.empty() || closed; });
    if (ready.empty()) {
      return false;
    }
    *out = std::move(ready.front());
    ready.pop_front();
    cv.notify_all();
    return true;
  }
};

// Joins the producer task on every exit path: the task captures the
// queue, checker and result slots by reference, so if anything on the
// consumer side throws they must not be destroyed while the producer
// runs. Abort() also unblocks a producer waiting in Push().
struct PipelineJoinGuard {
  ChunkQueue* queue;
  ThreadPool* pool;
  ~PipelineJoinGuard() {
    queue->Abort();
    try {
      pool->Wait();
    } catch (...) {
      // Unwinding already; the producer swallows its own exceptions, so
      // nothing of value is lost here.
    }
  }
};

}  // namespace

AuditOutcome PipelinedStreamingAuditFull(const Avmm& target, const SegmentSource& source,
                                         ByteView reference_image,
                                         std::span<const Authenticator> auths,
                                         const KeyRegistry& registry, const AuditConfig& cfg,
                                         ThreadPool& pool) {
  if (pool.thread_count() <= 1) {
    // Submit() would run the producer inline and deadlock against the
    // bounded queue; callers must use the sequential path instead.
    throw std::logic_error("PipelinedStreamingAuditFull needs a pool with >1 threads");
  }
  const uint64_t last = source.LastSeq();
  const size_t chunk_entries = cfg.pipeline_chunk_entries > 0 ? cfg.pipeline_chunk_entries : 2048;

  // Replay gate, not a verdict: replay work is only worth starting if
  // every authenticator the verdict can depend on carries a valid
  // signature — otherwise a forged log (which anyone can chain-hash,
  // but only the accused machine can sign) would cost this auditor a
  // full replay before the syntactic check rejects it. The verdict
  // itself still comes from the checker, in sequential order; the RSA
  // results computed here are handed to the checker so no signature is
  // verified twice.
  std::vector<int8_t> auth_sig_verdicts(auths.size(), -1);
  std::vector<size_t> relevant;
  for (size_t i = 0; i < auths.size(); i++) {
    if (auths[i].node == source.node() && auths[i].seq >= 1 && auths[i].seq <= last) {
      relevant.push_back(i);
    }
  }
  // Fan the gate's RSA checks across the (otherwise still idle) pool,
  // as VerifyAgainstAuthenticators does on the materialized path.
  {
    obs::Span rsa_span(obs::kPhaseAuditRsaVerify, "audit");
    pool.ParallelFor(relevant.size(), [&](size_t k) {
      auth_sig_verdicts[relevant[k]] = auths[relevant[k]].VerifySignature(registry) ? 1 : 0;
    });
  }
  bool replay_worthwhile = !relevant.empty();
  for (size_t i : relevant) {
    replay_worthwhile = replay_worthwhile && auth_sig_verdicts[i] == 1;
  }

  AuditOutcome out;
  out.snapshot_bytes = 0;

  ChunkQueue queue;
  ChunkedSyntacticChecker checker(source.node(), 1, last, Hash256::Zero(), auths, registry, cfg,
                                  auth_sig_verdicts);
  std::string unreadable;          // Nonempty = some chunk failed to extract.
  bool have_unreadable = false;
  std::exception_ptr producer_err;  // Non-runtime_error exceptions, rethrown.
  uint64_t entry_wire_bytes = 0;
  double syn_seconds = 0;

  pool.Submit([&] {
    uint64_t s = 1;
    try {
      while (s <= last) {
        // Timed per chunk, around the extraction + checks only: time
        // blocked in Push() waiting for the replay consumer is not
        // syntactic work.
        WallTimer syn_timer;
        obs::Span syn_span(obs::kPhaseAuditSyntactic, "audit");
        const uint64_t to = std::min<uint64_t>(s + chunk_entries - 1, last);
        LogSegment chunk;
        try {
          chunk = source.Extract(s, to);
        } catch (const std::runtime_error& e) {
          // The sequential path extracts the whole range up front, so a
          // corrupt store anywhere in [1, last] yields the unreadable
          // outcome regardless of earlier check failures.
          unreadable = e.what();
          have_unreadable = true;
          break;
        }
        for (const LogEntry& e : chunk.entries) {
          entry_wire_bytes += e.WireSize();
        }
        // With spare workers beyond the producer + replayer pair, fan
        // this chunk's per-message RSA checks across the pool (same
        // precompute the materialized path uses; verdict-identical).
        // Once any failure is recorded the message scan is over — the
        // remaining chunks only need hashing, for chain/unreadable
        // precedence — so skip the (expensive) RSA precompute then.
        SigVerdicts smc_verdicts;
        if (pool.thread_count() > 2 && !checker.AnyFailure()) {
          smc_verdicts = PrecomputeMessageSigVerdicts(chunk, registry, pool);
        }
        checker.Feed(chunk.entries, smc_verdicts);
        syn_seconds += syn_timer.ElapsedSeconds();
        syn_span.End();  // Blocked time in Push() is not syntactic work.
        // Replay's result is discarded on any syntactic failure, so
        // stop shipping chunks once one is recorded (the checker still
        // scans the rest of the log: a later chain break or unreadable
        // chunk outranks the recorded failure).
        if (replay_worthwhile && !checker.AnyFailure()) {
          queue.Push(std::move(chunk));
        }
        s = to + 1;
      }
    } catch (...) {
      producer_err = std::current_exception();
    }
    queue.Close();
  });
  PipelineJoinGuard join_guard{&queue, &pool};

  StreamingReplayer replayer(reference_image, cfg.mem_size);
  replayer.mutable_machine().set_jit_enabled(cfg.jit_replay);
  std::exception_ptr replay_err;
  double sem_seconds = 0;
  {
    LogSegment chunk;
    while (queue.Pop(&chunk)) {
      if (replay_err != nullptr) {
        continue;  // Keep draining so the producer never blocks.
      }
      // Timed per chunk: time blocked in Pop() waiting for the
      // producer's syntactic work is not replay cost (symmetric with
      // the producer's syn_timer).
      WallTimer sem_timer;
      obs::Span replay_span(obs::kPhaseAuditReplay, "audit");
      try {
        replayer.Feed(chunk.entries);
      } catch (...) {
        // A hostile log can make the replayer throw (e.g. an oversized
        // DMA write). The sequential path only replays after the whole
        // syntactic check passed, so hold the exception until the
        // syntactic verdict is known.
        replay_err = std::current_exception();
      }
      sem_seconds += sem_timer.ElapsedSeconds();
    }
  }
  pool.Wait();
  if (producer_err != nullptr) {
    std::rethrow_exception(producer_err);
  }

  out.syntactic_seconds = syn_seconds;
  if (have_unreadable) {
    // Mirrors UnreadableSourceOutcome: no evidence, default semantic.
    out.syntactic = CheckResult::Fail(std::string("log source unreadable: ") + unreadable);
    out.ok = false;
    return out;
  }
  // Exact log_bytes of the sequential path.
  out.log_bytes = LogSegment::SerializedSize(source.node(), entry_wire_bytes);
  // Evidence needs the whole serialized segment; this second read can
  // hit a store that broke *after* the scan, which must still surface
  // as an unreadable outcome, not an exception (auditor.h's contract).
  auto build_evidence = [&](EvidenceKind kind, const std::string& claim) -> bool {
    Evidence ev;
    ev.kind = kind;
    ev.accused = target.id();
    ev.claim = claim;
    try {
      ev.segment = source.Extract(1, last).Serialize();
    } catch (const std::runtime_error& e) {
      out.syntactic = CheckResult::Fail(std::string("log source unreadable: ") + e.what());
      out.semantic = ReplayResult{};
      out.evidence.reset();
      out.ok = false;
      return false;
    }
    for (const Authenticator& a : auths) {
      ev.auths.push_back(a.Serialize());
    }
    ev.mem_size = cfg.mem_size;
    out.evidence = std::move(ev);
    return true;
  };

  out.syntactic = checker.Finalize();
  if (!out.syntactic.ok) {
    build_evidence(EvidenceKind::kProtocolViolation, out.syntactic.reason);
    out.ok = false;
    return out;
  }
  if (replay_err != nullptr) {
    std::rethrow_exception(replay_err);
  }

  WallTimer finish_timer;
  obs::Span finish_span(obs::kPhaseAuditReplay, "audit");
  out.semantic = replayer.Finish();
  out.semantic_seconds = sem_seconds + finish_timer.ElapsedSeconds();
  finish_span.End();
  out.ok = out.semantic.ok;
  if (!out.ok) {
    build_evidence(EvidenceKind::kReplayDivergence, out.semantic.reason);
  }
  return out;
}

}  // namespace avm
