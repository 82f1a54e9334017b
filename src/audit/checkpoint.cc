#include "src/audit/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <filesystem>
#include <utility>
#include <vector>

#include "src/audit/message_check.h"
#include "src/audit/pipeline.h"
#include "src/audit/replayer.h"
#include "src/avmm/recorder.h"
#include "src/avmm/snapshot.h"
#include "src/crypto/sha256.h"
#include "src/obs/trace.h"
#include "src/store/log_store.h"
#include "src/util/serde.h"
#include "src/util/threadpool.h"

namespace avm {

namespace {

constexpr char kCheckpointMagic[8] = {'A', 'V', 'M', 'C', 'K', 'P', 'T', '\n'};

Bytes SerializeCheckpointPayload(const AuditCheckpoint& cp) {
  Writer w;
  w.Str(cp.node);
  w.Str(cp.auditor);
  w.U64(cp.seq);
  w.Raw(cp.chain_hash.view());
  w.U64(cp.mem_size);
  w.Blob(cp.machine_state);
  w.Blob(cp.scan_state);
  w.U32(static_cast<uint32_t>(cp.verified_auth_hashes.size()));
  for (const auto& [seq, hash] : cp.verified_auth_hashes) {
    w.U64(seq);
    w.Raw(hash.view());
  }
  return w.Take();
}

}  // namespace

Hash256 AuditCheckpoint::PayloadDigest() const {
  return Sha256::Digest(SerializeCheckpointPayload(*this));
}

Bytes AuditCheckpoint::Serialize() const {
  Writer w;
  w.Raw(ByteView(reinterpret_cast<const uint8_t*>(kCheckpointMagic), 8));
  w.Blob(SerializeCheckpointPayload(*this));
  w.Raw(PayloadDigest().view());
  w.Blob(signature);
  return w.Take();
}

AuditCheckpoint AuditCheckpoint::Deserialize(ByteView data) {
  Reader outer(data);
  Bytes magic = outer.Raw(8);
  if (std::memcmp(magic.data(), kCheckpointMagic, 8) != 0) {
    throw SerdeError("bad audit-checkpoint magic");
  }
  Bytes payload = outer.Blob();
  Hash256 stored_digest = Hash256::FromBytes(outer.Raw(32));
  AuditCheckpoint cp;
  cp.signature = outer.Blob();
  outer.ExpectEnd();

  Reader r(payload);
  cp.node = r.Str();
  cp.auditor = r.Str();
  cp.seq = r.U64();
  cp.chain_hash = Hash256::FromBytes(r.Raw(32));
  cp.mem_size = r.U64();
  cp.machine_state = r.Blob();
  cp.scan_state = r.Blob();
  uint32_t n = r.U32();
  for (uint32_t i = 0; i < n; i++) {
    uint64_t seq = r.U64();
    cp.verified_auth_hashes[seq] = Hash256::FromBytes(r.Raw(32));
  }
  r.ExpectEnd();
  if (Sha256::Digest(payload) != stored_digest) {
    throw SerdeError("audit-checkpoint digest mismatch (file corrupt)");
  }
  return cp;
}

std::string AuditCheckpointFileName(const NodeId& auditor) {
  std::string safe = auditor;
  std::replace(safe.begin(), safe.end(), '/', '_');
  return "audit-" + safe + ".ckpt";
}

void SaveAuditCheckpoint(const std::string& dir, const AuditCheckpoint& cp, bool sync,
                         LogStore* aux_store) {
  std::filesystem::create_directories(dir);
  std::string path = (std::filesystem::path(dir) / AuditCheckpointFileName(cp.auditor)).string();
  if (aux_store != nullptr) {
    aux_store->WriteAuxFileBatched(path, cp.Serialize());
    return;
  }
  LogStore::WriteAuxFile(path, cp.Serialize(), sync);
}

std::optional<AuditCheckpoint> LoadAuditCheckpoint(const std::string& dir,
                                                   const NodeId& auditor,
                                                   std::string* reject_reason) {
  if (reject_reason != nullptr) {
    reject_reason->clear();
  }
  std::string path = (std::filesystem::path(dir) / AuditCheckpointFileName(auditor)).string();
  std::optional<Bytes> raw;
  try {
    raw = LogStore::ReadAuxFile(path);
  } catch (const std::runtime_error& e) {
    if (reject_reason != nullptr) {
      *reject_reason = std::string("checkpoint unreadable: ") + e.what();
    }
    return std::nullopt;
  }
  if (!raw.has_value()) {
    return std::nullopt;
  }
  try {
    return AuditCheckpoint::Deserialize(*raw);
  } catch (const SerdeError& e) {
    if (reject_reason != nullptr) {
      *reject_reason = std::string("checkpoint unparseable: ") + e.what();
    }
    return std::nullopt;
  }
}

namespace {

// Validated, ready-to-use resume state decoded from a checkpoint.
struct ResumeState {
  uint64_t watermark = 0;
  Hash256 chain_hash;
  MaterializedState machine;
  Bytes scan_state;
  std::map<uint64_t, Hash256> verified_auth_hashes;
};

// Validates `cp` against the log and the audit configuration. Returns
// the reason the checkpoint must be rejected, or "" with `out` filled.
// Everything in the file is untrusted input: a reject is a silent
// fall-back to a from-genesis audit, never an audit failure.
std::string ValidateCheckpoint(const AuditCheckpoint& cp, const SegmentSource& source,
                               uint64_t last, const KeyRegistry& registry,
                               const CheckpointConfig& ckpt, const AuditConfig& cfg,
                               std::span<const Authenticator> auths,
                               std::span<const size_t> relevant, ResumeState* out) {
  if (cp.node != source.node()) {
    return "checkpoint names a different node";
  }
  if (cp.auditor != ckpt.auditor) {
    return "checkpoint written by a different auditor";
  }
  // A forged checkpoint would let a tampered prefix escape verification,
  // so when the auditing identity has a real key the signature is
  // load-bearing, not optional.
  if (ckpt.signer != nullptr || registry.RequiresSignature(cp.auditor)) {
    if (!registry.VerifyDigest(cp.auditor, cp.PayloadDigest(), cp.signature)) {
      return "checkpoint signature invalid";
    }
  }
  if (cp.seq < 1 || cp.seq > last) {
    return "watermark beyond the end of the log (log rewound or foreign)";
  }
  if (cp.mem_size != cfg.mem_size) {
    return "checkpoint machine size does not match the audit config";
  }
  // The anchor: the log's stored chain hash at the watermark must still
  // be the one this auditor verified. Any prefix rewrite that
  // propagates hashes forward changes h_S and lands here; the fallback
  // genesis audit then catches the tamper itself.
  try {
    if (source.HashAt(cp.seq) != cp.chain_hash) {
      return "log chain hash at watermark changed (tamper or rewind)";
    }
  } catch (const std::exception& e) {
    return std::string("cannot read watermark entry: ") + e.what();
  }
  // Behind-watermark authenticators are re-checked against the hashes
  // recorded in the checkpoint; one we cannot resolve forces a genesis
  // audit (conservative: never changes a verdict, only costs speed).
  for (size_t idx : relevant) {
    if (auths[idx].seq <= cp.seq && cp.verified_auth_hashes.count(auths[idx].seq) == 0) {
      return "authenticator behind the watermark is not covered by the checkpoint";
    }
  }
  // Machine state: decode and authenticate against its recorded Merkle
  // root (the §4.4 rule, same as snapshot verification — Deserialize
  // rejects a state that does not hash to the root it claims).
  ResumeState rs;
  try {
    rs.machine = MaterializedState::Deserialize(cp.machine_state);
  } catch (const SerdeError& e) {
    return std::string("checkpoint machine state undecodable: ") + e.what();
  }
  if (rs.machine.memory.size() != cp.mem_size) {
    return "checkpoint memory size mismatch";
  }
  rs.watermark = cp.seq;
  rs.chain_hash = cp.chain_hash;
  rs.scan_state = cp.scan_state;
  rs.verified_auth_hashes = cp.verified_auth_hashes;
  *out = std::move(rs);
  return "";
}

// Joins an in-flight replay task on every exit path: the task captures
// stack locals by reference, so nothing may unwind past them while it
// runs.
struct ReplayTaskGuard {
  ThreadPool* pool;
  bool* in_flight;
  ~ReplayTaskGuard() {
    if (pool != nullptr && *in_flight) {
      try {
        pool->Wait();
      } catch (...) {
        // Already unwinding; the task stores its own exceptions.
      }
    }
  }
};

}  // namespace

ThreadPool* CheckpointedAuditor::EnsurePool() {
  if (pool_ == nullptr && ResolveThreads(cfg_.threads) > 1) {
    pool_ = std::make_unique<ThreadPool>(cfg_.threads);
  }
  return pool_.get();
}

AuditOutcome CheckpointedAuditor::AuditFull(const Avmm& target, const SegmentSource& source,
                                            ByteView reference_image,
                                            std::span<const Authenticator> auths,
                                            const std::string& checkpoint_dir,
                                            ResumeInfo* info) {
  ResumeInfo local_info;
  ResumeInfo& ri = info != nullptr ? *info : local_info;
  ri = ResumeInfo{};

  AuditOutcome out;
  const uint64_t last = source.LastSeq();
  if (last == 0) {
    out.syntactic = CheckResult::Fail("empty segment");
    out.ok = false;
    return out;
  }
  if (auto rewound = DetectLogRewind(target, source, auths, *registry_, cfg_.mem_size)) {
    return *std::move(rewound);
  }
  ThreadPool* pool = EnsurePool();
  const size_t chunk_entries = cfg_.pipeline_chunk_entries > 0 ? cfg_.pipeline_chunk_entries : 2048;
  const uint64_t cadence = checkpoint_dir.empty() ? 0 : ckpt_.every_entries;

  WallTimer gate_timer;  // The auth gate's RSA work is syntactic cost.
  obs::Span gate_span(obs::kPhaseAuditRsaVerify, "audit");

  // Authenticator gate + precomputed sig verdicts, exactly as the
  // pipelined full audit does: replay is only worth starting when every
  // relevant authenticator carries a valid signature, and the RSA
  // results are handed to the checker so nothing is verified twice.
  std::vector<int8_t> auth_sig_verdicts(auths.size(), -1);
  std::vector<size_t> relevant;
  for (size_t i = 0; i < auths.size(); i++) {
    if (auths[i].node == source.node() && auths[i].seq >= 1 && auths[i].seq <= last) {
      relevant.push_back(i);
    }
  }
  if (pool != nullptr) {
    pool->ParallelFor(relevant.size(), [&](size_t k) {
      auth_sig_verdicts[relevant[k]] = auths[relevant[k]].VerifySignature(*registry_) ? 1 : 0;
    });
  } else {
    for (size_t i : relevant) {
      auth_sig_verdicts[i] = auths[i].VerifySignature(*registry_) ? 1 : 0;
    }
  }
  bool replay_gate = !relevant.empty();
  for (size_t i : relevant) {
    replay_gate = replay_gate && auth_sig_verdicts[i] == 1;
  }
  const double gate_seconds = gate_timer.ElapsedSeconds();
  gate_span.End();

  // Try to resume from a persisted checkpoint.
  ResumeState resume;
  bool resumed = false;
  if (cadence > 0) {
    obs::Span load_span(obs::kPhaseAuditCheckpointIo, "audit");
    std::string reject;
    std::optional<AuditCheckpoint> cp = LoadAuditCheckpoint(checkpoint_dir, ckpt_.auditor,
                                                            &reject);
    if (cp.has_value()) {
      reject = ValidateCheckpoint(*cp, source, last, *registry_, ckpt_, cfg_, auths, relevant,
                                  &resume);
    }
    if (cp.has_value() && reject.empty()) {
      resumed = true;
    } else if (!reject.empty()) {
      ri.checkpoint_rejected = true;
      ri.reject_reason = reject;
    }
  }

  AuditConfig cfg = cfg_;
  cfg.strict_message_crossref = true;
  // The checker holds a registry reference (not assignable), so the
  // scan-state fallback below re-emplaces instead of reassigning.
  std::optional<ChunkedSyntacticChecker> checker;
  checker.emplace(source.node(), 1, last, resumed ? resume.chain_hash : Hash256::Zero(), auths,
                  *registry_, cfg, auth_sig_verdicts);
  // In-place construction: the replayer registers itself as the
  // machine's device backend, so it must never move.
  std::optional<StreamingReplayer> replayer;
  // Chain hashes at relevant authenticator seqs, accumulated for future
  // captures (seeded with the resumed checkpoint's map, which validated
  // coverage of everything behind the watermark).
  std::map<uint64_t, Hash256> auth_hashes_seen;
  uint64_t start_seq = 1;
  uint64_t last_captured = 0;
  if (resumed) {
    auth_hashes_seen = resume.verified_auth_hashes;
    try {
      Reader r(resume.scan_state);
      checker->RestoreResumableState(r, resume.watermark);
      r.ExpectEnd();
    } catch (const SerdeError& e) {
      // Scan state undecodable: rebuild everything and start cold.
      resumed = false;
      ri.checkpoint_rejected = true;
      ri.reject_reason = std::string("checkpoint scan state undecodable: ") + e.what();
      auth_hashes_seen.clear();
      checker.emplace(source.node(), 1, last, Hash256::Zero(), auths, *registry_, cfg,
                      auth_sig_verdicts);
    }
  }
  if (resumed) {
    // Authenticators at or behind the watermark never stream by;
    // resolve them against the chain hashes verified when the
    // checkpoint was written, in span order like everything else.
    for (size_t idx : relevant) {
      if (auths[idx].seq <= resume.watermark) {
        checker->ResolveAuthBehindWatermark(idx, auth_hashes_seen.at(auths[idx].seq));
      }
    }
    replayer.emplace(resume.machine);
    start_seq = resume.watermark + 1;
    last_captured = resume.watermark;
    ri.resumed = true;
    ri.resumed_from = resume.watermark;
  } else {
    replayer.emplace(reference_image, cfg_.mem_size);
  }
  replayer->mutable_machine().set_jit_enabled(cfg_.jit_replay);

  // ---- The chunked scan: syntactic + replay, checkpoints at cadence
  // boundaries. With a pool, the replay of chunk i runs on a worker
  // while this thread extracts and checks chunk i+1 (joined before the
  // replayer is fed again and at every capture point).
  //
  // Everything the replay task touches by reference is declared BEFORE
  // the join guard, so an exception unwinding this frame joins the task
  // while its captures are still alive.
  const bool overlap = pool != nullptr && cfg_.pipelined;
  std::string unreadable;
  bool have_unreadable = false;
  std::exception_ptr replay_err;
  uint64_t entry_wire_bytes = 0;
  double syn_seconds = 0;
  double sem_seconds = 0;
  LogSegment inflight;  // Owned storage for the in-flight replay task.
  bool task_in_flight = false;
  ReplayTaskGuard task_guard{pool, &task_in_flight};
  auto join_replay = [&] {
    if (task_in_flight) {
      pool->Wait();
      task_in_flight = false;
    }
  };

  uint64_t s = start_seq;
  while (s <= last) {
    uint64_t to = std::min<uint64_t>(s + chunk_entries - 1, last);
    if (cadence > 0) {
      // End the chunk exactly on the next cadence boundary, so captures
      // always see checker and replayer aligned at a multiple of the
      // cadence (the boundary itself never affects any verdict).
      uint64_t boundary = ((s + cadence - 1) / cadence) * cadence;
      to = std::min(to, std::max(boundary, s));
    }
    WallTimer syn_timer;
    obs::Span syn_span(obs::kPhaseAuditSyntactic, "audit");
    LogSegment chunk;
    try {
      chunk = source.Extract(s, to);
    } catch (const std::runtime_error& e) {
      // Same precedence as the sequential whole-segment Extract: a
      // corrupt store anywhere in range yields the unreadable outcome.
      unreadable = e.what();
      have_unreadable = true;
      break;
    }
    for (const LogEntry& e : chunk.entries) {
      entry_wire_bytes += e.WireSize();
    }
    for (size_t idx : relevant) {
      if (auths[idx].seq >= s && auths[idx].seq <= to) {
        auth_hashes_seen[auths[idx].seq] = chunk.entries[auths[idx].seq - s].hash;
      }
    }
    // With spare workers beyond the replay task, fan this chunk's
    // per-message RSA checks across the pool (identical verdicts).
    SigVerdicts smc_verdicts;
    if (pool != nullptr && pool->thread_count() > 2 && !checker->AnyFailure()) {
      smc_verdicts = PrecomputeMessageSigVerdicts(chunk, *registry_, *pool);
    }
    checker->Feed(chunk.entries, smc_verdicts);
    syn_seconds += syn_timer.ElapsedSeconds();
    syn_span.End();  // join_replay() wait time is not syntactic work.

    join_replay();
    if (replay_gate && !checker->AnyFailure() && replay_err == nullptr) {
      if (overlap) {
        inflight = std::move(chunk);
        task_in_flight = true;
        pool->Submit([&] {
          WallTimer sem_timer;
          obs::Span replay_span(obs::kPhaseAuditReplay, "audit");
          try {
            replayer->Feed(inflight.entries);
          } catch (...) {
            // A hostile log can make the replayer throw; hold the
            // exception until the syntactic verdict is known, as the
            // sequential path (which replays only after the full
            // syntactic pass) would never have run it.
            replay_err = std::current_exception();
          }
          sem_seconds += sem_timer.ElapsedSeconds();
        });
      } else {
        WallTimer sem_timer;
        obs::Span replay_span(obs::kPhaseAuditReplay, "audit");
        try {
          replayer->Feed(chunk.entries);
        } catch (...) {
          replay_err = std::current_exception();
        }
        sem_seconds += sem_timer.ElapsedSeconds();
      }
    }

    // Capture on cadence boundaries, only from a fully verified,
    // replay-quiescent state that advanced past the resumed watermark.
    if (cadence > 0 && to % cadence == 0 && to > last_captured) {
      join_replay();
      if (replay_gate && !checker->AnyFailure() && replay_err == nullptr &&
          replayer->Checkpointable()) {
        AuditCheckpoint ncp;
        ncp.node = source.node();
        ncp.auditor = ckpt_.auditor;
        ncp.seq = to;
        ncp.chain_hash = checker->chain_cursor();
        ncp.mem_size = cfg_.mem_size;
        const Machine& m = replayer->machine();
        MaterializedState ms;
        ms.cpu = m.cpu();
        ms.memory = m.ReadMemRange(0, m.mem_size());
        ms.root = ComputeStateRoot(m);
        ncp.machine_state = ms.Serialize();
        Writer w;
        checker->SerializeResumableState(w);
        ncp.scan_state = w.Take();
        ncp.verified_auth_hashes = auth_hashes_seen;
        if (ckpt_.signer != nullptr) {
          ncp.signature = ckpt_.signer->SignDigest(ncp.PayloadDigest());
        }
        // Plain-file capture is a pure optimization: a full disk or an
        // unwritable directory must cost a future resume, never this
        // verdict. A failure from the auditee's own store, though, is a
        // store-health signal (poisoned writer, failed fsync) that the
        // fleet's retry/recovery path must see — rethrow it so the job
        // errors, the owner can reopen the store, and the audit reruns
        // instead of silently losing its checkpoint cadence.
        try {
          obs::Span save_span(obs::kPhaseAuditCheckpointIo, "audit");
          SaveAuditCheckpoint(checkpoint_dir, ncp, ckpt_.sync, ckpt_.aux_store);
          last_captured = to;
          ri.checkpoints_written++;
        } catch (const std::runtime_error&) {
          if (ckpt_.aux_store != nullptr) {
            throw;
          }
        }
      }
    }
    ri.entries_scanned += to - s + 1;
    s = to + 1;
  }
  join_replay();

  // ---- Verdict assembly: bit-for-bit the pipelined/sequential
  // AuditFull composition.
  out.syntactic_seconds = syn_seconds + gate_seconds;
  if (have_unreadable) {
    out.syntactic = CheckResult::Fail(std::string("log source unreadable: ") + unreadable);
    out.ok = false;
    return out;
  }
  out.log_bytes = LogSegment::SerializedSize(source.node(), entry_wire_bytes);

  auto build_evidence = [&](EvidenceKind kind, const std::string& claim) {
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
    ev.mem_size = cfg_.mem_size;
    out.evidence = std::move(ev);
    return true;
  };

  out.syntactic = checker->Finalize();
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
  out.semantic = replayer->Finish();
  out.semantic_seconds = sem_seconds + finish_timer.ElapsedSeconds();
  finish_span.End();
  out.ok = out.semantic.ok;
  if (!out.ok) {
    build_evidence(EvidenceKind::kReplayDivergence, out.semantic.reason);
  }
  return out;
}

}  // namespace avm
