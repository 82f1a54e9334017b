#include "src/audit/fleet.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/avmm/recorder.h"
#include "src/obs/trace.h"
#include "src/util/threadpool.h"

namespace avm {

const char* FleetJobTypeName(FleetJobType t) {
  switch (t) {
    case FleetJobType::kFullAudit:
      return "full-audit";
    case FleetJobType::kSpotCheck:
      return "spot-check";
    case FleetJobType::kOnlinePoll:
      return "online-poll";
  }
  return "?";
}

FleetAuditService::FleetAuditService(const KeyRegistry* registry, FleetAuditConfig cfg)
    : registry_(registry), cfg_(cfg), paused_(cfg.start_paused) {
  // A fleet scales by sharding jobs; a job defaulting to "one thread
  // per core" on top of that would oversubscribe every worker. Within-
  // job pools are an explicit opt-in (cfg.audit.threads > 1).
  if (cfg_.audit.threads == 0) {
    cfg_.audit.threads = 1;
  }
  RegisterObsMetrics();
  unsigned workers = ResolveThreads(cfg_.workers);
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; i++) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void FleetAuditService::RegisterObsMetrics() {
  // Distinct {svc} label per instance: the registry is process-wide,
  // but stats() must report this service's work only.
  static std::atomic<uint64_t> next_serial{0};
  svc_label_ = std::to_string(next_serial.fetch_add(1, std::memory_order_relaxed));
  auto& reg = obs::Registry::Global();
  const obs::Labels ls{{"svc", svc_label_}};
  obs_.jobs_completed = reg.GetCounter("fleet_jobs_completed", ls);
  obs_.full_audits = reg.GetCounter("fleet_full_audits", ls);
  obs_.spot_checks = reg.GetCounter("fleet_spot_checks", ls);
  obs_.online_polls = reg.GetCounter("fleet_online_polls", ls);
  obs_.audits_resumed = reg.GetCounter("fleet_audits_resumed", ls);
  obs_.audits_cold = reg.GetCounter("fleet_audits_cold", ls);
  obs_.checkpoints_written = reg.GetCounter("fleet_checkpoints_written", ls);
  obs_.checkpoints_rejected = reg.GetCounter("fleet_checkpoints_rejected", ls);
  obs_.entries_scanned = reg.GetCounter("fleet_entries_scanned", ls);
  obs_.entries_skipped = reg.GetCounter("fleet_entries_skipped", ls);
  obs_.faults_detected = reg.GetCounter("fleet_faults_detected", ls);
  obs_.targets_rewound = reg.GetCounter("fleet_targets_rewound", ls);
  obs_.jobs_failed = reg.GetCounter("fleet_jobs_failed", ls);
  obs_.job_retries = reg.GetCounter("fleet_job_retries", ls);
  obs_.quarantines = reg.GetCounter("fleet_quarantines", ls);
  obs_.quarantine_releases = reg.GetCounter("fleet_quarantine_releases", ls);
  obs_.store_recoveries = reg.GetCounter("fleet_store_recoveries", ls);
  obs_.degraded_results = reg.GetCounter("fleet_degraded_results", ls);
  obs_.retry_backoff_us = reg.GetHistogram("fleet_retry_backoff_us", ls);
  obs_.quarantined_auditees = reg.GetGauge("fleet_quarantined_auditees", ls);
  for (int t = 0; t < 3; t++) {
    const obs::Labels lt{{"svc", svc_label_},
                         {"type", FleetJobTypeName(static_cast<FleetJobType>(t))}};
    obs_.queue_wait_us[t] = reg.GetHistogram("fleet_queue_wait_us", lt);
    obs_.service_us[t] = reg.GetHistogram("fleet_service_us", lt);
  }
}

FleetAuditService::~FleetAuditService() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
}

void FleetAuditService::RegisterAuditee(Registration reg) {
  if (reg.source == nullptr || reg.target == nullptr) {
    throw std::invalid_argument("FleetAuditService: registration needs a target and a source");
  }
  std::unique_lock<std::mutex> lock(mu_);
  auto it = auditees_.find(reg.node);
  if (it != auditees_.end() && (it->second.running || !it->second.queue.empty())) {
    throw std::logic_error("FleetAuditService: auditee has jobs in flight: " + reg.node);
  }
  Auditee& a = auditees_[reg.node];
  a.reg = std::move(reg);
  a.online.reset();  // A re-registration invalidates the online session.
}

void FleetAuditService::UpdateAuths(const NodeId& node, std::vector<Authenticator> auths) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = auditees_.find(node);
  if (it == auditees_.end()) {
    throw std::out_of_range("FleetAuditService: unknown auditee " + node);
  }
  if (it->second.running || !it->second.queue.empty()) {
    throw std::logic_error("FleetAuditService: auditee has jobs in flight: " + node);
  }
  it->second.reg.auths = std::move(auths);
}

size_t FleetAuditService::auditee_count() const {
  std::unique_lock<std::mutex> lock(mu_);
  return auditees_.size();
}

uint64_t FleetAuditService::Submit(const NodeId& node, Job job) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = auditees_.find(node);
  if (it == auditees_.end()) {
    throw std::out_of_range("FleetAuditService: unknown auditee " + node);
  }
  job.id = next_job_id_++;
  job.submit_index = submit_counter_++;
  if (obs::Enabled()) {
    job.submit_us = obs::NowMicros();
  }
  it->second.queue.push_back(job);
  outstanding_++;
  lock.unlock();
  work_cv_.notify_one();
  return job.id;
}

uint64_t FleetAuditService::SubmitFullAudit(const NodeId& node, FleetPriority priority) {
  Job j;
  j.type = FleetJobType::kFullAudit;
  j.priority = priority;
  return Submit(node, j);
}

uint64_t FleetAuditService::SubmitSpotCheck(const NodeId& node, uint64_t from_snapshot_id,
                                            uint64_t to_snapshot_id, FleetPriority priority) {
  Job j;
  j.type = FleetJobType::kSpotCheck;
  j.priority = priority;
  j.from_snapshot = from_snapshot_id;
  j.to_snapshot = to_snapshot_id;
  return Submit(node, j);
}

uint64_t FleetAuditService::SubmitOnlinePoll(const NodeId& node, FleetPriority priority) {
  Job j;
  j.type = FleetJobType::kOnlinePoll;
  j.priority = priority;
  return Submit(node, j);
}

void FleetAuditService::Resume() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void FleetAuditService::Kick() {
  work_cv_.notify_all();
}

void FleetAuditService::Rehabilitate(const NodeId& node) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = auditees_.find(node);
    if (it == auditees_.end()) {
      throw std::out_of_range("FleetAuditService: unknown auditee " + node);
    }
    Auditee& a = it->second;
    if (a.quarantined) {
      a.quarantined = false;
      obs_.quarantine_releases->Inc();
      obs_.quarantined_auditees->Add(-1);
    }
    a.consecutive_errors = 0;
    a.quarantine_until_us = 0;
    a.last_error.clear();
  }
  work_cv_.notify_all();
}

uint64_t FleetAuditService::NowUs() const {
  if (cfg_.clock) {
    return cfg_.clock();
  }
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

uint64_t FleetAuditService::NextDueLocked() const {
  uint64_t due = std::numeric_limits<uint64_t>::max();
  for (const auto& [node, a] : auditees_) {
    if (a.running || a.queue.empty() || a.quarantined) {
      // Quarantined auditees answer immediately (degraded); they never
      // make a worker wait on time.
      continue;
    }
    for (const Job& q : a.queue) {
      due = std::min(due, q.not_before_us);
    }
  }
  return due;
}

void FleetAuditService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

std::optional<FleetJobResult> FleetAuditService::Result(uint64_t job_id) const {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = results_.find(job_id);
  if (it == results_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::vector<FleetJobResult> FleetAuditService::ResultsFor(const NodeId& node) const {
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<FleetJobResult> out;
  for (const auto& [id, r] : results_) {
    if (r.node == node) {
      out.push_back(r);
    }
  }
  return out;
}

FleetStats FleetAuditService::stats() const {
  // Compatibility view over this instance's registry counters. No mu_:
  // counter reads are atomic, and the legacy contract was only ever a
  // point-in-time snapshot.
  FleetStats s;
  s.jobs_completed = obs_.jobs_completed->Value();
  s.full_audits = obs_.full_audits->Value();
  s.spot_checks = obs_.spot_checks->Value();
  s.online_polls = obs_.online_polls->Value();
  s.audits_resumed = obs_.audits_resumed->Value();
  s.audits_cold = obs_.audits_cold->Value();
  s.checkpoints_written = obs_.checkpoints_written->Value();
  s.checkpoints_rejected = obs_.checkpoints_rejected->Value();
  s.entries_scanned = obs_.entries_scanned->Value();
  s.entries_skipped = obs_.entries_skipped->Value();
  s.faults_detected = obs_.faults_detected->Value();
  s.targets_rewound = obs_.targets_rewound->Value();
  s.jobs_failed = obs_.jobs_failed->Value();
  s.job_retries = obs_.job_retries->Value();
  s.quarantines = obs_.quarantines->Value();
  s.quarantine_releases = obs_.quarantine_releases->Value();
  s.store_recoveries = obs_.store_recoveries->Value();
  s.degraded_results = obs_.degraded_results->Value();
  {
    std::unique_lock<std::mutex> lock(mu_);
    s.last_error = last_error_;
  }
  return s;
}

bool FleetAuditService::PickJob(Auditee** auditee, Job* job, bool* degraded,
                                std::string* degraded_error) {
  if (paused_) {
    return false;
  }
  const uint64_t now = NowUs();
  // Fairness policy: consider only auditees with no job in flight; for
  // each, its best queued job is the lowest (priority, submit_index).
  // Across auditees, pick the best priority; break ties by
  // least-recently-served, then by submission order (deterministic for
  // the tests regardless of worker count). Jobs still waiting out a
  // retry backoff are invisible to this pass.
  Auditee* best_a = nullptr;
  const Job* best_j = nullptr;
  size_t best_pos = 0;
  for (auto& [node, a] : auditees_) {
    if (a.running || a.queue.empty()) {
      continue;
    }
    if (a.quarantined && cfg_.retry.quarantine_release_us > 0 && a.quarantine_until_us <= now) {
      // Timed quarantine expired: the auditee gets a fresh start.
      a.quarantined = false;
      a.consecutive_errors = 0;
      obs_.quarantine_releases->Inc();
      obs_.quarantined_auditees->Add(-1);
    }
    const Job* cand = nullptr;
    size_t cand_pos = 0;
    for (size_t i = 0; i < a.queue.size(); i++) {
      const Job& q = a.queue[i];
      if (!a.quarantined && q.not_before_us > now) {
        continue;  // Quarantined jobs answer degraded immediately.
      }
      if (cand == nullptr || q.priority < cand->priority ||
          (q.priority == cand->priority && q.submit_index < cand->submit_index)) {
        cand = &q;
        cand_pos = i;
      }
    }
    if (cand == nullptr) {
      continue;
    }
    if (best_j == nullptr || cand->priority < best_j->priority ||
        (cand->priority == best_j->priority &&
         (a.last_served < best_a->last_served ||
          (a.last_served == best_a->last_served &&
           cand->submit_index < best_j->submit_index)))) {
      best_a = &a;
      best_j = cand;
      best_pos = cand_pos;
    }
  }
  if (best_j == nullptr) {
    return false;
  }
  *job = *best_j;
  best_a->queue.erase(best_a->queue.begin() + static_cast<ptrdiff_t>(best_pos));
  best_a->running = true;
  best_a->last_served = ++serve_counter_;
  *auditee = best_a;
  *degraded = best_a->quarantined;
  if (best_a->quarantined) {
    *degraded_error = "auditee quarantined after " +
                      std::to_string(best_a->consecutive_errors) +
                      " consecutive job errors; last: " + best_a->last_error;
  }
  return true;
}

FleetJobResult FleetAuditService::RunJob(Auditee& auditee, const Job& job) {
  // Snapshot what the job needs under the caller's lock discipline:
  // the registration cannot change while this auditee is `running`.
  const Registration& reg = auditee.reg;
  const KeyRegistry* registry = reg.registry != nullptr ? reg.registry : registry_;
  AuditConfig acfg = cfg_.audit;
  if (reg.mem_size != 0) {
    acfg.mem_size = reg.mem_size;
  }

  FleetJobResult r;
  r.job_id = job.id;
  r.node = reg.node;
  r.type = job.type;
  r.priority = job.priority;
  WallTimer timer;
  obs::Span span(obs::kPhaseFleetService, "fleet");
  CheckpointConfig ckpt = cfg_.checkpoint;
  ckpt.aux_store = reg.checkpoint_store;
  Auditor auditor(cfg_.auditor, registry, acfg, ckpt);
  switch (job.type) {
    case FleetJobType::kFullAudit:
      r.outcome = auditor.AuditFull(*reg.target, *reg.source, reg.reference_image, reg.auths,
                                    reg.checkpoint_dir, &r.resume);
      break;
    case FleetJobType::kSpotCheck:
      r.outcome = auditor.SpotCheck(*reg.target, *reg.source, job.from_snapshot,
                                    job.to_snapshot, reg.auths);
      break;
    case FleetJobType::kOnlinePoll: {
      if (auditee.online == nullptr) {
        auditee.online = std::make_unique<OnlineAuditor>(
            *reg.target, reg.source, ByteView(reg.reference_image), registry, acfg);
      }
      r.outcome = auditee.online->Poll(reg.auths);
      r.online_status = auditee.online->status();
      r.online_lag_entries = auditee.online->LagEntries();
      // §6.11: the fleet's view of how far behind each auditee's replay
      // is, scrapable without polling Result().
      obs::Registry::Global()
          .GetGauge("fleet_online_lag_entries",
                    {{"node", reg.node}, {"svc", svc_label_}})
          ->Set(static_cast<int64_t>(r.online_lag_entries));
      break;
    }
  }
  span.End();
  r.seconds = timer.ElapsedSeconds();
  obs_.service_us[static_cast<int>(job.type)]->Record(
      static_cast<uint64_t>(r.seconds * 1e6));
  return r;
}

void FleetAuditService::WorkerLoop() {
  for (;;) {
    Auditee* auditee = nullptr;
    Job job;
    bool degraded = false;
    std::string degraded_error;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        if (stopping_) {
          return;
        }
        if (PickJob(&auditee, &job, &degraded, &degraded_error)) {
          break;
        }
        const uint64_t due = NextDueLocked();
        if (cfg_.clock || due == std::numeric_limits<uint64_t>::max()) {
          // Nothing waiting on time, or a virtual clock whose advance
          // this thread cannot observe: sleep until Submit()/Kick().
          work_cv_.wait(lock);
        } else {
          const uint64_t now = NowUs();
          work_cv_.wait_for(lock, std::chrono::microseconds(due > now ? due - now : 1));
        }
      }
    }
    if (job.submit_us != 0) {
      obs_.queue_wait_us[static_cast<int>(job.type)]->Record(
          obs::NowMicros() - job.submit_us);
    }

    FleetJobResult result;
    bool failed = false;
    std::string error;
    if (degraded) {
      // A quarantined auditee still gets an answer for every submitted
      // job — an explicit degraded failure, never a silent pass and
      // never a hang.
      failed = true;
      error = degraded_error;
    } else {
      try {
        // The attempt timer spans the injected stall too: a slow-peer
        // stall is exactly what a per-job timeout exists to catch.
        WallTimer attempt_timer;
        FleetJobFault fault;
        if (cfg_.fault_hook) {
          fault = cfg_.fault_hook(auditee->reg.node, job.type, job.attempt);
        }
        if (fault.stall_us > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(fault.stall_us));
        }
        if (fault.fail) {
          throw std::runtime_error(fault.what.empty() ? "injected worker death" : fault.what);
        }
        result = RunJob(*auditee, job);
        const double attempt_us = attempt_timer.ElapsedSeconds() * 1e6;
        if (cfg_.retry.job_timeout_us > 0 &&
            attempt_us > static_cast<double>(cfg_.retry.job_timeout_us)) {
          failed = true;
          error = "job exceeded timeout of " + std::to_string(cfg_.retry.job_timeout_us) +
                  "us (ran " + std::to_string(static_cast<uint64_t>(attempt_us)) + "us)";
        }
      } catch (const std::exception& e) {
        // A job must never take the service (or Drain()) down with it:
        // an unwritable store, a hostile log that defeats the audit's
        // own exception handling — the job fails, the worker survives.
        failed = true;
        error = e.what();
      } catch (...) {
        failed = true;
        error = "unknown non-standard exception";
      }
    }

    if (failed && job.type == FleetJobType::kOnlinePoll) {
      // The poll may have stopped mid-chunk: the next one audits from
      // genesis. Only this worker touches a running auditee's session.
      auditee->online.reset();
    }
    const unsigned max_attempts = std::max(1u, cfg_.retry.max_attempts);
    if (failed && !degraded && job.attempt < max_attempts) {
      // Give the owner a chance to repair the auditee before the retry;
      // reopening a poisoned store does real IO, so call outside mu_
      // (the registration cannot change while the auditee is running).
      const SegmentSource* new_source = nullptr;
      LogStore* new_store = nullptr;
      if (auditee->reg.recover_source) {
        RecoveredSource rs = auditee->reg.recover_source();
        new_source = rs.source;
        new_store = rs.checkpoint_store;
      }
      double raw = static_cast<double>(cfg_.retry.backoff_initial_us) *
                   std::pow(cfg_.retry.backoff_multiplier, static_cast<double>(job.attempt - 1));
      uint64_t backoff = cfg_.retry.backoff_max_us;
      if (raw < static_cast<double>(cfg_.retry.backoff_max_us)) {
        backoff = static_cast<uint64_t>(raw);
      }
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (new_source != nullptr) {
          auditee->reg.source = new_source;
          if (new_store != nullptr) {
            auditee->reg.checkpoint_store = new_store;
          }
          auditee->online.reset();  // The online session pinned the old source.
          obs_.store_recoveries->Inc();
        }
        auditee->running = false;
        Job retry = job;
        retry.attempt++;
        retry.backoffs_us.push_back(backoff);
        retry.not_before_us = NowUs() + backoff;
        auditee->queue.push_back(std::move(retry));
        obs_.job_retries->Inc();
        obs_.retry_backoff_us->Record(backoff);
        last_error_ = error;
      }
      // outstanding_ is unchanged: the job is still in flight.
      work_cv_.notify_all();
      continue;
    }

    if (failed) {
      FleetJobResult r;
      r.job_id = job.id;
      r.node = auditee->reg.node;
      r.type = job.type;
      r.priority = job.priority;
      r.job_error = true;
      r.quarantined = degraded;
      r.error = error;
      r.outcome.ok = false;
      r.outcome.syntactic = CheckResult::Fail("audit job aborted: " + error);
      result = std::move(r);
    }
    result.attempts = job.attempt;
    result.backoffs_us = job.backoffs_us;

    {
      std::unique_lock<std::mutex> lock(mu_);
      auditee->running = false;
      result.completion_index = completion_counter_++;
      obs_.jobs_completed->Inc();
      if (failed) {
        obs_.jobs_failed->Inc();
        last_error_ = error;
        if (degraded) {
          obs_.degraded_results->Inc();
        } else {
          auditee->consecutive_errors++;
          auditee->last_error = error;
          if (cfg_.retry.quarantine_after > 0 && !auditee->quarantined &&
              auditee->consecutive_errors >= cfg_.retry.quarantine_after) {
            auditee->quarantined = true;
            auditee->quarantine_until_us =
                cfg_.retry.quarantine_release_us > 0
                    ? NowUs() + cfg_.retry.quarantine_release_us
                    : std::numeric_limits<uint64_t>::max();
            obs_.quarantines->Inc();
            obs_.quarantined_auditees->Add(1);
          }
        }
      } else {
        auditee->consecutive_errors = 0;
        auditee->last_error.clear();
      }
      switch (result.type) {
        case FleetJobType::kFullAudit:
          obs_.full_audits->Inc();
          if (result.resume.resumed) {
            obs_.audits_resumed->Inc();
            obs_.entries_skipped->Inc(result.resume.resumed_from);
          } else {
            obs_.audits_cold->Inc();
          }
          if (result.resume.checkpoint_rejected) {
            obs_.checkpoints_rejected->Inc();
          }
          obs_.checkpoints_written->Inc(result.resume.checkpoints_written);
          obs_.entries_scanned->Inc(result.resume.entries_scanned);
          if (!result.outcome.ok) {
            obs_.faults_detected->Inc();
          }
          break;
        case FleetJobType::kSpotCheck:
          obs_.spot_checks->Inc();
          if (!result.outcome.ok) {
            obs_.faults_detected->Inc();
          }
          break;
        case FleetJobType::kOnlinePoll:
          obs_.online_polls->Inc();
          if (result.online_status == OnlinePollStatus::kDiverged) {
            obs_.faults_detected->Inc();
          }
          if (result.online_status == OnlinePollStatus::kTargetRewound) {
            obs_.targets_rewound->Inc();
          }
          break;
      }
      results_[result.job_id] = std::move(result);
      outstanding_--;
      if (outstanding_ == 0) {
        idle_cv_.notify_all();
      }
    }
    // Another auditee may have become runnable while this one ran.
    work_cv_.notify_one();
  }
}

}  // namespace avm
