// The multi-tenant audit service (§6.11, §8): one auditor responsible
// for a fleet of accountable machines.
//
// FleetAuditService registers N auditee logs (any SegmentSource — a
// live in-memory log or a store::LogStore opened from disk) and shards
// full-audit / spot-check / online-poll jobs across its worker threads
// with per-auditee fairness and priorities:
//
//  * at most one job per auditee runs at a time (jobs share the
//    auditee's checkpoint file and online session);
//  * among runnable auditees, the highest-priority queued job wins;
//    ties go to the least-recently-served auditee (round robin), so a
//    chatty auditee cannot starve the rest;
//  * full audits run Auditor::AuditFull with the auditee's checkpoint
//    directory: each one resumes from the persisted checkpoint
//    (src/audit/checkpoint) and refreshes it, so re-auditing a
//    long-lived machine costs O(new entries), not O(total log);
//  * online polls keep a persistent OnlineAuditor per auditee: one
//    audit engine run under the fleet's AuditConfig, advanced over the
//    new entries with the registration's authenticators at every poll
//    (the §6.11 lag metric), surfacing a target-log rewind as its own
//    status instead of stale progress. A failed attempt drops the
//    session, so its retry audits from genesis.
//
// Verdicts are those of the single-auditee entry points, bit for bit:
// sharding, priorities and checkpoints change only wall-clock time.
//
// Telemetry: the service's counters live in the process-wide obs
// registry (labeled {svc=<instance serial>}); FleetStats and stats()
// remain as a compatibility view read back from those counters. The
// scheduler additionally records per-job-type queue-wait and service
// -time histograms and a per-node online-lag gauge (§6.11), and the
// Export* methods write the Prometheus / JSON / Chrome-trace artifacts
// a fleet operator scrapes.
#ifndef SRC_AUDIT_FLEET_H_
#define SRC_AUDIT_FLEET_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/audit/auditor.h"
#include "src/audit/online.h"
#include "src/obs/metrics.h"

namespace avm {

enum class FleetJobType : uint8_t { kFullAudit = 0, kSpotCheck = 1, kOnlinePoll = 2 };
enum class FleetPriority : uint8_t { kHigh = 0, kNormal = 1, kLow = 2 };

const char* FleetJobTypeName(FleetJobType t);

// Injected by a test or chaos harness through
// FleetAuditConfig::fault_hook (chaos::FaultInjector::AuditJobHook
// adapts a fault plan): what should happen to this job attempt before
// the audit itself runs.
struct FleetJobFault {
  bool fail = false;      // Kill the attempt (worker survives, job retries).
  uint64_t stall_us = 0;  // Slow-peer stall before the attempt runs.
  std::string what;       // Error string when fail is set.
};

// What a Registration::recover_source callback hands back after
// repairing a broken auditee (typically: reopen a poisoned LogStore).
// A null source means "nothing to recover, retry against the old one".
struct RecoveredSource {
  const SegmentSource* source = nullptr;
  LogStore* checkpoint_store = nullptr;  // Null keeps the old store.
};

// Self-healing policy. The defaults retry transient job errors a couple
// of times with exponential backoff and never quarantine; a fleet that
// wants fail-fast sets max_attempts = 1. Retries apply only to *job
// errors* (exceptions, injected faults, timeouts) — an audit that runs
// to completion and returns a failing verdict is evidence, not an
// error, and is never retried.
struct FleetRetryPolicy {
  unsigned max_attempts = 3;            // Total attempts per job (>= 1).
  uint64_t backoff_initial_us = 10'000; // Delay before attempt 2.
  double backoff_multiplier = 2.0;      // Exponential growth per retry.
  uint64_t backoff_max_us = 5'000'000;  // Backoff ceiling.
  uint64_t job_timeout_us = 0;          // 0 = no per-job timeout. A job whose
                                        // attempt ran longer than this counts
                                        // as failed and retries.
  unsigned quarantine_after = 0;        // Consecutive job errors before the
                                        // auditee is quarantined (0 = never).
  uint64_t quarantine_release_us = 0;   // Auto-release after this long
                                        // (0 = only Rehabilitate() releases).
};

struct FleetAuditConfig {
  // Service worker threads (0 = one per hardware thread). Sharding
  // whole jobs across workers is the scaling axis; within one job the
  // audit runs with `audit.threads` (defaulted to 1 here, so a fleet
  // does not multiply thread counts unless explicitly asked to).
  unsigned workers = 2;
  // The service's auditing identity: every job's Auditor runs as it, so
  // it names (and, with checkpoint.signer, signs) the checkpoint files.
  NodeId auditor = "auditor";
  AuditConfig audit;
  // Full audits resume from (and refresh) per-auditee checkpoints when
  // the registration names a checkpoint directory; every_entries = 0
  // turns both off.
  CheckpointConfig checkpoint;
  // Start with the scheduler paused: jobs queue but none runs until
  // Resume(). Lets a caller submit a whole batch and observe the
  // fairness policy deterministically (tests do).
  bool start_paused = false;
  // Retry / timeout / quarantine policy (see FleetRetryPolicy).
  FleetRetryPolicy retry;
  // Virtual clock in microseconds for backoff and quarantine deadlines.
  // Null = steady_clock. With a virtual clock the workers cannot sleep
  // until a deadline, so advance the clock and Kick() to re-probe.
  std::function<uint64_t()> clock;
  // Fault seam, consulted before every job attempt: (node, job type,
  // attempt number starting at 1) -> fault. Unset or a hook over an
  // empty chaos plan is behaviorally identical to no seam.
  std::function<FleetJobFault(const NodeId&, FleetJobType, unsigned)> fault_hook;
};

struct FleetJobResult {
  uint64_t job_id = 0;
  NodeId node;  // Registration key (unique across the fleet).
  FleetJobType type = FleetJobType::kFullAudit;
  FleetPriority priority = FleetPriority::kNormal;

  // Every job's verdict: an online poll's is that of the prefix
  // audited so far (see OnlineAuditor::Poll).
  AuditOutcome outcome;
  ResumeInfo resume;  // Full audits.

  // Online polls.
  OnlinePollStatus online_status = OnlinePollStatus::kIdle;
  uint64_t online_lag_entries = 0;

  double seconds = 0;
  // Global completion order (0-based): what the fairness tests assert.
  uint64_t completion_index = 0;

  // Robustness fields. A job that never produced a verdict (worker
  // exception, injected fault, timeout, quarantine) reports job_error
  // with the reason in `error`; outcome.ok is false and the syntactic
  // check carries the same string, so a caller that only looks at the
  // verdict still sees an honest failure — never a silent pass.
  bool job_error = false;
  bool quarantined = false;  // Result produced by quarantine, not by an audit.
  std::string error;
  unsigned attempts = 1;               // Attempts consumed (1 = first try).
  std::vector<uint64_t> backoffs_us;   // Backoff applied before each retry.
};

struct FleetStats {
  uint64_t jobs_completed = 0;
  uint64_t full_audits = 0;
  uint64_t spot_checks = 0;
  uint64_t online_polls = 0;
  uint64_t audits_resumed = 0;       // Full audits that resumed from a checkpoint.
  uint64_t audits_cold = 0;          // Full audits from genesis.
  uint64_t checkpoints_written = 0;
  uint64_t checkpoints_rejected = 0; // Invalid/forged/stale checkpoint files.
  uint64_t entries_scanned = 0;      // Entries actually read + verified.
  uint64_t entries_skipped = 0;      // Entries behind accepted checkpoints.
  uint64_t faults_detected = 0;      // Failed audits and failed online polls.
  uint64_t targets_rewound = 0;      // Online polls that saw the log shrink.
  uint64_t jobs_failed = 0;          // Jobs that exhausted every attempt.
  uint64_t job_retries = 0;          // Attempts re-queued after a job error.
  uint64_t quarantines = 0;          // Auditees quarantined.
  uint64_t quarantine_releases = 0;  // Auto-releases + Rehabilitate() calls.
  uint64_t store_recoveries = 0;     // recover_source() swaps that took effect.
  uint64_t degraded_results = 0;     // Results answered by quarantine status.
  std::string last_error;            // Most recent job-error string.
};

class FleetAuditService {
 public:
  struct Registration {
    NodeId node;                        // Fleet-unique key (may differ from
                                        // source->node() when scenarios collide).
    const Avmm* target = nullptr;       // Machine endpoint (evidence identity,
                                        // snapshots for spot checks).
    const SegmentSource* source = nullptr;
    Bytes reference_image;
    std::vector<Authenticator> auths;
    std::string checkpoint_dir;         // "" = stateless (no resume/capture).
    // When set, checkpoint captures for this auditee are written through
    // the store's batched-fsync path (CheckpointConfig::aux_store),
    // typically the LogStore that owns checkpoint_dir.
    LogStore* checkpoint_store = nullptr;
    const KeyRegistry* registry = nullptr;  // null = the service default.
    size_t mem_size = 0;                // 0 = the service's audit.mem_size.
    // Called (without the service lock) before a failed job retries:
    // the owner may repair the auditee — typically reopen a poisoned
    // LogStore — and return the replacement source/store. Returning a
    // null source leaves the registration untouched.
    std::function<RecoveredSource()> recover_source;
  };

  explicit FleetAuditService(const KeyRegistry* registry, FleetAuditConfig cfg = {});
  ~FleetAuditService();
  FleetAuditService(const FleetAuditService&) = delete;
  FleetAuditService& operator=(const FleetAuditService&) = delete;

  // Registration and auth refresh are rejected while jobs for the node
  // are queued or running (throws std::logic_error), so a job never
  // observes a half-updated registration.
  void RegisterAuditee(Registration reg);
  void UpdateAuths(const NodeId& node, std::vector<Authenticator> auths);
  size_t auditee_count() const;

  // Enqueue jobs; returns a job id resolvable via Result() after
  // Drain() (or once the job completed).
  uint64_t SubmitFullAudit(const NodeId& node, FleetPriority priority = FleetPriority::kNormal);
  uint64_t SubmitSpotCheck(const NodeId& node, uint64_t from_snapshot_id,
                           uint64_t to_snapshot_id,
                           FleetPriority priority = FleetPriority::kNormal);
  uint64_t SubmitOnlinePoll(const NodeId& node, FleetPriority priority = FleetPriority::kHigh);

  // Unpauses a service constructed with start_paused (no-op otherwise).
  void Resume();

  // Wakes every worker to re-probe the queues. Needed after advancing a
  // virtual clock (cfg.clock) past a backoff or quarantine deadline —
  // workers cannot sleep on a clock they cannot observe advancing.
  void Kick();

  // Manually releases a quarantined auditee and clears its error
  // streak. Throws std::out_of_range for an unknown node.
  void Rehabilitate(const NodeId& node);

  // Blocks until every submitted job has completed.
  void Drain();

  std::optional<FleetJobResult> Result(uint64_t job_id) const;
  std::vector<FleetJobResult> ResultsFor(const NodeId& node) const;
  // Compatibility view: rebuilt from this instance's registry counters.
  FleetStats stats() const;

 private:
  struct Job {
    uint64_t id = 0;
    FleetJobType type = FleetJobType::kFullAudit;
    FleetPriority priority = FleetPriority::kNormal;
    uint64_t from_snapshot = 0, to_snapshot = 0;  // Spot checks.
    uint64_t submit_index = 0;  // FIFO tiebreak within one priority.
    uint64_t submit_us = 0;     // Queue-wait stamp (0 when telemetry is off).
    unsigned attempt = 1;       // 1-based attempt number.
    uint64_t not_before_us = 0; // Backoff deadline (NowUs clock domain).
    std::vector<uint64_t> backoffs_us;  // Backoffs applied so far.
  };

  struct Auditee {
    Registration reg;
    std::deque<Job> queue;  // Submission order; scheduler picks by priority.
    bool running = false;
    uint64_t last_served = 0;  // Serve counter for round robin.
    // Persistent online session (lazily created, survives polls).
    std::unique_ptr<OnlineAuditor> online;
    // Quarantine state (see FleetRetryPolicy).
    unsigned consecutive_errors = 0;
    bool quarantined = false;
    uint64_t quarantine_until_us = 0;
    std::string last_error;
  };

  uint64_t Submit(const NodeId& node, Job job);
  void RegisterObsMetrics();
  void WorkerLoop();
  // Under mu_: picks (auditee, job) per the fairness policy, or returns
  // false when nothing is runnable. Jobs whose backoff deadline has not
  // passed are skipped; a quarantined auditee's job is returned with
  // *degraded set (the caller answers it without running an audit) and
  // the quarantine explanation in *degraded_error.
  bool PickJob(Auditee** auditee, Job* job, bool* degraded, std::string* degraded_error);
  FleetJobResult RunJob(Auditee& auditee, const Job& job);
  // Current time on the configured clock (cfg_.clock or steady_clock).
  uint64_t NowUs() const;
  // Under mu_: earliest backoff/quarantine deadline among queued jobs,
  // or UINT64_MAX when nothing is waiting on time.
  uint64_t NextDueLocked() const;

  const KeyRegistry* registry_;
  FleetAuditConfig cfg_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // New work or shutdown.
  std::condition_variable idle_cv_;   // outstanding_ reached 0.
  std::map<NodeId, Auditee> auditees_;
  std::map<uint64_t, FleetJobResult> results_;
  uint64_t next_job_id_ = 1;
  uint64_t submit_counter_ = 0;
  uint64_t serve_counter_ = 0;
  uint64_t completion_counter_ = 0;
  size_t outstanding_ = 0;  // Queued + running jobs.
  bool stopping_ = false;
  bool paused_ = false;

  // The FleetStats fields, migrated onto the process-wide registry.
  // Each service instance gets a distinct {svc=<serial>} label so two
  // services in one process don't share counters; stats() reads these
  // back into the legacy struct. Registry slots are leaked-by-design
  // (Registry::Global() outlives every service), so raw pointers are
  // safe for the service's lifetime.
  struct ObsMetrics {
    obs::Counter* jobs_completed = nullptr;
    obs::Counter* full_audits = nullptr;
    obs::Counter* spot_checks = nullptr;
    obs::Counter* online_polls = nullptr;
    obs::Counter* audits_resumed = nullptr;
    obs::Counter* audits_cold = nullptr;
    obs::Counter* checkpoints_written = nullptr;
    obs::Counter* checkpoints_rejected = nullptr;
    obs::Counter* entries_scanned = nullptr;
    obs::Counter* entries_skipped = nullptr;
    obs::Counter* faults_detected = nullptr;
    obs::Counter* targets_rewound = nullptr;
    // Self-healing (chaos-sweep) instrumentation.
    obs::Counter* jobs_failed = nullptr;
    obs::Counter* job_retries = nullptr;
    obs::Counter* quarantines = nullptr;
    obs::Counter* quarantine_releases = nullptr;
    obs::Counter* store_recoveries = nullptr;
    obs::Counter* degraded_results = nullptr;
    obs::Histogram* retry_backoff_us = nullptr;
    obs::Gauge* quarantined_auditees = nullptr;
    // Scheduler health, indexed by FleetJobType.
    obs::Histogram* queue_wait_us[3] = {nullptr, nullptr, nullptr};
    obs::Histogram* service_us[3] = {nullptr, nullptr, nullptr};
  };
  ObsMetrics obs_;
  std::string svc_label_;
  std::string last_error_;  // Under mu_; surfaced via stats().

  std::vector<std::thread> workers_;
};

}  // namespace avm

#endif  // SRC_AUDIT_FLEET_H_
