// Deterministic, seed-reproducible fault injection (the chaos engine).
//
// The paper's guarantee is universal: *every* misbehavior — Byzantine
// or environmental, alone or composed — must end in verifiable
// evidence or an honest verdict, never a silent pass. Single-fault
// tests (one cheat, one kill point, one partition) cannot establish
// that for compositions like crash-then-equivocate-under-partition, so
// this module makes faults a first-class, declarative input:
//
//   FaultPlan      a schedule of FaultEvents, keyed on virtual time,
//                  sequence number and call site, plus one root seed;
//   FaultInjector  the runtime that evaluates the plan at each layer's
//                  injection seam and derives all randomness from the
//                  plan seed, so any run reproduces from one number.
//
// Seams, one per layer:
//   net    SimNetwork::SetFaultInjector — drop / duplicate / reorder /
//          delay / corrupt-frame per frame, plus time-windowed
//          partitions (OnNetFrame).
//   store  LogStoreOptions::fault_hook (src/store/fault.h), the store's
//          one fault seam — IO error / short write / fsync failure /
//          simulated crash at the named write-path sites, which are
//          also the kill points (FaultInjector::StoreHook adapts a
//          plan). The hook runs on sealer and flusher threads too, so a
//          store event that names no site counts occurrences there.
//   avmm   adversary actions — equivocate / rewind / omit — applied to
//          the log an auditee *serves* (chaos::AdversarialSource
//          consumes them via TakeDue).
//   audit  FleetAuditConfig::fault_hook (src/audit/fleet.h) — worker
//          death and slow-peer stalls before each fleet job attempt
//          (FaultInjector::AuditJobHook adapts a plan); checkpoint
//          corruption/staleness events are consumed by the harness via
//          TakeDue and applied to the checkpoint files.
//
// Determinism contract: an *empty* plan consumes no randomness and
// changes no behavior — logs and verdicts are bit-for-bit those of a
// build with no injector installed. Every injected decision draws from
// a per-event Prng seeded by DeriveSeed(plan.seed, event tag), so two
// runs with the same plan make identical choices.
#ifndef SRC_CHAOS_FAULT_PLAN_H_
#define SRC_CHAOS_FAULT_PLAN_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/audit/fleet.h"
#include "src/crypto/keys.h"
#include "src/obs/metrics.h"
#include "src/store/fault.h"
#include "src/util/bytes.h"
#include "src/util/clock.h"
#include "src/util/prng.h"

namespace avm {
namespace chaos {

enum class FaultLayer : uint8_t { kNet = 0, kStore, kAvmm, kAudit };

enum class FaultType : uint8_t {
  // net
  kNetDrop = 0,
  kNetDuplicate,
  kNetReorder,   // Random extra delay in [0, delay_us] per frame.
  kNetDelay,     // Fixed extra delay of delay_us.
  kNetPartition, // Frames between a and b dropped while in the window.
  kNetCorruptFrame,
  // store (mapped onto StoreFaultAction by MakeStoreFaultHook)
  kStoreIoError,
  kStoreShortWrite,
  kStoreFsyncFail,
  kStoreCrashPoint,
  // avmm adversary (consumed by AdversarialSource::ApplyDue)
  kAvmmCrashRestart,  // Consumed by the harness: kill + reopen the auditee.
  kAvmmEquivocate,    // Serve a self-consistent fork tampered at `seq`.
  kAvmmRewind,        // Serve only the prefix up to `seq`.
  kAvmmOmit,          // Drop entry `seq`, resequence + rechain the tail.
  // audit service
  kAuditWorkerDeath,       // The job attempt dies with an exception.
  kAuditSlowPeer,          // The attempt stalls delay_us before running.
  kAuditCorruptCheckpoint, // Harness: flip bytes in the .ckpt file.
  kAuditStaleCheckpoint,   // Harness: restore an earlier .ckpt file.
};

FaultLayer LayerOf(FaultType t);
const char* FaultTypeName(FaultType t);
const char* FaultLayerName(FaultLayer l);

constexpr uint64_t kNoBound = std::numeric_limits<uint64_t>::max();

// When an event applies. All predicates must hold; defaults match
// everything. Layers without a clock (store, audit) evaluate with
// now = 0, so time windows only constrain net/avmm events.
struct FaultTrigger {
  SimTime after_us = 0;        // Fire at now >= after_us ...
  SimTime before_us = kNoBound;  // ... and now < before_us.
  uint64_t from_seq = 0;       // Site-specific ordinal (store: entry seq;
  uint64_t to_seq = kNoBound;  // audit: attempt number), inclusive.
  std::string site;            // "" = any. net: "src->dst"; store: the
                               // StoreFaultSite point; audit: job type.
  std::string node;            // "" = any node (net: either endpoint).
  uint64_t every_n = 1;        // Fire on every Nth matching occurrence.
  double probability = 1.0;    // Bernoulli per matching occurrence.
  uint64_t max_fires = kNoBound;
};

struct FaultEvent {
  FaultType type = FaultType::kNetDrop;
  FaultTrigger when;
  SimTime delay_us = 0;   // kNetDelay/kNetReorder bound; kAuditSlowPeer stall.
  uint32_t count = 1;     // kNetDuplicate: extra copies per frame.
  NodeId a, b;            // kNetPartition endpoints ("" = all pairs).
  uint64_t seq = 0;       // kAvmm*: target log seq (0 = pick from rng).
};

struct FaultPlan {
  uint64_t seed = 1;  // Root of every chaos RNG stream.
  std::vector<FaultEvent> events;

  FaultPlan& Add(FaultEvent e) {
    events.push_back(std::move(e));
    return *this;
  }
  bool empty() const { return events.empty(); }
  // One line per event — what a failing chaos test dumps next to the
  // reproducing seed.
  std::string Describe() const;
};

// One root seed → per-purpose streams that stay stable when unrelated
// consumers are added (tag-keyed, not order-keyed). Also used by the
// scenarios to derive their SimNetwork seeds.
uint64_t DeriveSeed(uint64_t root, std::string_view tag);

// What the net seam applies to one frame (zero value = untouched).
struct NetFaultDecision {
  bool drop = false;
  uint32_t duplicates = 0;    // Extra copies queued with the same latency.
  SimTime extra_delay_us = 0; // Added to the link latency (delay/reorder).
};

// Evaluates a FaultPlan at the injection seams. Thread-safe: the store
// hook runs on writer/flusher threads and the audit seam on fleet
// workers, concurrently with the (single-threaded) net seam.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }
  uint64_t seed() const { return plan_.seed; }

  // --- net seam (SimNetwork::SendFrame) -------------------------------
  // May corrupt *frame in place (kNetCorruptFrame). With an empty plan
  // this returns the zero decision without taking the lock or touching
  // any rng.
  NetFaultDecision OnNetFrame(SimTime now, const NodeId& src, const NodeId& dst,
                              Bytes* frame);

  // --- store seam -----------------------------------------------------
  // Adapter installable as LogStoreOptions::fault_hook for the store
  // holding `node`'s log. First firing store event wins.
  std::function<StoreFaultAction(const StoreFaultSite&)> StoreHook(NodeId node);
  StoreFaultAction OnStoreSite(const NodeId& node, const StoreFaultSite& site);

  // --- audit seam (FleetAuditService, before each attempt) ------------
  // Adapter installable as FleetAuditConfig::fault_hook. Inline, so that
  // only binaries that run a fleet link the fleet service.
  std::function<FleetJobFault(const NodeId&, FleetJobType, unsigned)> AuditJobHook() {
    return [this](const NodeId& node, FleetJobType type, unsigned attempt) {
      return OnAuditJob(node, FleetJobTypeName(type), attempt);
    };
  }
  FleetJobFault OnAuditJob(const NodeId& node, const char* job_type, uint64_t attempt);

  // --- avmm / harness-applied events ----------------------------------
  // Consumes (at most once each) the events of `type` targeting `node`
  // whose time window contains `now`; returns copies in plan order.
  std::vector<FaultEvent> TakeDue(FaultType type, const NodeId& node, SimTime now);

  // Total faults injected so far (all events). Zero for an empty plan —
  // what the bit-identical test asserts.
  uint64_t injected_total() const;
  uint64_t fires(size_t event_index) const;

 private:
  struct EventState {
    Prng rng{0};
    uint64_t occurrences = 0;
    uint64_t fires = 0;
    bool consumed = false;  // TakeDue() one-shot marker.
    obs::Counter* injected = nullptr;
  };

  // Evaluates event i's trigger for one occurrence at (now, site,
  // node_a/node_b, seq); on a match past every_n/probability/max_fires,
  // counts the fire and returns true. Caller holds mu_.
  bool TriggerFires(size_t i, SimTime now, std::string_view site, const NodeId& node_a,
                    const NodeId& node_b, uint64_t seq);
  void CorruptFrame(Prng& rng, Bytes* frame);

  FaultPlan plan_;
  mutable std::mutex mu_;
  std::vector<EventState> state_;
};

}  // namespace chaos
}  // namespace avm

#endif  // SRC_CHAOS_FAULT_PLAN_H_
