#include "src/chaos/fault_plan.h"

#include <cstring>

namespace avm {
namespace chaos {

FaultLayer LayerOf(FaultType t) {
  switch (t) {
    case FaultType::kNetDrop:
    case FaultType::kNetDuplicate:
    case FaultType::kNetReorder:
    case FaultType::kNetDelay:
    case FaultType::kNetPartition:
    case FaultType::kNetCorruptFrame:
      return FaultLayer::kNet;
    case FaultType::kStoreIoError:
    case FaultType::kStoreShortWrite:
    case FaultType::kStoreFsyncFail:
    case FaultType::kStoreCrashPoint:
      return FaultLayer::kStore;
    case FaultType::kAvmmCrashRestart:
    case FaultType::kAvmmEquivocate:
    case FaultType::kAvmmRewind:
    case FaultType::kAvmmOmit:
      return FaultLayer::kAvmm;
    case FaultType::kAuditWorkerDeath:
    case FaultType::kAuditSlowPeer:
    case FaultType::kAuditCorruptCheckpoint:
    case FaultType::kAuditStaleCheckpoint:
      return FaultLayer::kAudit;
  }
  return FaultLayer::kNet;
}

const char* FaultTypeName(FaultType t) {
  switch (t) {
    case FaultType::kNetDrop: return "net-drop";
    case FaultType::kNetDuplicate: return "net-duplicate";
    case FaultType::kNetReorder: return "net-reorder";
    case FaultType::kNetDelay: return "net-delay";
    case FaultType::kNetPartition: return "net-partition";
    case FaultType::kNetCorruptFrame: return "net-corrupt-frame";
    case FaultType::kStoreIoError: return "store-io-error";
    case FaultType::kStoreShortWrite: return "store-short-write";
    case FaultType::kStoreFsyncFail: return "store-fsync-fail";
    case FaultType::kStoreCrashPoint: return "store-crash";
    case FaultType::kAvmmCrashRestart: return "avmm-crash-restart";
    case FaultType::kAvmmEquivocate: return "avmm-equivocate";
    case FaultType::kAvmmRewind: return "avmm-rewind";
    case FaultType::kAvmmOmit: return "avmm-omit";
    case FaultType::kAuditWorkerDeath: return "audit-worker-death";
    case FaultType::kAuditSlowPeer: return "audit-slow-peer";
    case FaultType::kAuditCorruptCheckpoint: return "audit-corrupt-checkpoint";
    case FaultType::kAuditStaleCheckpoint: return "audit-stale-checkpoint";
  }
  return "?";
}

const char* FaultLayerName(FaultLayer l) {
  switch (l) {
    case FaultLayer::kNet: return "net";
    case FaultLayer::kStore: return "store";
    case FaultLayer::kAvmm: return "avmm";
    case FaultLayer::kAudit: return "audit";
  }
  return "?";
}

uint64_t DeriveSeed(uint64_t root, std::string_view tag) {
  // FNV-1a over the tag folded into the root, then a SplitMix64 round
  // so nearby roots/tags land far apart in the stream space.
  uint64_t h = 1469598103934665603ULL;
  for (char c : tag) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  uint64_t z = root ^ h;
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string FaultPlan::Describe() const {
  std::string out = "FaultPlan{seed=" + std::to_string(seed) + ", " +
                    std::to_string(events.size()) + " events";
  for (size_t i = 0; i < events.size(); i++) {
    const FaultEvent& e = events[i];
    out += "\n  [" + std::to_string(i) + "] " + FaultTypeName(e.type);
    const FaultTrigger& t = e.when;
    if (t.after_us != 0 || t.before_us != kNoBound) {
      out += " t=[" + std::to_string(t.after_us) + "," +
             (t.before_us == kNoBound ? std::string("inf") : std::to_string(t.before_us)) + ")";
    }
    if (t.from_seq != 0 || t.to_seq != kNoBound) {
      out += " seq=[" + std::to_string(t.from_seq) + "," +
             (t.to_seq == kNoBound ? std::string("inf") : std::to_string(t.to_seq)) + "]";
    }
    if (!t.site.empty()) out += " site=" + t.site;
    if (!t.node.empty()) out += " node=" + t.node;
    if (t.every_n > 1) out += " every=" + std::to_string(t.every_n);
    if (t.probability < 1.0) out += " p=" + std::to_string(t.probability);
    if (t.max_fires != kNoBound) out += " max=" + std::to_string(t.max_fires);
    if (e.delay_us != 0) out += " delay_us=" + std::to_string(e.delay_us);
    if (e.seq != 0) out += " target_seq=" + std::to_string(e.seq);
    if (!e.a.empty() || !e.b.empty()) out += " pair=" + e.a + "|" + e.b;
  }
  out += "}";
  return out;
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  state_.resize(plan_.events.size());
  auto& reg = obs::Registry::Global();
  for (size_t i = 0; i < plan_.events.size(); i++) {
    const FaultEvent& e = plan_.events[i];
    // Per-event stream: stable under plan edits elsewhere in the list
    // as long as (index, type) stays put.
    state_[i].rng =
        Prng(DeriveSeed(plan_.seed, std::string(FaultTypeName(e.type)) + "#" + std::to_string(i)));
    state_[i].injected = reg.GetCounter(
        "chaos_injected_faults", {{"layer", FaultLayerName(LayerOf(e.type))},
                                  {"type", FaultTypeName(e.type)}});
  }
}

bool FaultInjector::TriggerFires(size_t i, SimTime now, std::string_view site,
                                 const NodeId& node_a, const NodeId& node_b, uint64_t seq) {
  const FaultTrigger& t = plan_.events[i].when;
  EventState& st = state_[i];
  if (now < t.after_us || now >= t.before_us) return false;
  if (seq < t.from_seq || seq > t.to_seq) return false;
  if (!t.site.empty() && t.site != site) return false;
  if (!t.node.empty() && t.node != node_a && t.node != node_b) return false;
  st.occurrences++;
  if (st.fires >= t.max_fires) return false;
  if (t.every_n > 1 && (st.occurrences - 1) % t.every_n != 0) return false;
  if (t.probability < 1.0 && !st.rng.Chance(t.probability)) return false;
  st.fires++;
  st.injected->Inc();
  return true;
}

void FaultInjector::CorruptFrame(Prng& rng, Bytes* frame) {
  if (frame == nullptr || frame->empty()) return;
  // Flip 1..3 bytes with a guaranteed-nonzero xor so the frame always
  // actually changes (the transport must reject it, never crash).
  uint64_t flips = 1 + rng.Below(3);
  for (uint64_t f = 0; f < flips; f++) {
    size_t pos = static_cast<size_t>(rng.Below(frame->size()));
    (*frame)[pos] ^= static_cast<uint8_t>(rng.Next() | 1);
  }
}

NetFaultDecision FaultInjector::OnNetFrame(SimTime now, const NodeId& src, const NodeId& dst,
                                           Bytes* frame) {
  NetFaultDecision d;
  if (plan_.events.empty()) return d;
  std::lock_guard<std::mutex> lk(mu_);
  const std::string site = src + "->" + dst;
  for (size_t i = 0; i < plan_.events.size(); i++) {
    const FaultEvent& e = plan_.events[i];
    if (LayerOf(e.type) != FaultLayer::kNet) continue;
    if (e.type == FaultType::kNetPartition) {
      // Time-windowed partition; ignores the occurrence predicates (a
      // partition is a condition, not a per-frame event).
      const FaultTrigger& t = e.when;
      bool pair = (e.a.empty() && e.b.empty()) || (src == e.a && dst == e.b) ||
                  (src == e.b && dst == e.a);
      if (pair && now >= t.after_us && now < t.before_us) {
        state_[i].fires++;
        state_[i].injected->Inc();
        d.drop = true;
        return d;
      }
      continue;
    }
    if (!TriggerFires(i, now, site, src, dst, /*seq=*/0)) continue;
    switch (e.type) {
      case FaultType::kNetDrop:
        d.drop = true;
        return d;
      case FaultType::kNetDuplicate:
        d.duplicates += e.count == 0 ? 1 : e.count;
        break;
      case FaultType::kNetDelay:
        d.extra_delay_us += e.delay_us;
        break;
      case FaultType::kNetReorder:
        d.extra_delay_us += state_[i].rng.Below(e.delay_us + 1);
        break;
      case FaultType::kNetCorruptFrame:
        CorruptFrame(state_[i].rng, frame);
        break;
      default:
        break;
    }
  }
  return d;
}

StoreFaultAction FaultInjector::OnStoreSite(const NodeId& node, const StoreFaultSite& site) {
  if (plan_.events.empty()) return StoreFaultAction::kNone;
  std::lock_guard<std::mutex> lk(mu_);
  for (size_t i = 0; i < plan_.events.size(); i++) {
    const FaultEvent& e = plan_.events[i];
    if (LayerOf(e.type) != FaultLayer::kStore) continue;
    // Stores have no sim clock; triggers key on site/seq/every_n.
    if (!TriggerFires(i, /*now=*/0, site.point, node, node, site.seq)) continue;
    switch (e.type) {
      case FaultType::kStoreIoError: return StoreFaultAction::kIoError;
      case FaultType::kStoreShortWrite: return StoreFaultAction::kShortWrite;
      case FaultType::kStoreFsyncFail: return StoreFaultAction::kFsyncFail;
      case FaultType::kStoreCrashPoint: return StoreFaultAction::kCrash;
      default: break;
    }
  }
  return StoreFaultAction::kNone;
}

std::function<StoreFaultAction(const StoreFaultSite&)> FaultInjector::StoreHook(NodeId node) {
  return [this, node = std::move(node)](const StoreFaultSite& site) {
    return OnStoreSite(node, site);
  };
}

FleetJobFault FaultInjector::OnAuditJob(const NodeId& node, const char* job_type,
                                        uint64_t attempt) {
  FleetJobFault f;
  if (plan_.events.empty()) return f;
  std::lock_guard<std::mutex> lk(mu_);
  for (size_t i = 0; i < plan_.events.size(); i++) {
    const FaultEvent& e = plan_.events[i];
    if (e.type != FaultType::kAuditWorkerDeath && e.type != FaultType::kAuditSlowPeer) continue;
    // No sim clock on the audit side either; `seq` is the attempt, so
    // from_seq/to_seq express "fail the first N attempts".
    if (!TriggerFires(i, /*now=*/0, job_type, node, node, attempt)) continue;
    if (e.type == FaultType::kAuditSlowPeer) {
      f.stall_us += static_cast<uint64_t>(e.delay_us);
    } else {
      f.fail = true;
      f.what = "chaos: injected worker death (" + std::string(job_type) + " attempt " +
               std::to_string(attempt) + " on " + node + ")";
    }
  }
  return f;
}

std::vector<FaultEvent> FaultInjector::TakeDue(FaultType type, const NodeId& node, SimTime now) {
  std::vector<FaultEvent> due;
  std::lock_guard<std::mutex> lk(mu_);
  for (size_t i = 0; i < plan_.events.size(); i++) {
    const FaultEvent& e = plan_.events[i];
    EventState& st = state_[i];
    if (e.type != type || st.consumed) continue;
    const FaultTrigger& t = e.when;
    if (now < t.after_us || now >= t.before_us) continue;
    if (!t.node.empty() && t.node != node) continue;
    st.consumed = true;
    st.fires++;
    st.injected->Inc();
    due.push_back(e);
  }
  return due;
}

uint64_t FaultInjector::injected_total() const {
  std::lock_guard<std::mutex> lk(mu_);
  uint64_t total = 0;
  for (const EventState& st : state_) total += st.fires;
  return total;
}

uint64_t FaultInjector::fires(size_t event_index) const {
  std::lock_guard<std::mutex> lk(mu_);
  return state_.at(event_index).fires;
}

}  // namespace chaos
}  // namespace avm
