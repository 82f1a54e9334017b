// Event-driven simulated network. Stands in for the paper's testbed LAN
// (three workstations on a GbE switch): per-link propagation latency,
// optional loss, and per-node traffic accounting (§6.7's metric).
//
// Assumption 1 of §4.1 (messages are eventually received if retransmitted
// sufficiently often) holds here as long as the drop rate is < 1; the
// transport layer in avmm/ does the retransmitting.
#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <cstdint>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "src/crypto/keys.h"
#include "src/obs/metrics.h"
#include "src/util/bytes.h"
#include "src/util/clock.h"
#include "src/util/prng.h"

namespace avm {

namespace chaos {
class FaultInjector;  // src/chaos/fault_plan.h
}

// A host's receive hook.
class NetworkDelegate {
 public:
  virtual ~NetworkDelegate() = default;
  virtual void OnFrame(SimTime now, const NodeId& src, ByteView frame) = 0;
};

struct TrafficStats {
  uint64_t frames_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t frames_received = 0;
  uint64_t bytes_received = 0;
  // Frames addressed to this node that never arrived (partition, random
  // drop, or the host detached before delivery). Charged to the
  // *destination*, so per node: frames addressed to it ==
  // frames_received + frames_dropped, and globally (§6.7's totals)
  // frames_sent == frames_received + frames_dropped.
  uint64_t frames_dropped = 0;
};

class SimNetwork {
 public:
  explicit SimNetwork(uint64_t seed = 1) : rng_(seed) {}

  void AttachHost(const NodeId& id, NetworkDelegate* delegate);
  void DetachHost(const NodeId& id);

  // Default latency applies to every link unless overridden.
  void SetDefaultLatency(SimTime micros) { default_latency_ = micros; }
  void SetLinkLatency(const NodeId& a, const NodeId& b, SimTime micros);
  // Probability in [0,1) that any given frame is silently dropped.
  void SetDropRate(double p) { drop_rate_ = p; }
  // Simulates a partition: frames between a and b are dropped while set.
  void SetPartitioned(const NodeId& a, const NodeId& b, bool partitioned);
  // Chaos seam: every SendFrame consults `injector` (may drop,
  // duplicate, delay/reorder or corrupt the frame, or enforce a
  // time-windowed partition). Null (the default) and an injector with
  // an empty plan are behaviorally identical to no injector at all —
  // same frames, same order, same rng_ stream.
  void SetFaultInjector(chaos::FaultInjector* injector) { chaos_ = injector; }

  // Schedules delivery of `frame` from src to dst at now + latency.
  // While the network holds (Hold()), the frame waits for SendHeld().
  void SendFrame(SimTime now, const NodeId& src, const NodeId& dst, Bytes frame);

  // Holds every frame handed to SendFrame, with its send time, until
  // SendHeld(). A driver that runs its hosts' work in two passes per
  // turn holds between them, so the loss and chaos draws and the
  // delivery tie-breaks see frames in the order a host-by-host turn
  // sends them.
  void Hold() { holding_ = true; }
  // Ends the hold and sends the held frames grouped by source in
  // `order` (sources not in it last), each source's frames in the order
  // it handed them over.
  void SendHeld(const std::vector<NodeId>& order);

  // Delivers every frame scheduled at or before `t`, in timestamp order.
  void DeliverUntil(SimTime t);

  bool HasPending() const { return !queue_.empty(); }
  SimTime NextDeliveryTime() const;

  const TrafficStats& StatsFor(const NodeId& id) const;
  TrafficStats TotalStats() const;

 private:
  struct InFlight {
    SimTime deliver_at;
    uint64_t order;  // FIFO tiebreaker for equal timestamps.
    NodeId src, dst;
    Bytes frame;
    bool operator>(const InFlight& o) const {
      if (deliver_at != o.deliver_at) {
        return deliver_at > o.deliver_at;
      }
      return order > o.order;
    }
  };

  struct HeldFrame {
    SimTime sent_at;
    NodeId src, dst;
    Bytes frame;
  };

  void Send(SimTime now, const NodeId& src, const NodeId& dst, Bytes frame);
  SimTime LatencyFor(const NodeId& a, const NodeId& b) const;
  static std::pair<NodeId, NodeId> Key(const NodeId& a, const NodeId& b);

  std::map<NodeId, NetworkDelegate*> hosts_;
  // std::map values have stable addresses, so the per-node obs callback
  // gauges registered at AttachHost may point into this map. Stats
  // survive DetachHost (tests read them afterwards); the handles
  // unregister when the network is destroyed.
  std::map<NodeId, TrafficStats> stats_;
  std::map<NodeId, std::vector<obs::Registry::CallbackHandle>> obs_handles_;
  std::map<std::pair<NodeId, NodeId>, SimTime> link_latency_;
  std::map<std::pair<NodeId, NodeId>, bool> partitioned_;
  std::priority_queue<InFlight, std::vector<InFlight>, std::greater<>> queue_;
  SimTime default_latency_ = 96;  // One-way; 192 µs RTT like the paper's LAN.
  double drop_rate_ = 0.0;
  uint64_t order_counter_ = 0;
  bool holding_ = false;
  std::vector<HeldFrame> held_;
  Prng rng_;
  chaos::FaultInjector* chaos_ = nullptr;
};

}  // namespace avm

#endif  // SRC_NET_NETWORK_H_
