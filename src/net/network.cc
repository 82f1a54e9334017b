#include "src/net/network.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/chaos/fault_plan.h"

namespace avm {

void SimNetwork::AttachHost(const NodeId& id, NetworkDelegate* delegate) {
  hosts_[id] = delegate;
  auto [it, inserted] = stats_.try_emplace(id);
  if (inserted) {
    // §6.7 traffic accounting, published once per node (re-attach after
    // DetachHost reuses the same TrafficStats and gauges).
    auto& reg = obs::Registry::Global();
    const obs::Labels ls{{"node", std::string(id)}};
    TrafficStats* s = &it->second;
    auto& handles = obs_handles_[id];
    auto pub = [&](const char* name, const uint64_t* field) {
      handles.push_back(
          reg.RegisterCallbackGauge(name, ls, [field] { return static_cast<int64_t>(*field); }));
    };
    pub("net_frames_sent", &s->frames_sent);
    pub("net_bytes_sent", &s->bytes_sent);
    pub("net_frames_received", &s->frames_received);
    pub("net_bytes_received", &s->bytes_received);
    pub("net_frames_dropped", &s->frames_dropped);
  }
}

void SimNetwork::DetachHost(const NodeId& id) {
  hosts_.erase(id);
}

std::pair<NodeId, NodeId> SimNetwork::Key(const NodeId& a, const NodeId& b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

void SimNetwork::SetLinkLatency(const NodeId& a, const NodeId& b, SimTime micros) {
  link_latency_[Key(a, b)] = micros;
}

void SimNetwork::SetPartitioned(const NodeId& a, const NodeId& b, bool partitioned) {
  partitioned_[Key(a, b)] = partitioned;
}

SimTime SimNetwork::LatencyFor(const NodeId& a, const NodeId& b) const {
  auto it = link_latency_.find(Key(a, b));
  return it == link_latency_.end() ? default_latency_ : it->second;
}

void SimNetwork::SendFrame(SimTime now, const NodeId& src, const NodeId& dst, Bytes frame) {
  if (holding_) {
    held_.push_back({now, src, dst, std::move(frame)});
    return;
  }
  Send(now, src, dst, std::move(frame));
}

void SimNetwork::SendHeld(const std::vector<NodeId>& order) {
  holding_ = false;
  for (const NodeId& src : order) {
    for (HeldFrame& f : held_) {
      if (f.src == src) {
        Send(f.sent_at, f.src, f.dst, std::move(f.frame));
      }
    }
  }
  for (HeldFrame& f : held_) {
    if (std::find(order.begin(), order.end(), f.src) == order.end()) {
      Send(f.sent_at, f.src, f.dst, std::move(f.frame));
    }
  }
  held_.clear();
}

void SimNetwork::Send(SimTime now, const NodeId& src, const NodeId& dst, Bytes frame) {
  TrafficStats& s = stats_[src];
  s.frames_sent++;
  s.bytes_sent += frame.size();

  auto part = partitioned_.find(Key(src, dst));
  bool is_partitioned = part != partitioned_.end() && part->second;
  if (is_partitioned || (drop_rate_ > 0 && rng_.Chance(drop_rate_))) {
    // The frame was lost on the way to `dst`: charge the destination, so
    // per-node accounting closes (frames addressed to a node ==
    // frames_received + frames_dropped) and §6.7's totals satisfy
    // sent == received + dropped.
    stats_[dst].frames_dropped++;
    return;
  }
  chaos::NetFaultDecision fault;
  if (chaos_ != nullptr) {
    fault = chaos_->OnNetFrame(now, src, dst, &frame);
    if (fault.drop) {
      // Injected loss is charged like natural loss: to the destination.
      stats_[dst].frames_dropped++;
      return;
    }
  }
  SimTime latency = LatencyFor(src, dst) + fault.extra_delay_us;
  for (uint32_t i = 0; i < fault.duplicates; i++) {
    Bytes copy = frame;
    queue_.push(InFlight{now + latency, order_counter_++, src, dst, std::move(copy)});
  }
  queue_.push(InFlight{now + latency, order_counter_++, src, dst, std::move(frame)});
}

void SimNetwork::DeliverUntil(SimTime t) {
  while (!queue_.empty() && queue_.top().deliver_at <= t) {
    // Move the frame out instead of deep-copying the payload; top() is
    // const only to protect the heap ordering, which the immediate pop()
    // discards anyway.
    InFlight f = std::move(const_cast<InFlight&>(queue_.top()));
    queue_.pop();
    auto it = hosts_.find(f.dst);
    if (it == hosts_.end()) {
      // Host left the simulation; the frame is lost at the receiver.
      stats_[f.dst].frames_dropped++;
      continue;
    }
    TrafficStats& s = stats_[f.dst];
    s.frames_received++;
    s.bytes_received += f.frame.size();
    it->second->OnFrame(f.deliver_at, f.src, f.frame);
  }
}

SimTime SimNetwork::NextDeliveryTime() const {
  if (queue_.empty()) {
    throw std::logic_error("SimNetwork::NextDeliveryTime: queue empty");
  }
  return queue_.top().deliver_at;
}

const TrafficStats& SimNetwork::StatsFor(const NodeId& id) const {
  static const TrafficStats kEmpty;
  auto it = stats_.find(id);
  return it == stats_.end() ? kEmpty : it->second;
}

TrafficStats SimNetwork::TotalStats() const {
  TrafficStats total;
  for (const auto& [id, s] : stats_) {
    total.frames_sent += s.frames_sent;
    total.bytes_sent += s.bytes_sent;
    total.frames_received += s.frames_received;
    total.bytes_received += s.bytes_received;
    total.frames_dropped += s.frames_dropped;
  }
  return total;
}

}  // namespace avm
