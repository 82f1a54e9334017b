#include "src/obs/metrics.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <thread>

namespace avm {
namespace obs {

size_t Counter::ShardIndex() {
  // Thread-local slot derived once from the thread id: spreads
  // concurrent writers across cache lines without coordination.
  static thread_local const size_t slot =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
  return slot;
}

uint64_t Histogram::BucketUpperBound(size_t i) {
  if (i + 1 >= kBuckets) {
    return std::numeric_limits<uint64_t>::max();
  }
  return (uint64_t{1} << i) - 1;  // Largest v with bit_width(v) == i.
}

uint64_t Histogram::ApproxQuantile(double q) const {
  const uint64_t n = Count();
  if (n == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(n - 1));
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; i++) {
    seen += BucketCount(i);
    if (seen > rank) {
      return BucketUpperBound(i);
    }
  }
  return BucketUpperBound(kBuckets - 1);
}

Labels NormalizeLabels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

Registry& Registry::Global() {
  // Intentionally leaked: instrumented objects with static storage
  // duration unregister callbacks during teardown, after which a
  // destroyed registry would be a use-after-free.
  static Registry* g = new Registry();
  return *g;
}

Registry::Slot* Registry::GetSlotLocked(const std::string& name, const Labels& labels,
                                        MetricKind kind) {
  Key key{name, labels};
  auto it = metrics_.find(key);
  if (it == metrics_.end()) {
    Slot slot;
    slot.kind = kind;
    switch (kind) {
      case MetricKind::kCounter:
        slot.counter = std::make_unique<Counter>();
        break;
      case MetricKind::kGauge:
        slot.gauge = std::make_unique<Gauge>();
        break;
      case MetricKind::kHistogram:
        slot.histogram = std::make_unique<Histogram>();
        break;
    }
    it = metrics_.emplace(std::move(key), std::move(slot)).first;
  } else if (it->second.kind != kind) {
    throw std::logic_error("obs: metric '" + name + "' re-registered as a different kind");
  }
  return &it->second;
}

Counter* Registry::GetCounter(const std::string& name, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetSlotLocked(name, NormalizeLabels(std::move(labels)), MetricKind::kCounter)
      ->counter.get();
}

Gauge* Registry::GetGauge(const std::string& name, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetSlotLocked(name, NormalizeLabels(std::move(labels)), MetricKind::kGauge)->gauge.get();
}

Histogram* Registry::GetHistogram(const std::string& name, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetSlotLocked(name, NormalizeLabels(std::move(labels)), MetricKind::kHistogram)
      ->histogram.get();
}

Registry::CallbackHandle& Registry::CallbackHandle::operator=(CallbackHandle&& o) noexcept {
  if (this != &o) {
    Release();
    reg_ = o.reg_;
    id_ = o.id_;
    o.reg_ = nullptr;
  }
  return *this;
}

void Registry::CallbackHandle::Release() {
  if (reg_ != nullptr) {
    reg_->UnregisterCallback(id_);
    reg_ = nullptr;
  }
}

Registry::CallbackHandle Registry::RegisterCallbackGauge(std::string name, Labels labels,
                                                         std::function<int64_t()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_callback_id_++;
  callbacks_[id] = Callback{Key{std::move(name), NormalizeLabels(std::move(labels))},
                            std::move(fn)};
  return CallbackHandle(this, id);
}

void Registry::UnregisterCallback(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  callbacks_.erase(id);
}

MetricsSnapshot Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Callback gauges first, summed per key; merged with stored metrics
  // below so a key is one row no matter how it is fed.
  std::map<Key, int64_t> cb_sums;
  for (const auto& [id, cb] : callbacks_) {
    (void)id;
    cb_sums[cb.key] += cb.fn();
  }

  MetricsSnapshot snap;
  snap.rows.reserve(metrics_.size() + cb_sums.size());
  for (const auto& [key, slot] : metrics_) {
    MetricRow row;
    row.kind = slot.kind;
    row.name = key.name;
    row.labels = key.labels;
    switch (slot.kind) {
      case MetricKind::kCounter:
        row.counter_value = slot.counter->Value();
        break;
      case MetricKind::kGauge: {
        row.gauge_value = slot.gauge->Value();
        auto cb = cb_sums.find(key);
        if (cb != cb_sums.end()) {
          row.gauge_value += cb->second;
          cb_sums.erase(cb);
        }
        break;
      }
      case MetricKind::kHistogram: {
        row.hist.count = slot.histogram->Count();
        row.hist.sum = slot.histogram->Sum();
        for (size_t i = 0; i < Histogram::kBuckets; i++) {
          row.hist.buckets[i] = slot.histogram->BucketCount(i);
        }
        break;
      }
    }
    snap.rows.push_back(std::move(row));
  }
  for (const auto& [key, value] : cb_sums) {
    MetricRow row;
    row.kind = MetricKind::kGauge;
    row.name = key.name;
    row.labels = key.labels;
    row.gauge_value = value;
    snap.rows.push_back(std::move(row));
  }
  std::sort(snap.rows.begin(), snap.rows.end(), [](const MetricRow& a, const MetricRow& b) {
    if (a.name != b.name) {
      return a.name < b.name;
    }
    return a.labels < b.labels;
  });
  return snap;
}

}  // namespace obs
}  // namespace avm
