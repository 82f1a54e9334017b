// Process-wide telemetry metrics: a registry of named counters, gauges
// and log2-bucketed latency histograms, queryable at runtime and
// exportable (src/obs/export.h) as a JSON snapshot or Prometheus text.
//
// The paper's evaluation is an accounting exercise — §6.6 splits audit
// time into syntactic vs. replay phases, §6.11 tracks online-audit lag,
// §6.7 counts traffic bytes — and the registry is where those numbers
// live at runtime instead of in per-subsystem ad-hoc Stats structs.
//
// Design constraints (the audit protocol is the product; telemetry must
// never perturb it):
//  * off the deterministic path: metrics observe, they never branch the
//    protocol. Verdicts, log bytes and the wire format are bit-identical
//    with telemetry on or off (obs_test asserts this).
//  * cheap enough for hot paths: Counter::Inc is one relaxed fetch_add
//    on a cache-line-sharded slot; Histogram::Record is two relaxed
//    fetch_adds plus a bit_width. The expensive parts (clock reads,
//    trace-event buffering) live in src/obs/trace.h behind the runtime
//    gate obs::SetEnabled.
//  * stable handles: Get* pointers stay valid for the registry's
//    lifetime, so instrumented objects cache them at construction.
//
// Existing Stats structs (Transport::Stats, Avmm::Stats, TrafficStats)
// publish into the registry as callback gauges — registered at
// construction, unregistered by the RAII handle — so their accessors
// remain the per-instance compatibility view while the registry holds
// the queryable aggregate. FleetStats migrated fully: its counters ARE
// registry counters and FleetAuditService::stats() is a read-back view.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace avm {
namespace obs {

// Label set attached to a metric, e.g. {{"node","server"}}. Kept sorted
// by key so equal sets compare equal regardless of insertion order.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Monotone counter, sharded across cache lines so concurrent writers do
// not bounce one hot line. Value() sums the shards (monotone but not a
// point-in-time atomic snapshot, which exporters do not need).
class Counter {
 public:
  static constexpr size_t kShards = 8;

  void Inc(uint64_t n = 1) {
    shards_[ShardIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };

  static size_t ShardIndex();

  std::array<Shard, kShards> shards_;
};

// Instantaneous signed value (queue depth, watermark lag, ...).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Log2-bucketed histogram for latencies/sizes: bucket i counts values v
// with bit_width(v) == i, i.e. bucket 0 holds v == 0 and bucket i holds
// 2^(i-1) <= v < 2^i. Exact count and sum are kept alongside, so means
// are exact and only quantiles are bucket-resolution approximations.
class Histogram {
 public:
  static constexpr size_t kBuckets = 40;  // Values up to 2^39-1 exact; rest clamp.

  void Record(uint64_t v) {
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  static size_t BucketIndex(uint64_t v) {
    const size_t w = static_cast<size_t>(std::bit_width(v));
    return w < kBuckets ? w : kBuckets - 1;
  }
  // Inclusive upper bound of bucket i (UINT64_MAX for the overflow
  // bucket): the "le" edge Prometheus exposition uses.
  static uint64_t BucketUpperBound(size_t i);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(size_t i) const { return buckets_[i].load(std::memory_order_relaxed); }

  // Bucket-resolution quantile estimate in [0,1]: the upper bound of the
  // bucket holding the q-th sample (0 when empty).
  uint64_t ApproxQuantile(double q) const;

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

// Point-in-time copy of one histogram, taken for a snapshot row.
struct HistogramData {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::array<uint64_t, Histogram::kBuckets> buckets{};
};

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

// One metric in a registry snapshot.
struct MetricRow {
  MetricKind kind = MetricKind::kCounter;
  std::string name;
  Labels labels;
  uint64_t counter_value = 0;
  int64_t gauge_value = 0;
  HistogramData hist;
};

struct MetricsSnapshot {
  std::vector<MetricRow> rows;  // Sorted by (name, labels).
};

// The registry. One process-wide instance (Global()); tests instantiate
// their own for golden-output determinism. All methods are thread-safe;
// callback gauges are evaluated under the registry mutex at snapshot
// and sample time, so callbacks must be cheap and must not call back
// into the same registry.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // The process-wide registry. Never destroyed (instrumented objects
  // may unregister callbacks during static teardown).
  static Registry& Global();

  // Idempotent by (name, labels): re-registration returns the existing
  // metric, so counts survive and accumulate across instances that
  // describe the same thing. Pointers remain valid for the registry's
  // lifetime. A (name, labels) key always resolves to one kind; asking
  // for the same key as a different kind throws std::logic_error.
  Counter* GetCounter(const std::string& name, Labels labels = {});
  Gauge* GetGauge(const std::string& name, Labels labels = {});
  Histogram* GetHistogram(const std::string& name, Labels labels = {});

  // Callback gauges: evaluated lazily at snapshot/sample time (how the
  // per-instance Stats structs publish without a write on their hot
  // paths). Multiple registrations under one (name, labels) key are
  // summed. The returned handle unregisters on destruction and MUST not
  // outlive the data the callback reads.
  class CallbackHandle {
   public:
    CallbackHandle() = default;
    CallbackHandle(CallbackHandle&& o) noexcept : reg_(o.reg_), id_(o.id_) { o.reg_ = nullptr; }
    CallbackHandle& operator=(CallbackHandle&& o) noexcept;
    ~CallbackHandle() { Release(); }
    void Release();

   private:
    friend class Registry;
    CallbackHandle(Registry* reg, uint64_t id) : reg_(reg), id_(id) {}
    Registry* reg_ = nullptr;
    uint64_t id_ = 0;
  };
  [[nodiscard]] CallbackHandle RegisterCallbackGauge(std::string name, Labels labels,
                                                     std::function<int64_t()> fn);

  // Consistent-enough copy of every metric (counters/histograms read
  // with relaxed loads; callback gauges evaluated now, duplicates
  // summed into their gauge row).
  MetricsSnapshot Snapshot() const;

 private:
  struct Key {
    std::string name;
    Labels labels;
    bool operator<(const Key& o) const {
      if (name != o.name) {
        return name < o.name;
      }
      return labels < o.labels;
    }
  };
  struct Slot {
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Callback {
    Key key;
    std::function<int64_t()> fn;
  };

  Slot* GetSlotLocked(const std::string& name, const Labels& labels, MetricKind kind);
  void UnregisterCallback(uint64_t id);

  mutable std::mutex mu_;
  std::map<Key, Slot> metrics_;
  std::map<uint64_t, Callback> callbacks_;
  uint64_t next_callback_id_ = 1;
};

// Sorts a label set by key (metric identity is order-independent).
Labels NormalizeLabels(Labels labels);

}  // namespace obs
}  // namespace avm

#endif  // SRC_OBS_METRICS_H_
