// The telemetry layer: registry counters/gauges/histograms under
// concurrency (TSan covers the sharded fast paths), golden exporter
// output, trace spans + Chrome-trace JSON, atomic file writes, and the
// acceptance bar — a recorded scenario plus its full audit produce
// bit-identical logs and verdicts with telemetry off vs. on.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "src/audit/auditor.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/scenario.h"
#include "src/store/log_store.h"
#include "src/vm/assembler.h"

namespace fs = std::filesystem;

namespace avm {
namespace {

// Restores the global telemetry gate and trace buffer around each test
// that flips them, so test order never matters.
class ObsGateGuard {
 public:
  ObsGateGuard() : was_(obs::Enabled()) {}
  ~ObsGateGuard() {
    obs::SetEnabled(was_);
    obs::ResetTrace();
  }

 private:
  bool was_;
};

TEST(ObsMetrics, CounterConcurrentIncrementsAreExact) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; i++) {
        c.Inc();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(ObsMetrics, HistogramConcurrentRecordsAreExact) {
  obs::Histogram h;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; i++) {
        h.Record(i + static_cast<uint64_t>(t));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(h.Count(), kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i < obs::Histogram::kBuckets; i++) {
    bucket_total += h.BucketCount(i);
  }
  EXPECT_EQ(bucket_total, h.Count());
  // Sum of 4 interleaved arithmetic series, exact by construction.
  uint64_t expect_sum = 0;
  for (int t = 0; t < kThreads; t++) {
    for (uint64_t i = 0; i < kPerThread; i++) {
      expect_sum += i + static_cast<uint64_t>(t);
    }
  }
  EXPECT_EQ(h.Sum(), expect_sum);
}

TEST(ObsMetrics, HistogramBucketEdges) {
  EXPECT_EQ(obs::Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(obs::Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(obs::Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(obs::Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(obs::Histogram::BucketIndex(255), 8u);
  EXPECT_EQ(obs::Histogram::BucketIndex(UINT64_MAX), obs::Histogram::kBuckets - 1);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(obs::Histogram::kBuckets - 1), UINT64_MAX);
  // Every value lands in the bucket whose inclusive upper bound covers it.
  for (uint64_t v : {0ull, 1ull, 2ull, 7ull, 8ull, 1023ull, 1024ull}) {
    const size_t i = obs::Histogram::BucketIndex(v);
    EXPECT_LE(v, obs::Histogram::BucketUpperBound(i));
    if (i > 0) {
      EXPECT_GT(v, obs::Histogram::BucketUpperBound(i - 1));
    }
  }
}

TEST(ObsRegistry, DedupesByNameAndNormalizedLabels) {
  obs::Registry reg;
  obs::Counter* a = reg.GetCounter("c", {{"x", "1"}, {"y", "2"}});
  obs::Counter* b = reg.GetCounter("c", {{"y", "2"}, {"x", "1"}});  // Same set, other order.
  EXPECT_EQ(a, b);
  EXPECT_NE(a, reg.GetCounter("c", {{"x", "1"}}));
  EXPECT_NE(a, reg.GetCounter("c2", {{"x", "1"}, {"y", "2"}}));
  a->Inc(5);
  EXPECT_EQ(b->Value(), 5u);
}

TEST(ObsRegistry, KindMismatchThrows) {
  obs::Registry reg;
  reg.GetCounter("m");
  EXPECT_THROW(reg.GetGauge("m"), std::logic_error);
  EXPECT_THROW(reg.GetHistogram("m"), std::logic_error);
  reg.GetHistogram("h");
  EXPECT_THROW(reg.GetCounter("h"), std::logic_error);
}

TEST(ObsRegistry, CallbackGaugesSumAndUnregister) {
  obs::Registry reg;
  int64_t v1 = 10, v2 = 32;
  auto find_gauge = [&reg](const std::string& name) -> const obs::MetricRow* {
    static obs::MetricsSnapshot snap;
    snap = reg.Snapshot();
    for (const obs::MetricRow& row : snap.rows) {
      if (row.name == name) {
        return &row;
      }
    }
    return nullptr;
  };
  {
    obs::Registry::CallbackHandle h1 =
        reg.RegisterCallbackGauge("depth", {}, [&v1] { return v1; });
    {
      // Duplicate key: summed into one row at snapshot time.
      obs::Registry::CallbackHandle h2 =
          reg.RegisterCallbackGauge("depth", {}, [&v2] { return v2; });
      const obs::MetricRow* row = find_gauge("depth");
      ASSERT_NE(row, nullptr);
      EXPECT_EQ(row->gauge_value, 42);
    }
    const obs::MetricRow* row = find_gauge("depth");
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->gauge_value, 10);
  }
  // Both handles released: the callback contributes nothing anymore.
  EXPECT_EQ(find_gauge("depth"), nullptr);
}

TEST(ObsExport, MetricsJsonGolden) {
  obs::Registry reg;
  reg.GetCounter("audit_jobs", {{"node", "a"}})->Inc(3);
  reg.GetGauge("lag")->Set(-7);
  obs::Histogram* h = reg.GetHistogram("lat_us");
  h->Record(0);
  h->Record(1);
  h->Record(5);
  h->Record(5);
  EXPECT_EQ(obs::MetricsJson(reg.Snapshot()),
            "[{\"name\":\"audit_jobs\",\"labels\":{\"node\":\"a\"},\"type\":\"counter\","
            "\"value\":3},"
            "{\"name\":\"lag\",\"labels\":{},\"type\":\"gauge\",\"value\":-7},"
            "{\"name\":\"lat_us\",\"labels\":{},\"type\":\"histogram\",\"count\":4,\"sum\":11,"
            "\"buckets\":[[0,1],[1,1],[7,2]]}]");
}

TEST(ObsExport, PrometheusTextGolden) {
  obs::Registry reg;
  reg.GetCounter("audit_jobs", {{"node", "a"}})->Inc(3);
  reg.GetGauge("lag")->Set(-7);
  obs::Histogram* h = reg.GetHistogram("lat_us");
  h->Record(0);
  h->Record(1);
  h->Record(5);
  h->Record(5);
  EXPECT_EQ(obs::PrometheusText(reg.Snapshot()),
            "# TYPE avm_audit_jobs counter\n"
            "avm_audit_jobs{node=\"a\"} 3\n"
            "# TYPE avm_lag gauge\n"
            "avm_lag -7\n"
            "# TYPE avm_lat_us histogram\n"
            "avm_lat_us_bucket{le=\"0\"} 1\n"
            "avm_lat_us_bucket{le=\"1\"} 2\n"
            "avm_lat_us_bucket{le=\"7\"} 4\n"
            "avm_lat_us_bucket{le=\"+Inf\"} 4\n"
            "avm_lat_us_sum 11\n"
            "avm_lat_us_count 4\n");
}

TEST(ObsExport, PrometheusSanitizesNames) {
  obs::Registry reg;
  reg.GetCounter("weird-name.metric", {{"bad key", "q\"v"}})->Inc(1);
  const std::string text = obs::PrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("avm_weird_name_metric"), std::string::npos);
  EXPECT_NE(text.find("bad_key=\"q\\\"v\""), std::string::npos);
}

TEST(ObsTrace, SpansFeedAggregatesAndRegistry) {
  ObsGateGuard guard;
  obs::SetEnabled(true);
  obs::ResetTrace();
  const uint64_t hist_before =
      obs::Registry::Global()
          .GetHistogram("span_us", {{"phase", obs::kPhaseAuditSyntactic}})
          ->Count();
  {
    obs::Span outer(obs::kPhaseAuditSyntactic, "audit");
    obs::Span inner(obs::kPhaseAuditRsaVerify, "audit");
  }
  EXPECT_EQ(obs::PhaseCount(obs::kPhaseAuditSyntactic), 1u);
  EXPECT_EQ(obs::PhaseCount(obs::kPhaseAuditRsaVerify), 1u);
  EXPECT_EQ(obs::TraceEventCount(), 2u);
  // Span end auto-feeds the span_us{phase=...} histogram.
  EXPECT_EQ(obs::Registry::Global()
                .GetHistogram("span_us", {{"phase", obs::kPhaseAuditSyntactic}})
                ->Count(),
            hist_before + 1);
  const std::string json = obs::ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"audit.syntactic\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(ObsTrace, DisabledSpansCostNothingAndEmitNothing) {
  ObsGateGuard guard;
  obs::SetEnabled(false);
  obs::ResetTrace();
  {
    obs::Span span(obs::kPhaseAuditReplay, "audit");
    EXPECT_EQ(span.End(), 0.0);
  }
  EXPECT_EQ(obs::TraceEventCount(), 0u);
  EXPECT_EQ(obs::PhaseCount(obs::kPhaseAuditReplay), 0u);
}

TEST(ObsTrace, TimeSectionMeasuresEvenWhenDisabled) {
  ObsGateGuard guard;
  obs::SetEnabled(false);
  int ran = 0;
  const double s = obs::TimeSection("bench.section", [&ran] { ran++; });
  EXPECT_EQ(ran, 1);
  EXPECT_GE(s, 0.0);
}

TEST(ObsExport, WriteFileAtomicWritesAndReportsErrors) {
  const std::string dir = (fs::path(::testing::TempDir()) / "avm_obs_atomic").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = dir + "/out.json";
  std::string error;
  ASSERT_TRUE(obs::WriteFileAtomic(path, "{\"ok\":1}\n", &error)) << error;
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "{\"ok\":1}\n");
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // No droppings on success.

  // Failure: unwritable destination reports fopen + errno, target untouched.
  error.clear();
  EXPECT_FALSE(obs::WriteFileAtomic(dir + "/no/such/dir/out.json", "x", &error));
  EXPECT_NE(error.find("fopen"), std::string::npos);
  EXPECT_FALSE(fs::exists(dir + "/no"));
  fs::remove_all(dir);
}

// The acceptance bar: telemetry observes, it never perturbs. The same
// seeded scenario recorded and fully audited with obs off vs. on must
// produce a bit-identical serialized log and identical verdicts.
TEST(ObsEquivalence, VerdictsAndLogBytesIdenticalOnOrOff) {
  ObsGateGuard guard;
  Bytes wire[2];
  std::string verdict[2];
  size_t log_entries[2] = {0, 0};
  for (int on = 0; on < 2; on++) {
    obs::SetEnabled(on != 0);
    obs::ResetTrace();
    GameScenarioConfig cfg;
    cfg.run = RunConfig::AvmmRsa768();
    cfg.num_players = 2;
    cfg.seed = 77;
    GameScenario game(cfg);
    game.Start();
    game.RunFor(2 * kMicrosPerSecond);
    game.Finish();

    LogSegment seg = game.server().log().Extract(1, game.server().log().LastSeq());
    wire[on] = seg.Serialize();
    log_entries[on] = game.server().log().size();

    AuditConfig acfg;
    acfg.mem_size = cfg.run.mem_size;
    acfg.threads = 1;
    Auditor auditor("auditor", &game.registry(), acfg);
    AuditOutcome out = auditor.AuditFull(game.server(), InMemorySegmentSource(game.server().log()),
                                         game.reference_server_image(),
                                         game.CollectAuths("server"));
    verdict[on] = out.Describe();
    EXPECT_TRUE(out.ok);
  }
  EXPECT_EQ(log_entries[0], log_entries[1]);
  EXPECT_EQ(wire[0], wire[1]) << "telemetry changed the serialized log";
  EXPECT_EQ(verdict[0], verdict[1]);
  // And with it on, the audit's phases actually showed up.
  EXPECT_GT(obs::PhaseCount(obs::kPhaseAuditSyntactic), 0u);
  EXPECT_GT(obs::PhaseCount(obs::kPhaseAuditReplay), 0u);
}

// A flush that durable_commit forces is its own phase: it runs outside
// the guest's execution and snapshot time, so without the span it would
// be unattributed record time. Without durable_commit nothing is forced
// and the phase stays empty.
TEST(ObsTrace, ForcedDurableFlushesRecordTheirWait) {
  ObsGateGuard guard;
  obs::SetEnabled(true);
  const std::string base = (fs::path(::testing::TempDir()) / "avm_obs_durable_wait").string();
  for (bool durable : {true, false}) {
    SCOPED_TRACE(durable ? "durable_commit" : "no durable_commit");
    obs::ResetTrace();
    fs::remove_all(base);
    KvScenarioConfig cfg;
    cfg.run = RunConfig::AvmmNoSig();
    cfg.run.durable_commit = durable;
    cfg.seed = 5;
    KvScenario kv(cfg);
    kv.Start();
    LogStoreOptions opts;
    opts.sync = false;
    opts.sealer_threads = 0;
    opts.group_commit.max_entries = 32;
    opts.group_commit.max_delay_ms = 0;
    std::vector<std::unique_ptr<LogStore>> stores;
    for (Avmm* node : {&kv.server(), &kv.client()}) {
      stores.push_back(LogStore::Open((fs::path(base) / node->id()).string(), node->id(), opts));
      node->SpillTo(stores.back().get());
    }
    kv.RunFor(kMicrosPerSecond);
    kv.Finish();
    const uint64_t forced = kv.server().transport().stats().durable_forced_flushes +
                            kv.client().transport().stats().durable_forced_flushes;
    EXPECT_EQ(obs::PhaseCount(obs::kPhaseTransportDurableWait), forced);
    if (durable) {
      EXPECT_GT(forced, 0u);
      EXPECT_GT(obs::PhaseSeconds(obs::kPhaseTransportDurableWait), 0.0);
    } else {
      EXPECT_EQ(forced, 0u);
      EXPECT_EQ(obs::PhaseSeconds(obs::kPhaseTransportDurableWait), 0.0);
    }
    kv.server().log().SetSink(nullptr);
    kv.client().log().SetSink(nullptr);
  }
  fs::remove_all(base);
}

// Snapshot roots have a span on each path: snapshot.take once per
// snapshot a node takes, and replay.state_root once per snapshot check
// the audit's replayer runs.
TEST(ObsTrace, SnapshotAndStateRootSpansCountEverySnapshot) {
  ObsGateGuard guard;
  obs::SetEnabled(true);
  obs::ResetTrace();
  KvScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();
  cfg.seed = 5;
  cfg.snapshot_interval = 200 * kMicrosPerMilli;
  KvScenario kv(cfg);
  kv.Start();
  kv.RunFor(kMicrosPerSecond);
  kv.Finish();
  const size_t server_snaps = IndexSnapshots(kv.server().log()).size();
  const size_t client_snaps = IndexSnapshots(kv.client().log()).size();
  EXPECT_GE(server_snaps, 5u);
  EXPECT_EQ(obs::PhaseCount(obs::kPhaseSnapshotTake), server_snaps + client_snaps);
  EXPECT_EQ(obs::PhaseCount(obs::kPhaseReplayStateRoot), 0u);

  AuditConfig acfg;
  acfg.mem_size = cfg.run.mem_size;
  acfg.threads = 1;
  Auditor auditor("kvclient", &kv.registry(), acfg);
  AuditOutcome out = auditor.AuditFull(kv.server(), InMemorySegmentSource(kv.server().log()),
                                       kv.reference_server_image(), kv.CollectAuthsForServer());
  EXPECT_TRUE(out.ok) << out.Describe();
  EXPECT_EQ(obs::PhaseCount(obs::kPhaseReplayStateRoot), server_snaps);
}

// The JIT tier publishes its translation-layer counters into the global
// registry, and telemetry must not perturb JIT execution: the same
// guest run with obs off vs. on retires bit-identical CPU state and
// memory, while the counters are visible either way (Counter::Inc is a
// relaxed fetch_add, deliberately not behind the SetEnabled gate).
TEST(ObsEquivalence, JitExecutionBitIdenticalAndCountersRegister) {
  if (!Machine::JitCompiledIn()) GTEST_SKIP() << "JIT not compiled in";
  ObsGateGuard guard;
  constexpr size_t kGuestMem = 64 * 1024;
  // Hot loop plus one self-patching store, so translation, chaining and
  // page invalidation all fire.
  Bytes image = Assemble(R"(
    movi r1, 0
    movi r2, 5000
    la r3, patch
    la r6, 0x2b100001   ; addi r1, 1 (rewrite with identical bits)
loop:
patch:
    addi r1, 1
    sw r6, [r3]
    add r4, r1
    bne r1, r2, loop
    halt
  )");
  CpuState cpu[2];
  Bytes mem[2];
  for (int on = 0; on < 2; on++) {
    obs::SetEnabled(on != 0);
    obs::ResetTrace();
    NullBackend b;
    Machine m(kGuestMem, &b);
    m.LoadImage(image);
    m.Run(100000);
    cpu[on] = m.cpu();
    mem[on] = m.ReadMemRange(0, kGuestMem);
    ASSERT_FALSE(m.faulted());
  }
  EXPECT_TRUE(cpu[0] == cpu[1]) << "telemetry perturbed JIT execution";
  EXPECT_EQ(mem[0], mem[1]);
  obs::Registry& reg = obs::Registry::Global();
  EXPECT_GT(reg.GetCounter("avm.jit.translations")->Value(), 0u);
  EXPECT_GT(reg.GetCounter("avm.jit.code_cache_bytes")->Value(), 0u);
  EXPECT_GT(reg.GetCounter("avm.jit.pages_invalidated")->Value(), 0u);
  EXPECT_GT(reg.GetCounter("avm.jit.blocks_invalidated")->Value(), 0u);
  // Present (possibly zero this run) but registered:
  reg.GetCounter("avm.jit.chain_patches");
  reg.GetCounter("avm.jit.interp_fallbacks");
  reg.GetCounter("avm.jit.selfmod_exits");
  reg.GetCounter("avm.jit.flushes");
}

}  // namespace
}  // namespace avm
