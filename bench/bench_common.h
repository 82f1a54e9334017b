// Shared helpers for the paper-reproduction bench binaries.
//
// Each bench prints the rows/series of one table or figure from the
// paper's evaluation (§6). Absolute numbers differ from the paper's
// testbed (AVM-32 interpreter vs. real hardware + VMware); the *shape* of
// each result is what EXPERIMENTS.md compares.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/avmm/config.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace avm {

// Machine-readable results: BENCH_<name>.json in the working directory,
// one {metric, value, unit} row per Add() call, so the perf trajectory
// can be tracked PR-over-PR without scraping the human-readable tables.
// Written atomically (tmp + rename) so a crashed bench never leaves a
// truncated JSON for the trajectory scraper to choke on.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}
  ~BenchJson() { Write(); }

  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  void Add(const std::string& metric, double value, const std::string& unit) {
    rows_.push_back({metric, value, unit});
  }

  // Attach the current obs metrics snapshot (and phase aggregates) to
  // the JSON under an "obs" key, so the telemetry that explains a run's
  // numbers travels with them.
  void EmbedObsSnapshot() { embed_obs_ = true; }

  void Write() {
    if (written_ || rows_.empty()) {
      return;
    }
    written_ = true;
    std::string path = "BENCH_" + name_ + ".json";
    std::string out = "{\"bench\":\"" + name_ + "\",\"results\":[";
    char row[512];
    for (size_t i = 0; i < rows_.size(); i++) {
      std::snprintf(row, sizeof(row), "%s{\"metric\":\"%s\",\"value\":%.6g,\"unit\":\"%s\"}",
                    i == 0 ? "" : ",", rows_[i].metric.c_str(), rows_[i].value,
                    rows_[i].unit.c_str());
      out += row;
    }
    out += "]";
    if (embed_obs_) {
      out += ",\"obs\":" + obs::SnapshotJson();
    }
    out += "}\n";
    std::string error;
    if (!obs::WriteFileAtomic(path, out, &error)) {
      std::fprintf(stderr, "  BENCH JSON WRITE FAILED: %s\n", error.c_str());
      return;
    }
    std::printf("  wrote %s (%zu metrics)\n", path.c_str(), rows_.size());
  }

 private:
  struct Row {
    std::string metric;
    double value;
    std::string unit;
  };
  std::string name_;
  std::vector<Row> rows_;
  bool written_ = false;
  bool embed_obs_ = false;
};

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

// Telemetry on/off A/B measured as interleaved pairs: each pair runs the
// obs-off and obs-on arm back to back (alternating which goes first), and
// the reported overhead is the median of the per-pair overheads. A host
// speed shift then lands inside one pair instead of reading as overhead,
// which a block of off runs followed by a block of on runs cannot avoid.
struct PairedOverhead {
  double median_pct = 0;  // Median of 100 * (on - off) / off over pairs.
  double off_s = 0;       // Median off-arm seconds (for display).
  double on_s = 0;        // Median on-arm seconds (for display).
  int pairs = 0;
};

// `run(on)` performs one timed run with telemetry enabled iff `on` and
// returns its seconds.
template <typename RunFn>
PairedOverhead MeasurePairedOverhead(int pairs, RunFn run) {
  std::vector<double> pct, off, on;
  for (int i = 0; i < pairs; i++) {
    const bool on_first = i % 2 == 1;
    const double first = run(on_first);
    const double second = run(!on_first);
    const double off_s = on_first ? second : first;
    const double on_s = on_first ? first : second;
    off.push_back(off_s);
    on.push_back(on_s);
    pct.push_back(100.0 * (on_s - off_s) / off_s);
  }
  return {Median(pct), Median(off), Median(on), pairs};
}

// Pair count for the telemetry-overhead gates CI asserts on. On a shared
// 4-vCPU VM one run varies by about +-10%; with 7-9 pairs repeated
// medians still spread over several percent, past the 2% budget, while
// 31 pairs kept them within +-2.2% (fig6 ~22 s, store_io ~8 s in all).
constexpr int kTelemetryPairs = 31;

// The paper's five evaluation configurations (Figure 5/6/7's x-axis).
inline std::vector<RunConfig> PaperConfigs() {
  return {RunConfig::BareHw(), RunConfig::VmNoRec(), RunConfig::VmRec(), RunConfig::AvmmNoSig(),
          RunConfig::AvmmRsa768()};
}

inline void PrintHeader(const char* experiment, const char* paper_result) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("  paper: %s\n", paper_result);
  std::printf("================================================================\n");
}

inline void PrintRule() {
  std::printf("----------------------------------------------------------------\n");
}

// Scale note shared by every bench that runs the simulator.
inline void PrintScaleNote() {
  std::printf(
      "  (AVM-32 substrate: guest runs at %u instr/simulated-us; numbers\n"
      "   are shape-comparable, not absolute-comparable, to the paper.)\n\n",
      RunConfig().ips_per_us);
}

}  // namespace avm

#endif  // BENCH_BENCH_COMMON_H_
