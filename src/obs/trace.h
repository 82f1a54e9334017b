// Phase-attributed trace spans: RAII timers that (a) accumulate exact
// per-phase totals (the §6.6 audit-time breakdown and §6.11 lag come
// from these, not from bench-local arithmetic), (b) feed a registry
// histogram span_us{phase=...} so phase latency distributions appear in
// every export, and (c) buffer Chrome-trace-event records that
// ChromeTraceJson() emits in the Trace Event Format, loadable directly
// in Perfetto / chrome://tracing.
//
// Everything here is behind the runtime gate SetEnabled(): a disabled
// Span is two relaxed loads and no clock read, so instrumented hot
// paths (group commit, per-chunk audit phases, signer) cost nothing in
// the default-off configuration. Enabling telemetry must never change
// protocol behavior — spans observe wall time only.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace avm {
namespace obs {

// Runtime gate for spans and trace buffering. Cheap always-on
// counters/gauges are NOT gated (they back the Stats compatibility
// views). Default off.
bool Enabled();
void SetEnabled(bool on);

// Microseconds since process start (steady clock): the trace timebase.
uint64_t NowMicros();

// Span phases. One flat taxonomy, dotted by subsystem, so exports line
// up across the audit pipeline, the store write path, the signer and
// the fleet scheduler.
inline constexpr char kPhaseAuditSyntactic[] = "audit.syntactic";
inline constexpr char kPhaseAuditReplay[] = "audit.replay";
inline constexpr char kPhaseAuditRsaVerify[] = "audit.rsa_verify";
inline constexpr char kPhaseAuditCheckpointIo[] = "audit.checkpoint_io";
// One snapshot on the record path (increment + state root), and one
// state root of the replayed machine on the audit path (a snapshot
// check, nested in audit.replay, or a checkpoint capture).
inline constexpr char kPhaseSnapshotTake[] = "snapshot.take";
inline constexpr char kPhaseReplayStateRoot[] = "replay.state_root";
inline constexpr char kPhaseStoreFlushWait[] = "store.flush_wait";
inline constexpr char kPhaseStoreSeal[] = "store.seal";
inline constexpr char kPhaseSignerSign[] = "signer.sign";
// A flush Transport forces so that durable_commit can release what it
// holds back; the store's own store.flush_wait span nests inside it.
inline constexpr char kPhaseTransportDurableWait[] = "transport.durable_wait";
inline constexpr char kPhaseFleetService[] = "fleet.service";

// RAII span: times the enclosing scope and attributes it to a phase.
// No-op (no clock read, no allocation) while telemetry is disabled;
// the enabled/disabled decision is taken at construction and sticks,
// so a span that straddles a SetEnabled flip stays well-formed.
class Span {
 public:
  // `phase` must outlive the span (use the kPhase* constants or other
  // static strings). `cat` groups phases into Perfetto track colors.
  explicit Span(const char* phase, const char* cat = "avm");
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { End(); }

  // Ends the span early and returns its duration in seconds (0 when
  // telemetry was off at construction). Idempotent.
  double End();

 private:
  const char* phase_;
  const char* cat_;
  uint64_t start_us_ = 0;
  bool active_;
};

// Single timing idiom for benches: runs `fn` under a WallTimer-backed
// span and returns elapsed seconds — always measured, even with
// telemetry off, because benches need the number either way.
template <typename Fn>
double TimeSection(const char* phase, Fn&& fn) {
  const uint64_t t0 = NowMicros();
  {
    Span span(phase, "bench");
    fn();
  }
  return static_cast<double>(NowMicros() - t0) / 1e6;
}

// Exact per-phase aggregates, maintained on every span end while
// enabled (even when the event buffer is full).
struct PhaseTotals {
  uint64_t count = 0;
  uint64_t total_us = 0;
};
double PhaseSeconds(const std::string& phase);
uint64_t PhaseCount(const std::string& phase);
std::vector<std::pair<std::string, PhaseTotals>> PhaseAggregates();

// Chrome Trace Event Format (complete "X" events), one JSON document.
// https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
std::string ChromeTraceJson();

// Buffered event count and how many were dropped at the buffer cap
// (aggregates above are exact regardless).
size_t TraceEventCount();
uint64_t TraceEventsDropped();

// Clears buffered events and phase aggregates (benches isolate
// sections; tests isolate cases). Does not touch the registry.
void ResetTrace();

}  // namespace obs
}  // namespace avm

#endif  // SRC_OBS_TRACE_H_
