// The accountable virtual machine monitor (§4).
//
// Avmm hosts one guest image in an AVM-32 machine and, depending on the
// RunConfig, (a) just executes it (bare-hw / vm-norec), (b) additionally
// records every nondeterministic event for deterministic replay (vm-rec),
// or (c) additionally maintains the tamper-evident log, signs and acks
// every message, and takes Merkle-authenticated snapshots (avmm-*).
//
// The simulation driver advances the AVMM in quanta: network frames are
// delivered between quanta, and the guest executes cfg.ips_per_us
// instructions per simulated microsecond.
#ifndef SRC_AVMM_RECORDER_H_
#define SRC_AVMM_RECORDER_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/avmm/config.h"
#include "src/avmm/snapshot.h"
#include "src/avmm/transport.h"
#include "src/net/network.h"
#include "src/tel/log.h"
#include "src/tel/verifier.h"
#include "src/util/prng.h"
#include "src/vm/machine.h"
#include "src/vm/trace.h"

namespace avm {

class Avmm : public DeviceBackend {
 public:
  // Host-side manipulation hook, invoked before every quantum. This is how
  // the experiments model cheats that operate outside the guest: memory
  // pokes (unlimited ammo, teleport) or any other tampering with the AVM.
  using CheatHook = std::function<void(Machine& m, SimTime now)>;

  struct Stats {
    uint64_t frames_rendered = 0;
    uint64_t guest_packets_sent = 0;
    uint64_t guest_packets_delivered = 0;
    uint64_t clock_reads = 0;
    uint64_t clock_reads_delayed = 0;  // §6.5 optimization hits.
    uint64_t trace_events = 0;
  };

  Avmm(NodeId id, RunConfig cfg, ByteView image, const Signer* signer, SimNetwork* net,
       const KeyRegistry* registry, uint64_t rng_seed = 42);
  ~Avmm() override;

  // Peers in global order; the order defines the guest-visible host
  // indices (all participants must use the same order). Includes self.
  void AddPeer(const NodeId& peer);
  uint32_t SelfIndex() const;

  // Queues a local input event (keystroke/mouse). Nondeterministic input;
  // recorded when the guest polls it. The optional attestation (§7.2:
  // input devices that sign their events) is logged alongside the value
  // so auditors can verify the event came from the real device.
  void PushInput(uint32_t code, Bytes attestation = {});

  void SetCheatHook(CheatHook hook) { cheat_hook_ = std::move(hook); }

  // Spills the tamper-evident log to a durable sink (e.g. a
  // store::LogStore): entries already logged (snapshot 0 etc.) are
  // backfilled, every later append is written through, and Finish()
  // flushes. A sink that reads back (LogStore) then holds the log: the
  // log keeps only its tip and a bounded ring of chain links in memory
  // (see TamperEvidentLog). Verdicts and measurements are unchanged.
  // SpillTo(nullptr) detaches; CommitLog() and reads near the tip still
  // work, older reads throw.
  void SpillTo(LogSink* sink) { log_.SetSink(sink); }

  // Runs the guest for `quantum_us` simulated microseconds starting at
  // `now`, after delivering any queued incoming packets.
  RunExit RunQuantum(SimTime now, SimTime quantum_us);

  // Takes a snapshot immediately (also called periodically per config).
  SnapshotMeta TakeSnapshot(SimTime now);

  // Signs a commitment to the current end of the log. Auditors request
  // this before an audit so the whole log (including trailing trace
  // entries not yet covered by a message authenticator) is committed.
  Authenticator CommitLog() const;
  // Signs a commitment to a specific log prefix (auditors request the
  // pair of authenticators bounding the segment they want, §4.3).
  Authenticator CommitLogAt(uint64_t seq) const;

  // Final snapshot + END marker; call once when the scenario stops.
  void Finish(SimTime now);

  // Post-settle shutdown barrier. Frames delivered after Finish() (the
  // scenario's network settle) append RECV/ACK/PeerCommitRecord entries
  // and can enqueue fresh async sign work past Finish()'s barrier;
  // without this, a caller could Seal() the store while the signer
  // thread still holds queued entries and the sink holds unflushed
  // appends. Drains the signer, releases anything durably gated, and
  // flushes the sink past every entry. Idempotent; safe after Finish().
  void DrainPending(SimTime now);

  // DeviceBackend (the guest's view of its "hardware").
  uint32_t PortIn(Machine& m, uint16_t port) override;
  void PortOut(Machine& m, uint16_t port, uint32_t value) override;

  // Accessors.
  const NodeId& id() const { return id_; }
  const RunConfig& config() const { return cfg_; }
  Machine& machine() { return machine_; }
  const Machine& machine() const { return machine_; }
  TamperEvidentLog& log() { return log_; }
  const TamperEvidentLog& log() const { return log_; }
  Transport& transport() { return *transport_; }
  SnapshotStore& snapshot_store() { return snapshot_store_; }
  const SnapshotStore& snapshot_store() const { return snapshot_store_; }
  AuthenticatorStore& auth_store() { return auth_store_; }
  const AuthenticatorStore& auth_store() const { return auth_store_; }
  const Stats& stats() const { return stats_; }
  const Bytes& console_output() const { return console_output_; }
  const std::vector<uint32_t>& debug_values() const { return debug_values_; }

  // What an unmodified (non-tamper-evident) VMM would have logged for the
  // same execution: trace events with plain headers, packet payloads in
  // MAC entries (Figure 3's "equivalent VMware log" line).
  uint64_t vmware_equiv_bytes() const { return vmware_equiv_bytes_; }

  // Cost accounting (Figure 6's split).
  double exec_seconds() const { return exec_seconds_; }
  double record_seconds() const { return record_seconds_; }
  double crypto_seconds() const { return transport_->crypto_seconds(); }
  double snapshot_seconds() const { return snapshot_mgr_.snapshot_seconds(); }

 private:
  void RecordEvent(const TraceEvent& e);
  void DeliverPendingRx(Machine& m);
  uint64_t VirtualClockMicros(const Machine& m) const;
  uint32_t ReadClockLo(Machine& m);

  NodeId id_;
  RunConfig cfg_;
  const Signer* signer_;
  Machine machine_;
  TamperEvidentLog log_;
  AuthenticatorStore auth_store_;
  std::unique_ptr<Transport> transport_;
  SnapshotStore snapshot_store_;
  SnapshotManager snapshot_mgr_;
  Prng rng_;

  std::vector<NodeId> peers_;
  std::deque<std::pair<uint32_t, Bytes>> input_queue_;  // (code, attestation)
  std::deque<Bytes> rx_queue_;
  std::optional<size_t> rx_mailbox_len_;

  CheatHook cheat_hook_;

  // Virtual clock state.
  SimTime stall_total_us_ = 0;    // Accumulated §6.5 stalls (in the clock).
  SimTime pending_stall_us_ = 0;  // Stall to burn right after this read.
  uint64_t last_clock_raw_us_ = 0;  // Stall-free time of the last read.
  uint64_t last_clock_returned_us_ = 0;
  uint32_t consecutive_clock_reads_ = 0;
  uint64_t clock_latch_ = 0;  // CLOCK_HI returns the latched upper half.

  SimTime current_now_ = 0;
  SimTime last_snapshot_time_ = 0;
  bool finished_ = false;

  Stats stats_;
  Bytes trace_buf_;  // RecordEvent's encoding buffer, reused per event.
  Bytes console_output_;
  std::vector<uint32_t> debug_values_;
  uint64_t vmware_equiv_bytes_ = 0;
  double exec_seconds_ = 0;
  double record_seconds_ = 0;

  // Publishes stats_ and the Figure-6 cost split into the obs registry
  // as callback gauges; stats_ stays the compatibility view. Last so
  // the callbacks unregister first on destruction.
  void RegisterObsMetrics();
  std::vector<obs::Registry::CallbackHandle> obs_handles_;
};

}  // namespace avm

#endif  // SRC_AVMM_RECORDER_H_
