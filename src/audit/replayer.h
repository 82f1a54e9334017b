// Deterministic replay (§4.5, "semantic check").
//
// The replayer instantiates a reference machine M_R, initializes it from
// the agreed-upon image or a verified snapshot, and re-executes the log:
// synchronous inputs are fed back in order (port and instruction count
// must match exactly), asynchronous inputs are injected at their recorded
// instruction-count landmarks, outputs are compared byte-for-byte, and
// every kSnapshot entry is checked against the Merkle root of the
// replayed state. Any discrepancy whatsoever terminates replay and
// reports a fault.
#ifndef SRC_AUDIT_REPLAYER_H_
#define SRC_AUDIT_REPLAYER_H_

#include <deque>
#include <optional>
#include <span>
#include <string>

#include "src/avmm/snapshot.h"
#include "src/tel/log.h"
#include "src/util/bytes.h"
#include "src/vm/machine.h"
#include "src/vm/trace.h"

namespace avm {

struct ReplayResult {
  bool ok = true;
  std::string reason;          // First divergence, empty when ok.
  uint64_t diverged_seq = 0;   // Log entry where the divergence surfaced.
  uint64_t replay_icount = 0;  // Icount at the divergence, else at the end of replay.
  uint64_t instructions_replayed = 0;
  double replay_seconds = 0;

  static ReplayResult Fail(std::string why, uint64_t seq, uint64_t icount) {
    ReplayResult r;
    r.ok = false;
    r.reason = std::move(why);
    r.diverged_seq = seq;
    r.replay_icount = icount;
    return r;
  }
};

// Incremental replay engine. Feed() accepts newly available log entries
// and replays as far as they reach; this is what makes *online* auditing
// (§6.11) possible. For offline audits, feed the whole segment once and
// call Finish().
class StreamingReplayer : public DeviceBackend {
 public:
  // Replay from the reference image (a full audit from the beginning).
  StreamingReplayer(ByteView reference_image, size_t mem_size);
  // Replay from a previously verified snapshot state (spot check),
  // keeping its state tree.
  explicit StreamingReplayer(const MaterializedState& start);

  // Feeds more log entries (they must continue the previously fed run)
  // and replays through them. Returns the cumulative status.
  ReplayResult Feed(std::span<const LogEntry> entries);

  // Declares the log complete and performs final checks.
  ReplayResult Finish();

  const ReplayResult& result() const { return result_; }
  bool diverged() const { return !result_.ok; }
  // Checkpoint support (src/audit/checkpoint.h): true when the replay
  // state is a pure machine state — no divergence, no queued-but-
  // unapplied events — so (cpu, memory) captures it completely and a
  // replayer resumed from that MaterializedState continues bit-for-bit.
  bool Checkpointable() const { return result_.ok && pending_.empty() && !finished_; }
  uint64_t replayed_icount() const { return machine_.cpu().icount; }
  const Machine& machine() const { return machine_; }
  // The Merkle root of the replayed state. The replayer owns the
  // machine's dirty-page marks: the first root (from an image) is a full
  // build, and each later one rehashes only the pages written since the
  // previous root. Snapshot checks and checkpoint captures both use it.
  Hash256 StateRoot();
  const StateTree& state_tree() const { return tree_; }
  // For replay-time analysis (§7.5): attach an InstructionObserver.
  Machine& mutable_machine() { return machine_; }

  // DeviceBackend: called by the replayed guest.
  uint32_t PortIn(Machine& m, uint16_t port) override;
  void PortOut(Machine& m, uint16_t port, uint32_t value) override;

 private:
  struct PendingItem {
    enum class Kind { kEvent, kSnapshotCheck };
    Kind kind;
    uint64_t seq;
    TraceEvent event;       // kEvent
    SnapshotMeta snapshot;  // kSnapshotCheck
  };

  void Pump();  // Replays while pending items allow progress.
  void Diverge(std::string why, uint64_t seq);
  ReplayResult Result();  // The cumulative status, icounts brought up to date.
  // Runs the machine to `target` icount; any port activity on the way is
  // validated against the pending stream by the backend callbacks.
  bool RunTo(uint64_t target, uint64_t ctx_seq);
  // Replays the queued run of guest-initiated items (IN and logged OUT)
  // at the front in one machine entry; the callbacks consume each item
  // as the guest reaches it.
  bool RunGuestIo();
  // The divergence for guest item `item` when the guest retired past
  // its landmark without performing it, or nullptr when it has not.
  const char* MissedGuestIo(const PendingItem& item) const;

  Machine machine_;
  StateTree tree_;  // Matches machine_ as of the last StateRoot().
  std::deque<PendingItem> pending_;
  ReplayResult result_;
  bool finished_ = false;
  // Machine icount when the front guest item became the front: a
  // landmark below it lay in the past before the guest could reach it.
  uint64_t front_ready_icount_ = 0;
  WallTimer total_timer_;
  uint64_t start_icount_ = 0;
};

// Convenience wrapper: batch semantic check of one segment. `observer`
// (replay-time analysis, §7.5) sees every retired instruction.
ReplayResult ReplaySegment(const LogSegment& segment, ByteView reference_image, size_t mem_size,
                           InstructionObserver* observer = nullptr);
ReplayResult ReplaySegment(const LogSegment& segment, const MaterializedState& start);

}  // namespace avm

#endif  // SRC_AUDIT_REPLAYER_H_
