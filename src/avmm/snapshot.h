// Incremental, Merkle-authenticated snapshots of AVM state (§4.4).
//
// The AVMM maintains a hash tree over the AVM's memory pages (plus a leaf
// for the CPU state); after each snapshot it records the top-level value
// in the tamper-evident log. Snapshots are incremental: only pages dirtied
// since the previous snapshot are stored. Auditors reconstruct the state
// at a snapshot by replaying increments, and authenticate it against the
// root hash in the log (spot checking, §3.5/§6.12).
#ifndef SRC_AVMM_SNAPSHOT_H_
#define SRC_AVMM_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "src/crypto/merkle.h"
#include "src/util/bytes.h"
#include "src/util/clock.h"
#include "src/vm/machine.h"

namespace avm {

// What goes into the kSnapshot log entry.
struct SnapshotMeta {
  uint64_t snapshot_id = 0;  // Dense, starting at 0 (the initial state).
  uint64_t icount = 0;       // Instruction count at the snapshot point.
  SimTime sim_time = 0;
  Hash256 root;              // Merkle root over pages + CPU leaf.
  uint32_t total_pages = 0;
  uint32_t incremental_pages = 0;  // Pages stored in this increment.
  uint64_t stored_bytes = 0;       // Increment size (Figure 9's transfer metric).

  static constexpr size_t kSerializedSize = 72;  // Every field is fixed-width.
  Bytes Serialize() const;
  static SnapshotMeta Deserialize(ByteView data);
};

// One stored increment.
struct SnapshotDelta {
  SnapshotMeta meta;
  Bytes cpu_state;
  std::vector<std::pair<uint32_t, Bytes>> pages;  // (page index, contents).

  Bytes Serialize() const;
  // Serialize().size(), from the field sizes alone.
  uint64_t SerializedSize() const;
  static SnapshotDelta Deserialize(ByteView data);
};

// The Merkle tree the AVMM commits to: one leaf per memory page, then one
// leaf holding the serialized CPU state. Every state root is built here.
// The constructor is the full build; Refresh keeps a machine's tree
// current at the cost of the pages written since the previous root, which
// is how the recorder (SnapshotManager) and the replayer
// (StreamingReplayer) compute every root after a machine's first.
class StateTree {
 public:
  StateTree() = default;  // No leaves; Root() is zero.
  StateTree(const CpuState& cpu, ByteView memory);

  // Brings the tree to (cpu, memory), given that `dirty` lists every page
  // written since the tree last matched: rehashes those pages and the CPU
  // leaf. An empty tree is built in full instead.
  void Refresh(const CpuState& cpu, ByteView memory, std::span<const uint32_t> dirty);

  Hash256 Root() const { return tree_.Root(); }
  bool empty() const { return tree_.LeafCount() == 0; }
  uint64_t page_count() const { return empty() ? 0 : tree_.LeafCount() - 1; }
  // Inclusion proofs: page `index`, or the CPU leaf (index page_count()).
  MerkleProof ProveLeaf(uint64_t index) const { return tree_.ProveLeaf(index); }

 private:
  MerkleTree tree_{std::vector<Hash256>{}};
};

// A fully materialized machine state.
struct MaterializedState {
  CpuState cpu;
  Bytes memory;
  // The state tree over (cpu, memory), built by whoever produced the
  // state; a replayer started from the state keeps it. Whoever edits
  // `memory` must rebuild it.
  StateTree tree;

  Hash256 root() const { return tree.Root(); }

  // Wire form (audit checkpoints, src/audit/checkpoint): CPU state plus
  // LZSS-compressed memory, carrying the Merkle root the state must
  // hash to. Deserialize recomputes the root from the decoded state and
  // throws SerdeError when it does not match — the same authenticate-
  // before-trust rule as snapshot verification.
  Bytes Serialize() const;
  static MaterializedState Deserialize(ByteView data);
};

// The root of a full StateTree build: the reference every incremental
// root is tested against.
Hash256 ComputeStateRoot(const Machine& m);
Hash256 ComputeStateRoot(const CpuState& cpu, ByteView memory);

// Holds a machine's snapshot chain; the recording side appends, the
// auditing side reconstructs. (An audit "downloads" a snapshot by reading
// it from the auditee's store and then *verifying* it against the root in
// the verified log, so the store itself need not be trusted.)
class SnapshotStore {
 public:
  void Add(SnapshotDelta delta);

  const SnapshotDelta& Get(uint64_t snapshot_id) const;
  bool Has(uint64_t snapshot_id) const;
  uint64_t Count() const { return deltas_.size(); }

  // Applies increments 0..snapshot_id and returns the full state.
  // mem_size must match the recorded machine.
  MaterializedState Materialize(uint64_t snapshot_id, size_t mem_size) const;

  // Bytes an auditor must transfer to start replay at `snapshot_id`,
  // assuming it already has the base image (delta 0 is the base):
  // increments 1..snapshot_id.
  uint64_t TransferBytesUpTo(uint64_t snapshot_id) const;

 private:
  std::map<uint64_t, SnapshotDelta> deltas_;
};

// Recording-side helper: takes snapshots of one machine, storing
// increments and returning the metadata to log. It owns the machine's
// dirty-page marks and keeps the machine's StateTree between snapshots.
class SnapshotManager {
 public:
  explicit SnapshotManager(SnapshotStore* store) : store_(store) {}

  // Takes a snapshot. The first call stores every page (the base) and
  // builds the state tree; later calls store and rehash only the pages
  // dirtied since the previous call. Clears the machine's dirty-page
  // tracking.
  SnapshotMeta Take(Machine& m, SimTime sim_time);

  uint64_t next_id() const { return next_id_; }
  // Cumulative wall-clock seconds spent taking snapshots.
  double snapshot_seconds() const { return snapshot_seconds_; }

 private:
  SnapshotStore* store_;
  StateTree tree_;
  uint64_t next_id_ = 0;
  double snapshot_seconds_ = 0;
};

}  // namespace avm

#endif  // SRC_AVMM_SNAPSHOT_H_
