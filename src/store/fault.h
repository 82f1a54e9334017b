// The storage write path's one fault seam.
//
// A `fault_hook` on LogStoreOptions is consulted at every named site
// below. At a site with a write to fail it can make that write fail the
// way real storage fails — a transient IO error, a short write, a
// failed durability barrier, or a simulated process death that poisons
// the store until it is reopened. The other sites are crash points:
// they write nothing, so they ignore the action, and a kill-point test
// copies the store directory there (the byte-exact image a power cut
// at that instruction leaves) and returns kNone. src/chaos drives the
// hook from a declarative FaultPlan; the store only defines the
// vocabulary so it stays decoupled from the chaos engine.
//
// Kept in its own header so src/chaos can name these types without
// pulling in the whole LogStore interface.
#ifndef SRC_STORE_FAULT_H_
#define SRC_STORE_FAULT_H_

#include <cstdint>

namespace avm {

// Where on the write path the hook is being consulted. "writer" is the
// one recording thread (Append/Flush/Seal), "flusher" the group-commit
// delay thread (group_commit.max_delay_ms > 0), "sealer" a sealer pool
// worker (the rolling thread itself when sealer_threads = 0), and "turn
// worker" a thread of a scenario's turn pool, which runs a forced
// Flush() for the writer while the writer waits at the turn's commit
// barrier (ScenarioWorld::RunFor, when two or more nodes are due).
//
//  site               thread             `seq`              acts on
//  "append-write"     writer             entry appended     kIoError, kShortWrite, kCrash
//  "group-commit"     writer, flusher,   last seq covered   every action (poisons)
//                     turn worker
//  "post-dir-sync"    writer, flusher,   last seq appended  none
//                     turn worker
//  "post-flush"       writer, flusher,   watermark reached  none
//                     turn worker
//  "roll"             writer             segment last seq   every action (poisons)
//  "post-roll"        writer             segment last seq   none
//  "pre-seal-rename"  sealer             segment last seq   none
//  "pre-seal-unlink"  sealer             segment last seq   none
//  "aux-write"        aux-file writer    0                  every action
//  "aux-sync"         writer, flusher,   0                  every action (poisons)
//                     turn worker
//
//  "append-write"     Append(), before the record is accepted; there is
//                     no barrier here, so kFsyncFail is ignored.
//  "group-commit"     the commit routine (a threshold or delay group
//                     commit, or Flush()), before the durability barrier.
//  "post-dir-sync"    sync stores only: once per active file, new or
//                     reopened, after it is preallocated and the
//                     directory synced, ahead of the first barrier that
//                     advances the watermark into it.
//  "post-flush"       after a commit advanced the watermark.
//  "roll"             RollActiveLocked(), before the rolled segment's
//                     final write + fsync.
//  "post-roll"        Append(), after a roll, before the rolled segment
//                     is queued for sealing.
//  "pre-seal-rename"  before the sealed file is renamed into place.
//  "pre-seal-unlink"  after the rename, before the raw file is removed.
//  "aux-write"        WriteAuxFileBatched() (checkpoint writes), before
//                     the atomic rename, on the caller's thread.
//                     kIoError and kShortWrite are transient; kFsyncFail
//                     and kCrash poison.
//  "aux-sync"         before batched aux fsyncs; also from Seal() and
//                     the store's destructor.
struct StoreFaultSite {
  const char* point = "";
  uint64_t seq = 0;
};

enum class StoreFaultAction : uint8_t {
  kNone = 0,
  // The write reports failure; the append drops the record's frame
  // from the store's buffer (nothing of it reaches the file) and throws
  // StoreError. Transient: a retried append succeeds.
  kIoError,
  // The write fails partway; handled like kIoError, so no partial
  // frame is left in front of a retried append. Also transient.
  kShortWrite,
  // The durability barrier (write/fdatasync) fails. Matches the kernel's
  // contract after a failed fsync: the store is poisoned (write_failed_)
  // and refuses further writes until reopened, when recovery re-scans
  // from disk.
  kFsyncFail,
  // Simulated process death mid-write: poison + throw, so everything
  // not covered by the durability watermark may be lost. Reopening the
  // directory runs crash recovery, the same path the kill-point tests
  // exercise with byte-exact images.
  kCrash,
};

}  // namespace avm

#endif  // SRC_STORE_FAULT_H_
