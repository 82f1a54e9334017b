// Typed fault-injection seam for the storage write path.
//
// PR 6's `test_hook` kill points give crash *images* (a callback copies
// the directory and the test reopens the copy); this header is the
// complementary in-process seam: a `fault_hook` on LogStoreOptions is
// consulted at the named write-path sites and can make the site fail
// the way real storage fails — a transient IO error, a short write, a
// failed durability barrier, or a simulated process death that poisons
// the store until it is reopened. src/chaos drives the hook from a
// declarative FaultPlan; the store only defines the vocabulary so it
// stays decoupled from the chaos engine.
//
// Kept in its own header so src/chaos can name these types without
// pulling in the whole LogStore interface.
#ifndef SRC_STORE_FAULT_H_
#define SRC_STORE_FAULT_H_

#include <cstdint>

namespace avm {

// Where on the write path the hook is being consulted.
//  "append-write"  Append(), before the record reaches the file; `seq`
//                  is the entry being appended.
//  "group-commit"  GroupCommitLocked()/Flush(), before the durability
//                  barrier; `seq` is the last seq the barrier covers.
//  "roll"          RollActiveLocked(), before the rolled segment's
//                  final write+fsync; `seq` is the segment's last seq.
//  "aux-write"     WriteAuxFileBatched(), before the atomic rename
//                  (checkpoint writes ride this path); `seq` is 0.
//  "aux-sync"      DrainAuxLocked(), before batched aux fsyncs; 0.
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
