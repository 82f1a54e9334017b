// Group-commit (batched sync) policy for the hot tier of the log
// store.
//
// The paper's protocol makes an authenticator a_i evidence the moment
// it leaves the machine; storage engine v2 makes the matching promise
// about persistence: an entry is *committed* only once an fdatasync of
// the active segment has covered it, and the store publishes that
// boundary as a monotone durability watermark (LogStore::DurableSeq).
// The first commit into a syncing store's active segment preallocates
// it past the seal threshold, so later commits change no file size and
// the data sync is a data-only barrier; rolling trims the file and
// takes a full fsync.
// Syncing every append would put a disk round-trip on the recording hot
// path, so the hot tier batches: a flush is forced when any of {bytes,
// entries, max_delay} is exceeded, and everything appended since the
// previous flush becomes durable together — classic group commit, with
// the watermark advancing to the last sequence number the batch
// covered.
//
// GroupCommitBatch is the bookkeeping only (what is unflushed, and is a
// flush due); LogStore owns the actual write/fdatasync and the
// watermark.
// It is not thread-safe by itself: LogStore mutates it under its state
// mutex.
#ifndef SRC_STORE_GROUP_COMMIT_H_
#define SRC_STORE_GROUP_COMMIT_H_

#include <cstddef>
#include <cstdint>

#include "src/util/clock.h"

namespace avm {

struct GroupCommitPolicy {
  // Force a flush once this many record-stream bytes are unflushed.
  size_t max_bytes = 256 * 1024;
  // ... or this many entries.
  size_t max_entries = 256;
  // ... or this many milliseconds of wall time since the oldest
  // unflushed entry (enforced by the store's background flusher thread;
  // 0 disables the timer, so flushes happen only on the byte/entry
  // thresholds and explicit Flush() calls — what deterministic tests
  // want).
  uint32_t max_delay_ms = 20;
};

// Tracks the unflushed window of the active segment between group
// commits.
class GroupCommitBatch {
 public:
  void Add(size_t record_bytes, uint64_t seq) {
    if (entries_ == 0) {
      oldest_.Reset();
    }
    bytes_ += record_bytes;
    entries_++;
    last_seq_ = seq;
  }

  // True when the byte/entry thresholds force a flush right now (the
  // appending thread checks this after every record).
  bool ThresholdDue(const GroupCommitPolicy& p) const {
    return entries_ > 0 && (bytes_ >= p.max_bytes || entries_ >= p.max_entries);
  }

  // True when the oldest unflushed entry has waited past max_delay (the
  // background flusher checks this on its timer).
  bool DelayDue(const GroupCommitPolicy& p) const {
    return entries_ > 0 && p.max_delay_ms > 0 &&
           oldest_.ElapsedMicros() >= uint64_t{p.max_delay_ms} * 1000;
  }

  bool Empty() const { return entries_ == 0; }
  uint64_t last_seq() const { return last_seq_; }
  size_t bytes() const { return bytes_; }
  size_t entries() const { return entries_; }

  // Called once the batch's bytes are verifiably flushed; the caller
  // then advances the durability watermark to the captured last_seq.
  void Clear() {
    bytes_ = 0;
    entries_ = 0;
    last_seq_ = 0;
  }

 private:
  size_t bytes_ = 0;
  size_t entries_ = 0;
  uint64_t last_seq_ = 0;
  WallTimer oldest_;  // Age of the oldest unflushed entry.
};

}  // namespace avm

#endif  // SRC_STORE_GROUP_COMMIT_H_
