// Durable, segmented, crash-recoverable storage for the tamper-evident
// log. The paper's AVMM log grows without bound (~2.6 MB/min, Figure 3)
// and must survive until an auditor fetches it; keeping it in the
// serving process's heap caps both uptime and auditability. LogStore
// isolates that per-tenant state behind a storage layer, organized as
// two tiers with background promotion between them:
//
//   hot (seg-*.log)      append-only, CRC-framed records, group commit:
//                        syncs are batched under a {bytes, entries,
//                        max_delay} policy instead of per append.
//   sealed (seg-*.seal)  rolled segments, LZSS-compressed (§6.4) with a
//                        sparse index and a chain-state footer; built
//                        by a background sealer pool so compression
//                        never stalls the recording thread.
//
// The store publishes a monotone *durability watermark*
// (DurableSeq()): the highest sequence number whose group-commit
// window has been flushed — every entry at or below it survives a
// crash. The authenticator protocol cites this watermark
// (RunConfig::durable_commit) to avoid releasing evidence for entries
// that could still be lost.
//
// Layering: LogStore is a LogSink (TamperEvidentLog tees entries into
// it as they are appended) and a SegmentSource (the Auditor reads
// ranges back out, from this process or a later one via Open on the
// same directory). It stores what the chain layer produced and verifies
// only framing (CRCs, seq continuity, boundary hashes); tamper
// detection remains the auditor's job.
//
// Threading contract (v2):
//  - Writes (Append/Seal/Flush/WriteAuxFileBatched) take one logical
//    writer: the recording thread. Two threads must not interleave
//    Append calls, but the writer MAY now overlap reads and the
//    store's own background threads.
//  - Reads (Extract/Scan/Cursor) are safe from any thread,
//    concurrently with the writer, with each other, and with segment
//    promotion: readers snapshot per-segment state under the store
//    mutex and re-resolve if a file is promoted out from under them
//    mid-read, so a segment being compressed still streams
//    bit-for-bit.
//  - Watermark accessors (DurableSeq/LastSeq/SinkLastSeq) are lock-free
//    atomics, callable from any thread (the delay flusher advances
//    DurableSeq while the writer and the store's metric gauges read it).
//  - Background threads: a sealer pool of `sealer_threads` workers
//    (0 = promote inline on the rolling thread, the deterministic v1
//    behavior) and, when group_commit.max_delay_ms > 0, a flusher that
//    enforces the delay bound. Both run the store's fault_hook at their
//    sites (src/store/fault.h). Background failures poison the store
//    and surface as StoreError from the next write. Seal() is the
//    shutdown barrier: it rolls the active segment and drains every
//    pending promotion.
#ifndef SRC_STORE_LOG_STORE_H_
#define SRC_STORE_LOG_STORE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/store/fault.h"
#include "src/store/group_commit.h"
#include "src/store/segment_file.h"
#include "src/tel/log.h"
#include "src/tel/segment_source.h"
#include "src/util/threadpool.h"

namespace avm {

struct LogStoreOptions {
  // Roll the active segment once its record stream reaches this many
  // bytes. ~1 MiB keeps per-audit memory bounded while amortizing the
  // LZSS pass over many entries.
  size_t seal_threshold_bytes = 1u << 20;
  // Sparse-index granularity: one waypoint every N entries.
  size_t index_every = 64;
  // LZSS-compress sealed segments (§6.4). Off stores records verbatim.
  bool compress_sealed = true;
  // Make group commits durable (fdatasync into a preallocated active
  // segment) and fsync rolled and sealed files. Off is fine for tests
  // and benches that do not measure durability (the watermark then
  // advances once the records are written to the file, the usual test
  // surrogate); such stores do not preallocate.
  bool sync = true;
  // Background sealer/compressor workers. 0 promotes inline on
  // the thread that rolled the segment — bit-for-bit the synchronous v1
  // write path, and what deterministic crash tests use.
  unsigned sealer_threads = 1;
  // Batched-sync policy for the hot tier (see group_commit.h).
  GroupCommitPolicy group_commit;
  // The store's one fault seam (src/store/fault.h lists its sites, the
  // threads each fires on and the actions each acts on). At a site with
  // a write to fail, a non-kNone action makes it fail the way real
  // storage fails (IO error / short write / fsync failure / simulated
  // crash); kill-point tests copy the directory from the hook to get a
  // byte-exact crash image. May be called with internal locks held and
  // from background threads; it must not call back into the store.
  // Unset, or a hook that always returns kNone, changes nothing.
  std::function<StoreFaultAction(const StoreFaultSite&)> fault_hook;
};

class SegmentCursor;

class LogStore final : public LogSink, public SegmentSource {
 public:
  // Opens (creating if needed) the store in `dir`. `node` names the
  // machine whose log this is; it is persisted in `store.meta` on first
  // open and must match on subsequent opens (empty = take it from the
  // meta file, for auditors that only know the directory). Recovery
  // replays segment headers/footers, re-scans unsealed segments,
  // truncates a torn tail record, and re-enqueues any rolled-but-
  // unsealed segment an interrupted promotion left behind.
  static std::unique_ptr<LogStore> Open(const std::string& dir, const NodeId& node,
                                        LogStoreOptions opts = {});
  static std::unique_ptr<LogStore> Open(const std::string& dir, LogStoreOptions opts = {});

  ~LogStore() override;
  LogStore(const LogStore&) = delete;
  LogStore& operator=(const LogStore&) = delete;

  // LogSink: appends one entry (seq must be LastSeq() + 1) to the hot
  // tier, rolling (and scheduling promotion) at the byte threshold and
  // group-committing under the batched-sync policy.
  void Append(const LogEntry& e) override;
  // Forces a group commit now: everything appended so far becomes
  // durable and the watermark advances to LastSeq(). Also drains
  // batched aux-file syncs.
  void Flush() override;
  uint64_t SinkLastSeq() const override { return last_seq_.load(std::memory_order_acquire); }
  std::optional<Hash256> SinkLastHash() const override;
  // The durability watermark: every entry with seq <= DurableSeq() is
  // on stable storage (monotone; lock-free).
  uint64_t SinkDurableSeq() const override { return DurableSeq(); }
  uint64_t DurableSeq() const { return durable_seq_.load(std::memory_order_acquire); }

  // Shutdown barrier: rolls the active segment regardless of size and
  // drains the sealer pool, so every segment is sealed when it
  // returns. The right order at shutdown is signer first, then
  // Seal() — see Avmm::Finish.
  void Seal();

  // SegmentSource.
  const NodeId& node() const override { return node_; }
  uint64_t LastSeq() const override { return last_seq_.load(std::memory_order_acquire); }
  LogSegment Extract(uint64_t from_seq, uint64_t to_seq) const override;
  void Scan(uint64_t from_seq, uint64_t to_seq, const EntryVisitor& visit) const override;

  // Streaming reader over [from_seq, to_seq]; holds one segment's
  // entries at a time and tolerates concurrent tier promotion.
  SegmentCursor Cursor(uint64_t from_seq, uint64_t to_seq) const;

  Hash256 LastHash() const;
  size_t SegmentCount() const;
  // Segments in the sealed tier.
  size_t SealedCount() const;
  // Total bytes currently on disk (Figure 3's metric, but durable).
  uint64_t DiskBytes() const;
  // True if Open() found and truncated a torn tail record.
  bool RecoveredTornTail() const { return recovered_torn_tail_; }
  const std::string& dir() const { return dir_; }
  const LogStoreOptions& options() const { return opts_; }

  // Atomic (tmp + rename, optionally fsync'd) small-file IO for
  // auxiliary records kept alongside the segments — audit checkpoints
  // (src/audit/checkpoint) persist through these. A write interrupted
  // by a crash leaves only a "*.tmp", which Recover() removes; aux
  // files must not collide with segment names ("seg-*") and are
  // otherwise ignored by recovery.
  static void WriteAuxFile(const std::string& path, ByteView data, bool sync);
  // Batched variant: the rename is immediate (readers see the new file
  // atomically) but the fsync rides the store's next group commit
  // instead of happening per file, so checkpoint writes during an audit
  // cost no extra disk round-trips. Crash window: the file may revert
  // to its previous content, never to a torn state.
  void WriteAuxFileBatched(const std::string& path, ByteView data);
  // nullopt when the file does not exist; throws StoreError on a file
  // that exists but cannot be read.
  static std::optional<Bytes> ReadAuxFile(const std::string& path);

 private:
  friend class SegmentCursor;

  enum class Tier { kActive, kRolled, kSealed };

  struct SegmentState {
    std::string path;
    Tier tier = Tier::kActive;
    uint64_t first_seq = 0;
    uint64_t last_seq = 0;  // first_seq - 1 when empty.
    Hash256 prior_hash;
    Hash256 chain_hash;
    // Raw-tier bookkeeping, frozen at roll time (promotion inputs).
    uint64_t entry_count = 0;
    size_t stream_bytes = 0;
    std::vector<SparseIndexEntry> index;
  };

  // What a reader needs to open one segment, captured under state_mu_.
  struct SegSnapshot {
    std::string path;
    Tier tier = Tier::kActive;
    uint64_t first_seq = 0;
    size_t valid_bytes = 0;  // Raw tiers: record-stream bytes on disk.
  };

  struct LoadedRecords {
    Bytes records;
    std::vector<SparseIndexEntry> index;  // Empty for raw tiers.
  };

  LogStore(std::string dir, NodeId node, LogStoreOptions opts);
  void Recover();
  void StartBackground();
  void RegisterObsMetrics();

  // Consults opts_.fault_hook (kNone when unset).
  StoreFaultAction FaultAt(const char* point, uint64_t seq) const;
  void CheckWritableLocked() const;
  void AdvanceDurable(uint64_t seq);
  void StartSegmentLocked();
  // Opens `path` as the active file for positional writes, creating it
  // with `header` when non-empty.
  void OpenActiveFileLocked(const std::string& path, ByteView header);
  // Called by every barrier that advances the watermark into the active
  // file, before it writes. On the first one of a syncing store's file,
  // preallocates the file past the seal threshold (best effort) and
  // syncs the directory, so the file's name is durable before the
  // watermark enters it. Deferred to the first commit so that opening a
  // segment costs no more than creating the file.
  void PrepareActiveForCommitLocked();
  // Writes pending_ at its stream offset; returns false on a write
  // error (pending_ then keeps the bytes, so a retry rewrites them in
  // place). Const because readers hand records off through it too.
  bool WritePendingLocked() const;
  // The one commit routine: write pending records under the lock,
  // fdatasync off it, then advance the watermark. A group commit
  // (`forced` false) commits the batch when it holds records and
  // advances to the batch's last seq; a forced one (Flush) syncs the
  // active file whenever one is open and advances to LastSeq(). A
  // failure poisons the store. Both end by draining batched aux syncs.
  void CommitLocked(std::unique_lock<std::mutex>& lk, bool forced);
  // fdatasync of the active file without blocking appends; returns
  // false on failure. Drops and reacquires `lk`.
  bool DatasyncActiveOffLock(std::unique_lock<std::mutex>& lk);
  void DrainAuxLocked(std::unique_lock<std::mutex>& lk);
  // Rolls the active segment: flushes it durably (watermark now covers
  // the whole segment), closes it and marks it kRolled. Returns the
  // segment index to promote, or SIZE_MAX if nothing was rolled.
  size_t RollActiveLocked();
  // Writes pending records, trims a preallocated tail back to header +
  // stream bytes, fsyncs (sync stores) and closes the active file.
  // Returns false if any step failed; the file is closed either way.
  bool CloseActiveFileLocked();
  // Seals the segment on the sealer pool; a failure poisons the store.
  void EnqueuePromotion(size_t seg_index);
  void PromoteToSealed(size_t seg_index);
  void RecordBackgroundError(const char* stage);
  void FlusherLoop();

  const SegmentState* SegmentContainingLocked(uint64_t seq) const;
  SegSnapshot SnapshotSegment(uint64_t first_seq) const;
  LoadedRecords LoadSegment(const SegSnapshot& snap) const;
  // Snapshot + load with re-resolution when promotion moves the file.
  LoadedRecords LoadSegmentBySeq(uint64_t first_seq) const;

  std::string dir_;
  NodeId node_;
  LogStoreOptions opts_;

  // --- Guarded by state_mu_ ---
  mutable std::mutex state_mu_;
  std::vector<SegmentState> segments_;  // Ascending; active is last if open.
  Hash256 last_hash_;
  GroupCommitBatch batch_;
  std::vector<std::string> pending_aux_;  // Renamed, awaiting fsync.
  std::string background_error_;  // First sealer/flusher failure.
  // Set when a failed write could not be rolled back to a record
  // boundary; the store refuses further appends (reopen to recover).
  bool write_failed_ = false;
  // Active (unsealed) segment writer state. The file is written only
  // with pwrite at kSegmentHeaderSize + stream offset, never appended
  // to: a sync store's file extends past the stream into preallocated
  // zeros.
  int active_fd_ = -1;
  bool active_needs_prepare_ = false;  // See PrepareActiveForCommitLocked.
  size_t active_stream_bytes_ = 0;  // Appended, whether written or pending.
  uint64_t active_entry_count_ = 0;
  std::vector<SparseIndexEntry> active_index_;
  // Framed records not yet written to the file: the last
  // pending_.size() bytes of the stream. Written in one pwrite per
  // group commit, roll or kWriteChunkBytes, and when a reader snapshots
  // the active segment (hence mutable). Cleared, not freed, so the
  // per-entry path allocates only when the buffer outgrows its peak.
  mutable Bytes pending_;
  bool stopping_ = false;

  // --- Lock-free ---
  std::atomic<uint64_t> last_seq_{0};
  std::atomic<uint64_t> durable_seq_{0};
  bool recovered_torn_tail_ = false;  // Written only during Recover().

  // Serializes the off-lock sync of a group commit against closing the
  // active file (lock order: state_mu_ before flush_mu_). active_gen_
  // changes only with both held, so holding either is enough to read it.
  mutable std::mutex flush_mu_;
  uint64_t active_gen_ = 0;

  std::unique_ptr<ThreadPool> pool_;  // Sealer workers.
  std::thread flusher_;
  std::condition_variable flusher_cv_;

  // Telemetry (src/obs): always-on counters for the write path plus
  // watermark callback gauges labeled {node}. Counter pointers live in
  // the process-wide registry; the handles must be declared last so
  // the callbacks (which read last_seq_/durable_seq_) unregister before
  // any other member is destroyed.
  struct ObsMetrics {
    obs::Counter* appends = nullptr;
    obs::Counter* group_commits = nullptr;
    obs::Counter* seals = nullptr;
    obs::Counter* segment_loads = nullptr;  // Segment files read back.
  };
  ObsMetrics obs_;
  std::vector<obs::Registry::CallbackHandle> obs_handles_;
};

// Streams entries of one [from, to] range, loading one segment's record
// stream at a time (memory stays bounded by the seal threshold no
// matter how large the whole log is). Holds a pointer to the store, so
// a segment promoted to another tier mid-iteration is transparently
// re-resolved; the cursor must not outlive the store.
class SegmentCursor {
 public:
  // The entry the cursor is positioned on, or nullptr when exhausted.
  // The pointer is invalidated by the next call to Next().
  const LogEntry* Next();

  // h_{from-1}: lets chain verification start at the cursor's first
  // entry without any earlier log data.
  const Hash256& prior_hash() const { return prior_hash_; }

 private:
  friend class LogStore;

  SegmentCursor(const LogStore* store, std::vector<uint64_t> seg_seqs, uint64_t from_seq,
                uint64_t to_seq, Hash256 prior_hash);
  bool LoadNextSegment();

  const LogStore* store_;
  std::vector<uint64_t> seg_seqs_;  // first_seq of each segment in range.
  size_t next_seg_ = 0;
  uint64_t from_seq_ = 0;
  uint64_t to_seq_ = 0;
  uint64_t next_seq_ = 0;
  Hash256 prior_hash_;
  Bytes records_;      // Current segment's record stream.
  size_t offset_ = 0;  // Position within records_.
  LogEntry current_;
  bool done_ = false;
};

}  // namespace avm

#endif  // SRC_STORE_LOG_STORE_H_
