#include "src/store/log_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "src/obs/trace.h"
#include "src/util/serde.h"

namespace fs = std::filesystem;

namespace avm {

namespace {

constexpr char kMetaName[] = "store.meta";
constexpr char kMetaMagic[8] = {'A', 'V', 'M', 'M', 'E', 'T', 'A', '\n'};
constexpr size_t kNoSegment = std::numeric_limits<size_t>::max();
// Pending records are written to the active file at least this often,
// so the writer's buffer stays small between group commits. The buffer
// (at most about twice this) stays well below glibc's 128 KiB mmap
// threshold: freeing an mmapped buffer raises that threshold for the
// whole process, and with a 64 KiB chunk the kv-replay audit that
// follows recording ran ~5% slower.
constexpr size_t kWriteChunkBytes = 16 * 1024;
// Preallocated past the seal threshold: the record that crosses it
// still lands in allocated space.
constexpr size_t kPreallocSlackBytes = 64 * 1024;

std::string SegName(uint64_t first_seq, const char* ext) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "seg-%020" PRIu64 ".%s", first_seq, ext);
  return buf;
}

// Reads the whole file, or its first `max_bytes` when it is longer.
Bytes ReadFileBytes(const std::string& path,
                    size_t max_bytes = std::numeric_limits<size_t>::max()) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw StoreError("cannot open " + path);
  }
  in.seekg(0, std::ios::end);
  const size_t size = std::min(static_cast<size_t>(in.tellg()), max_bytes);
  in.seekg(0);
  Bytes out(size);
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(out.data()), static_cast<std::streamoff>(size))) {
    throw StoreError("short read on " + path);
  }
  return out;
}

// Reads just the leading magic and the trailing `footer_size` bytes.
Bytes ReadFileTail(const std::string& path, const char (&magic)[8], size_t footer_size) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw StoreError("cannot open " + path);
  }
  in.seekg(0, std::ios::end);
  std::streamoff size = in.tellg();
  if (size < static_cast<std::streamoff>(8 + 4 + footer_size)) {
    throw StoreError("segment file truncated: " + path);
  }
  Bytes head(8);
  Bytes tail(footer_size);
  in.seekg(0);
  in.read(reinterpret_cast<char*>(head.data()), 8);
  in.seekg(size - static_cast<std::streamoff>(footer_size));
  in.read(reinterpret_cast<char*>(tail.data()), static_cast<std::streamoff>(footer_size));
  if (!in) {
    throw StoreError("short read on " + path);
  }
  if (std::memcmp(head.data(), magic, 8) != 0) {
    throw StoreError("bad segment magic: " + path);
  }
  return tail;
}

SealedFooter ReadSealedFooterFromFile(const std::string& path) {
  constexpr char kSealMagic[8] = {'A', 'V', 'M', 'S', 'E', 'A', 'L', '\n'};
  return ParseSealedFooter(ReadFileTail(path, kSealMagic, kSegmentFooterSize));
}

// Makes directory-level operations (create/rename/unlink) durable.
void SyncDirectory(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

void WriteFileAtomically(const std::string& path, ByteView data, bool sync) {
  std::string tmp = path + ".tmp";
  {
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
      throw StoreError("cannot create " + tmp);
    }
    size_t written = data.empty() ? 0 : std::fwrite(data.data(), 1, data.size(), f);
    int flush_err = std::fflush(f);
    if (sync) {
      ::fsync(::fileno(f));
    }
    std::fclose(f);
    if (written != data.size() || flush_err != 0) {
      throw StoreError("short write on " + tmp);
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    throw StoreError("rename " + tmp + " failed: " + ec.message());
  }
  if (sync) {
    // The rename itself must survive a crash, not just the file bytes.
    SyncDirectory(fs::path(path).parent_path().string());
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// LogStore
// ---------------------------------------------------------------------------

void LogStore::WriteAuxFile(const std::string& path, ByteView data, bool sync) {
  WriteFileAtomically(path, data, sync);
}

void LogStore::WriteAuxFileBatched(const std::string& path, ByteView data) {
  {
    // Aux files ride the store's durability machinery, so they obey the
    // same poisoning rule: a store that failed a write refuses to
    // accept checkpoints until reopened (the caller must not believe a
    // checkpoint is durable when the store cannot promise anything).
    std::lock_guard<std::mutex> lk(state_mu_);
    CheckWritableLocked();
    switch (FaultAt("aux-write", 0)) {
      case StoreFaultAction::kNone:
        break;
      case StoreFaultAction::kIoError:
      case StoreFaultAction::kShortWrite:
        // Transient: the file is untouched, a retry may succeed.
        throw StoreError("injected aux-write failure on " + path);
      case StoreFaultAction::kFsyncFail:
      case StoreFaultAction::kCrash:
        write_failed_ = true;
        throw StoreError("injected crash during aux write in " + dir_ + "; reopen to recover");
    }
  }
  // Rename now (readers immediately see the complete new file), fsync
  // at the store's next group commit.
  WriteFileAtomically(path, data, /*sync=*/false);
  if (!opts_.sync) {
    return;
  }
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    pending_aux_.push_back(path);
  }
  flusher_cv_.notify_all();
}

std::optional<Bytes> LogStore::ReadAuxFile(const std::string& path) {
  if (!fs::exists(path)) {
    return std::nullopt;
  }
  return ReadFileBytes(path);
}

LogStore::LogStore(std::string dir, NodeId node, LogStoreOptions opts)
    : dir_(std::move(dir)), node_(std::move(node)), opts_(std::move(opts)) {
  if (opts_.index_every == 0) {
    opts_.index_every = 1;
  }
}

std::unique_ptr<LogStore> LogStore::Open(const std::string& dir, const NodeId& node,
                                         LogStoreOptions opts) {
  // Constructor is private; no make_unique.
  std::unique_ptr<LogStore> store(new LogStore(dir, node, std::move(opts)));
  store->Recover();
  store->RegisterObsMetrics();
  store->StartBackground();
  return store;
}

std::unique_ptr<LogStore> LogStore::Open(const std::string& dir, LogStoreOptions opts) {
  return Open(dir, NodeId(), std::move(opts));
}

LogStore::~LogStore() {
  // Shutdown order: stop the delay flusher, drain the sealer pool (so
  // no background thread touches the active file), then close the
  // active file and settle batched aux syncs.
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    stopping_ = true;
  }
  flusher_cv_.notify_all();
  if (flusher_.joinable()) {
    flusher_.join();
  }
  if (pool_) {
    try {
      pool_->Wait();
    } catch (...) {
    }
    pool_.reset();
  }
  std::unique_lock<std::mutex> lk(state_mu_);
  CloseActiveFileLocked();
  try {
    DrainAuxLocked(lk);
  } catch (...) {
  }
}

void LogStore::RegisterObsMetrics() {
  auto& reg = obs::Registry::Global();
  const obs::Labels labels{{"node", std::string(node_)}};
  obs_.appends = reg.GetCounter("store_appends_total", labels);
  obs_.group_commits = reg.GetCounter("store_group_commits_total", labels);
  obs_.seals = reg.GetCounter("store_seals_total", labels);
  obs_.segment_loads = reg.GetCounter("store_segment_loads_total", labels);
  // §6.11's lag, at the storage layer: how far acknowledged appends run
  // ahead of the durability watermark. Lock-free reads, so the
  // callbacks are safe from a snapshot on any thread at any time.
  obs_handles_.push_back(reg.RegisterCallbackGauge(
      "store_last_seq", labels,
      [this] { return static_cast<int64_t>(last_seq_.load(std::memory_order_acquire)); }));
  obs_handles_.push_back(reg.RegisterCallbackGauge(
      "store_durable_seq", labels,
      [this] { return static_cast<int64_t>(durable_seq_.load(std::memory_order_acquire)); }));
  obs_handles_.push_back(reg.RegisterCallbackGauge("store_watermark_lag_entries", labels, [this] {
    const uint64_t last = last_seq_.load(std::memory_order_acquire);
    const uint64_t durable = durable_seq_.load(std::memory_order_acquire);
    return static_cast<int64_t>(last - std::min(durable, last));
  }));
}

StoreFaultAction LogStore::FaultAt(const char* point, uint64_t seq) const {
  if (!opts_.fault_hook) {
    return StoreFaultAction::kNone;
  }
  return opts_.fault_hook({point, seq});
}

void LogStore::CheckWritableLocked() const {
  if (!background_error_.empty()) {
    throw StoreError(background_error_);
  }
  if (write_failed_) {
    throw StoreError("LogStore: store is poisoned after a failed write; reopen it");
  }
}

void LogStore::AdvanceDurable(uint64_t seq) {
  uint64_t cur = durable_seq_.load(std::memory_order_relaxed);
  while (cur < seq && !durable_seq_.compare_exchange_weak(cur, seq, std::memory_order_release,
                                                          std::memory_order_relaxed)) {
  }
}

void LogStore::RecordBackgroundError(const char* stage) {
  std::string what = "unknown error";
  try {
    throw;
  } catch (const std::exception& e) {
    what = e.what();
  } catch (...) {
  }
  std::lock_guard<std::mutex> lk(state_mu_);
  if (background_error_.empty()) {
    background_error_ = std::string(stage) + ": " + what;
  }
}

void LogStore::Recover() {
  fs::create_directories(dir_);

  // Node identity: persisted on first open, checked on reopen.
  std::string meta_path = (fs::path(dir_) / kMetaName).string();
  if (fs::exists(meta_path)) {
    Bytes meta = ReadFileBytes(meta_path);
    if (meta.size() < 8 || std::memcmp(meta.data(), kMetaMagic, 8) != 0) {
      throw StoreError("bad store.meta magic in " + dir_);
    }
    NodeId stored;
    try {
      Reader r(ByteView(meta).subspan(8));
      stored = r.Str();
      r.ExpectEnd();
    } catch (const SerdeError& e) {
      throw StoreError(std::string("malformed store.meta: ") + e.what());
    }
    if (!node_.empty() && node_ != stored) {
      throw StoreError("store in " + dir_ + " belongs to node '" + stored + "', not '" + node_ +
                       "'");
    }
    node_ = stored;
  } else {
    if (node_.empty()) {
      throw StoreError("no store.meta in " + dir_ + " and no node name given");
    }
    Writer w;
    w.Raw(ByteView(reinterpret_cast<const uint8_t*>(kMetaMagic), 8));
    w.Str(node_);
    WriteFileAtomically(meta_path, w.bytes(), opts_.sync);
  }

  // Enumerate segment files, reading each one once: whole-file bytes
  // for raw .log segments (bounded by the seal threshold each), footer
  // only for sealed ones. A leftover .tmp is an interrupted promotion;
  // a .log shadowed by a .seal of the same first seq is the other half
  // of that crash window — the sealed copy is complete (it was renamed
  // into place atomically), so the raw file is dropped.
  struct FoundSegment {
    std::string log_path;
    Bytes log_bytes;
    std::string seal_path;
    SealedFooter footer;
  };
  std::map<uint64_t, FoundSegment> by_seq;
  for (const fs::directory_entry& de : fs::directory_iterator(dir_)) {
    std::string name = de.path().filename().string();
    if (name.ends_with(".tmp")) {
      fs::remove(de.path());
      continue;
    }
    if (!name.starts_with("seg-")) {
      continue;
    }
    if (name.ends_with(".log")) {
      Bytes f = ReadFileBytes(de.path().string());
      if (f.size() < kSegmentHeaderSize ||
          std::all_of(f.begin(), f.begin() + kSegmentHeaderSize,
                      [](uint8_t b) { return b == 0; })) {
        // Torn during segment creation (a preallocated file can reach
        // disk before its header): no group commit covered it yet, so
        // dropping the file loses nothing.
        fs::remove(de.path());
        recovered_torn_tail_ = true;
        continue;
      }
      FoundSegment& found = by_seq[DecodeSegmentHeader(f).first_seq];
      found.log_path = de.path().string();
      found.log_bytes = std::move(f);
    } else if (name.ends_with(".seal")) {
      SealedFooter footer = ReadSealedFooterFromFile(de.path().string());
      FoundSegment& found = by_seq[footer.first_seq];
      found.seal_path = de.path().string();
      found.footer = footer;
    }
  }

  std::map<uint64_t, Bytes> raw_bytes;
  for (auto& [first_seq, found] : by_seq) {
    SegmentState seg;
    seg.first_seq = first_seq;
    if (!found.seal_path.empty()) {
      // The sealed copy wins; a raw copy of the same segment is the
      // un-unlinked half of an interrupted promotion.
      if (!found.log_path.empty()) {
        fs::remove(found.log_path);
      }
      seg.path = found.seal_path;
      seg.tier = Tier::kSealed;
      seg.last_seq = found.footer.last_seq;
      seg.prior_hash = found.footer.prior_hash;
      seg.chain_hash = found.footer.chain_hash;
    } else {
      seg.path = found.log_path;
      seg.tier = Tier::kActive;  // Raw; split into rolled/active below.
      raw_bytes[first_seq] = std::move(found.log_bytes);
    }
    segments_.push_back(std::move(seg));
  }

  // Validate the chain of segment boundaries and recover raw segments.
  // Any raw segment before the last is one an interrupted promotion
  // left rolled-but-unsealed; it must be complete (it was flushed
  // durably before the next segment started), and StartBackground
  // re-enqueues it for promotion.
  uint64_t expect_seq = 1;
  Hash256 expect_hash = Hash256::Zero();
  for (size_t i = 0; i < segments_.size(); i++) {
    SegmentState& seg = segments_[i];
    if (seg.first_seq != expect_seq) {
      throw StoreError("store is missing a segment before seq " + std::to_string(seg.first_seq));
    }
    if (seg.tier == Tier::kActive) {
      bool is_last = i + 1 == segments_.size();
      const Bytes& file = raw_bytes[seg.first_seq];
      ActiveScan scan = ScanActiveSegment(file, opts_.index_every);
      if (scan.torn && !is_last) {
        throw StoreError("rolled segment " + seg.path + " is torn mid-store");
      }
      recovered_torn_tail_ |= scan.torn;
      if (kSegmentHeaderSize + scan.valid_bytes != file.size()) {
        // Cut a torn tail or a preallocated zero tail back to the last
        // whole record.
        fs::resize_file(seg.path, kSegmentHeaderSize + scan.valid_bytes);
      }
      seg.last_seq = scan.last_seq;
      seg.prior_hash = scan.header.prior_hash;
      seg.chain_hash = scan.chain_hash;
      seg.entry_count = scan.entry_count;
      seg.stream_bytes = scan.valid_bytes;
      seg.index = std::move(scan.index);
      if (is_last) {
        active_stream_bytes_ = scan.valid_bytes;
        active_entry_count_ = scan.entry_count;
        active_index_ = seg.index;
        OpenActiveFileLocked(seg.path, {});
      } else {
        seg.tier = Tier::kRolled;
      }
    }
    if (seg.prior_hash != expect_hash) {
      throw StoreError("segment boundary hash mismatch at seq " + std::to_string(seg.first_seq));
    }
    expect_seq = seg.last_seq + 1;
    expect_hash = seg.chain_hash;
  }
  last_seq_.store(expect_seq - 1, std::memory_order_release);
  last_hash_ = expect_hash;
  // Everything that survived recovery is on disk by definition.
  durable_seq_.store(expect_seq - 1, std::memory_order_release);
}

void LogStore::StartBackground() {
  pool_ = std::make_unique<ThreadPool>(opts_.sealer_threads + 1);
  std::vector<size_t> rolled;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    for (size_t i = 0; i < segments_.size(); i++) {
      if (segments_[i].tier == Tier::kRolled) {
        rolled.push_back(i);
      }
    }
  }
  for (size_t idx : rolled) {
    EnqueuePromotion(idx);
  }
  if (opts_.group_commit.max_delay_ms > 0) {
    flusher_ = std::thread([this] { FlusherLoop(); });
  }
}

void LogStore::StartSegmentLocked() {
  SegmentState seg;
  seg.first_seq = last_seq_.load(std::memory_order_relaxed) + 1;
  seg.last_seq = seg.first_seq - 1;
  seg.prior_hash = last_hash_;
  seg.chain_hash = last_hash_;
  seg.path = (fs::path(dir_) / SegName(seg.first_seq, "log")).string();
  OpenActiveFileLocked(seg.path, EncodeSegmentHeader({seg.first_seq, seg.prior_hash}));
  active_stream_bytes_ = 0;
  active_entry_count_ = 0;
  active_index_.clear();
  segments_.push_back(std::move(seg));
}

void LogStore::OpenActiveFileLocked(const std::string& path, ByteView header) {
  const bool create = !header.empty();
  active_fd_ = ::open(path.c_str(), O_RDWR | O_CLOEXEC | (create ? O_CREAT | O_TRUNC : 0), 0644);
  if (active_fd_ < 0) {
    throw StoreError((create ? "cannot create segment " : "cannot reopen active segment ") + path);
  }
  if (create && ::pwrite(active_fd_, header.data(), header.size(), 0) !=
                    static_cast<ssize_t>(header.size())) {
    ::close(active_fd_);
    active_fd_ = -1;
    throw StoreError("short write on " + path);
  }
  active_needs_prepare_ = opts_.sync;
}

void LogStore::PrepareActiveForCommitLocked() {
  if (!active_needs_prepare_) {
    return;
  }
  active_needs_prepare_ = false;
  // Best effort: without the preallocation, appends still extend the
  // file correctly, only each data sync then carries a size update.
  const off_t extent =
      static_cast<off_t>(kSegmentHeaderSize + opts_.seal_threshold_bytes + kPreallocSlackBytes);
  (void)::fallocate(active_fd_, 0, 0, extent);
  // POSIX makes a new file's name durable only with an fsync of its
  // directory.
  SyncDirectory(dir_);
  FaultAt("post-dir-sync", last_seq_.load(std::memory_order_relaxed));
}

bool LogStore::WritePendingLocked() const {
  const off_t at =
      static_cast<off_t>(kSegmentHeaderSize + active_stream_bytes_ - pending_.size());
  size_t done = 0;
  while (done < pending_.size()) {
    ssize_t n = ::pwrite(active_fd_, pending_.data() + done, pending_.size() - done,
                         at + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    done += static_cast<size_t>(n);
  }
  pending_.clear();
  return true;
}

void LogStore::Append(const LogEntry& e) {
  size_t promote = kNoSegment;
  {
    std::unique_lock<std::mutex> lk(state_mu_);
    CheckWritableLocked();
    if (e.seq != last_seq_.load(std::memory_order_relaxed) + 1) {
      throw StoreError("LogStore::Append: expected seq " +
                       std::to_string(last_seq_.load(std::memory_order_relaxed) + 1) + ", got " +
                       std::to_string(e.seq));
    }
    if (active_fd_ < 0) {
      StartSegmentLocked();
    }
    const size_t record_at = pending_.size();
    EncodeRecord(e, pending_);
    const size_t record_size = pending_.size() - record_at;
    switch (FaultAt("append-write", e.seq)) {
      case StoreFaultAction::kNone:
      case StoreFaultAction::kFsyncFail:  // No durability barrier here.
        break;
      case StoreFaultAction::kIoError:
      case StoreFaultAction::kShortWrite:
        // Drop the frame so no part of it can sit in front of a retried
        // append (recovery would then truncate everything after it,
        // including acknowledged entries).
        pending_.resize(record_at);
        throw StoreError("short write on " + segments_.back().path);
      case StoreFaultAction::kCrash:
        pending_.resize(record_at);
        write_failed_ = true;
        throw StoreError("injected crash during append in " + dir_ + "; reopen to recover");
    }
    // State (including the sparse-index waypoint) advances only once the
    // record is accepted, so a failed append leaves no residue.
    if (active_entry_count_ % opts_.index_every == 0) {
      active_index_.push_back({e.seq, active_stream_bytes_});
    }
    active_stream_bytes_ += record_size;
    active_entry_count_++;
    obs_.appends->Inc();
    last_hash_ = e.hash;
    last_seq_.store(e.seq, std::memory_order_release);
    segments_.back().last_seq = e.seq;
    segments_.back().chain_hash = e.hash;
    batch_.Add(record_size, e.seq);
    if (active_stream_bytes_ >= opts_.seal_threshold_bytes) {
      promote = RollActiveLocked();
    } else if (batch_.ThresholdDue(opts_.group_commit)) {
      CommitLocked(lk, /*forced=*/false);
    } else if (pending_.size() >= kWriteChunkBytes && !WritePendingLocked()) {
      write_failed_ = true;
      throw StoreError("write failed on " + segments_.back().path + "; reopen to recover");
    }
  }
  if (promote != kNoSegment) {
    FaultAt("post-roll", e.seq);
    EnqueuePromotion(promote);
  }
}

bool LogStore::DatasyncActiveOffLock(std::unique_lock<std::mutex>& lk) {
  if (!opts_.sync || active_fd_ < 0) {
    return true;
  }
  int fd = active_fd_;
  uint64_t gen = active_gen_;
  lk.unlock();
  bool ok = true;
  {
    std::lock_guard<std::mutex> fl(flush_mu_);
    // If the file was closed meanwhile, the close path fsynced it. The
    // file's size already covers the records (preallocated, or set by
    // the write), so a data sync is a complete barrier for them.
    if (gen == active_gen_) {
      ok = ::fdatasync(fd) == 0;
    }
  }
  lk.lock();
  return ok;
}

void LogStore::CommitLocked(std::unique_lock<std::mutex>& lk, bool forced) {
  if (active_fd_ >= 0 && (forced || !batch_.Empty())) {
    obs::Span span(obs::kPhaseStoreFlushWait, "store");
    obs_.group_commits->Inc();
    const uint64_t target = forced ? last_seq_.load(std::memory_order_relaxed) : batch_.last_seq();
    if (FaultAt("group-commit", target) != StoreFaultAction::kNone) {
      // Any injected fault at the durability barrier has fsync-failure
      // semantics: the watermark must not advance, and the store cannot
      // trust the file's state — poison until reopened.
      write_failed_ = true;
      throw StoreError("injected group-commit failure in " + dir_ + "; reopen to recover");
    }
    // A commit that fails has NOT made the acknowledged entries durable;
    // callers must hear about it.
    PrepareActiveForCommitLocked();
    if (!WritePendingLocked()) {
      write_failed_ = true;
      throw StoreError("group-commit write failed on " + segments_.back().path);
    }
    batch_.Clear();
    if (!DatasyncActiveOffLock(lk)) {
      write_failed_ = true;
      throw StoreError("group-commit fdatasync failed in " + dir_);
    }
    AdvanceDurable(target);
    FaultAt("post-flush", target);
  }
  if (forced) {
    // Everything below last_seq_ is now either in the just-flushed
    // active file or in a segment that was flushed durably when it
    // rolled.
    AdvanceDurable(last_seq_.load(std::memory_order_relaxed));
  }
  DrainAuxLocked(lk);
}

void LogStore::Flush() {
  std::unique_lock<std::mutex> lk(state_mu_);
  CheckWritableLocked();
  CommitLocked(lk, /*forced=*/true);
}

void LogStore::DrainAuxLocked(std::unique_lock<std::mutex>& lk) {
  if (!opts_.sync) {
    pending_aux_.clear();
    return;
  }
  if (pending_aux_.empty()) {
    return;
  }
  if (FaultAt("aux-sync", 0) != StoreFaultAction::kNone) {
    write_failed_ = true;
    throw StoreError("injected aux-sync failure in " + dir_ + "; reopen to recover");
  }
  std::vector<std::string> paths;
  paths.swap(pending_aux_);
  lk.unlock();
  std::set<std::string> dirs;
  for (const std::string& p : paths) {
    int fd = ::open(p.c_str(), O_RDONLY);
    if (fd >= 0) {
      ::fsync(fd);
      ::close(fd);
    }
    dirs.insert(fs::path(p).parent_path().string());
  }
  for (const std::string& d : dirs) {
    SyncDirectory(d);
  }
  lk.lock();
}

size_t LogStore::RollActiveLocked() {
  if (active_fd_ < 0) {
    return kNoSegment;
  }
  SegmentState& seg = segments_.back();
  // The rolled segment must be durable before a new one starts: the
  // watermark says "every seq at or below is on stable storage", and a
  // rolled file never sees another flush.
  if (FaultAt("roll", seg.last_seq) != StoreFaultAction::kNone) {
    write_failed_ = true;
    throw StoreError("injected roll failure on " + seg.path + "; reopen to recover");
  }
  seg.entry_count = active_entry_count_;
  seg.stream_bytes = active_stream_bytes_;
  seg.index = std::move(active_index_);
  PrepareActiveForCommitLocked();
  if (!CloseActiveFileLocked()) {
    write_failed_ = true;
    throw StoreError("flush failed while rolling " + seg.path);
  }
  seg.tier = Tier::kRolled;
  AdvanceDurable(seg.last_seq);
  batch_.Clear();
  return segments_.size() - 1;
}

bool LogStore::CloseActiveFileLocked() {
  std::lock_guard<std::mutex> fl(flush_mu_);
  bool ok = true;
  if (active_fd_ >= 0) {
    // Only a syncing store preallocates; a full fsync, because the
    // truncate can change the file's size.
    ok = WritePendingLocked() &&
         (!opts_.sync ||
          (::ftruncate(active_fd_, static_cast<off_t>(kSegmentHeaderSize + active_stream_bytes_)) ==
               0 &&
           ::fsync(active_fd_) == 0));
    ::close(active_fd_);
    active_fd_ = -1;
    active_gen_++;
  }
  pending_.clear();
  active_stream_bytes_ = 0;
  active_entry_count_ = 0;
  active_index_.clear();
  return ok;
}

void LogStore::EnqueuePromotion(size_t seg_index) {
  pool_->Submit([this, seg_index] {
    try {
      PromoteToSealed(seg_index);
    } catch (...) {
      RecordBackgroundError("sealer");
    }
  });
}

void LogStore::PromoteToSealed(size_t seg_index) {
  std::string log_path;
  SegmentHeader header;
  uint64_t entry_count = 0;
  uint64_t last_seq = 0;
  Hash256 chain_hash;
  std::vector<SparseIndexEntry> index;
  size_t stream_bytes = 0;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    SegmentState& seg = segments_[seg_index];
    if (seg.tier != Tier::kRolled) {
      return;  // Already promoted (e.g. re-enqueued after recovery).
    }
    log_path = seg.path;
    header = {seg.first_seq, seg.prior_hash};
    entry_count = seg.entry_count;
    last_seq = seg.last_seq;
    chain_hash = seg.chain_hash;
    index = seg.index;
    stream_bytes = seg.stream_bytes;
  }
  // The rolled file is immutable; read and compress it off the lock so
  // the recording thread never waits on LZSS.
  obs::Span span(obs::kPhaseStoreSeal, "store");
  obs_.seals->Inc();
  Bytes file = ReadFileBytes(log_path);
  if (file.size() != kSegmentHeaderSize + stream_bytes) {
    throw StoreError("on-disk size of " + log_path + " disagrees with the appended records");
  }
  ByteView records = ByteView(file).subspan(kSegmentHeaderSize);
  Bytes sealed = EncodeSealedSegment(header, records, index, entry_count, last_seq, chain_hash,
                                     opts_.compress_sealed);
  std::string sealed_path = (fs::path(dir_) / SegName(header.first_seq, "seal")).string();
  FaultAt("pre-seal-rename", last_seq);
  WriteFileAtomically(sealed_path, sealed, opts_.sync);
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    SegmentState& seg = segments_[seg_index];
    seg.path = sealed_path;
    seg.tier = Tier::kSealed;
    seg.index.clear();
    seg.index.shrink_to_fit();
  }
  FaultAt("pre-seal-unlink", last_seq);
  fs::remove(log_path);
  if (opts_.sync) {
    SyncDirectory(dir_);
  }
}

void LogStore::Seal() {
  size_t promote = kNoSegment;
  {
    std::unique_lock<std::mutex> lk(state_mu_);
    CheckWritableLocked();
    if (active_fd_ >= 0) {
      if (active_entry_count_ == 0) {
        // Nothing recorded; drop the empty file instead of sealing it.
        std::string path = segments_.back().path;
        CloseActiveFileLocked();
        segments_.pop_back();
        lk.unlock();
        fs::remove(path);
        lk.lock();
      } else {
        promote = RollActiveLocked();
      }
    }
  }
  if (promote != kNoSegment) {
    EnqueuePromotion(promote);
  }
  // Barrier: every pending promotion (including ones other rolls
  // enqueued) finishes before Seal returns.
  if (pool_) {
    pool_->Wait();
  }
  std::unique_lock<std::mutex> lk(state_mu_);
  if (!background_error_.empty()) {
    throw StoreError(background_error_);
  }
  DrainAuxLocked(lk);
}

void LogStore::FlusherLoop() {
  std::unique_lock<std::mutex> lk(state_mu_);
  while (!stopping_) {
    uint32_t delay_ms = opts_.group_commit.max_delay_ms;
    flusher_cv_.wait_for(lk, std::chrono::milliseconds(delay_ms > 0 ? delay_ms : 50),
                         [this] { return stopping_; });
    if (stopping_) {
      break;
    }
    if (write_failed_ || !background_error_.empty()) {
      continue;
    }
    if (batch_.DelayDue(opts_.group_commit) || !pending_aux_.empty()) {
      try {
        CommitLocked(lk, /*forced=*/false);
      } catch (const std::exception& e) {
        if (background_error_.empty()) {
          background_error_ = std::string("flusher: ") + e.what();
        }
      }
    }
  }
}

std::optional<Hash256> LogStore::SinkLastHash() const {
  std::lock_guard<std::mutex> lk(state_mu_);
  return last_seq_.load(std::memory_order_relaxed) == 0 ? std::nullopt
                                                        : std::optional<Hash256>(last_hash_);
}

Hash256 LogStore::LastHash() const {
  std::lock_guard<std::mutex> lk(state_mu_);
  return last_hash_;
}

size_t LogStore::SegmentCount() const {
  std::lock_guard<std::mutex> lk(state_mu_);
  return segments_.size();
}

size_t LogStore::SealedCount() const {
  std::lock_guard<std::mutex> lk(state_mu_);
  size_t n = 0;
  for (const SegmentState& s : segments_) {
    n += s.tier == Tier::kSealed ? 1 : 0;
  }
  return n;
}

uint64_t LogStore::DiskBytes() const {
  std::lock_guard<std::mutex> lk(state_mu_);
  uint64_t total = 0;
  for (const SegmentState& s : segments_) {
    switch (s.tier) {
      case Tier::kSealed: {
        std::error_code ec;
        uint64_t sz = fs::file_size(s.path, ec);
        total += ec ? 0 : sz;
        break;
      }
      case Tier::kRolled:
        total += kSegmentHeaderSize + s.stream_bytes;
        break;
      case Tier::kActive:
        total += kSegmentHeaderSize + active_stream_bytes_;
        break;
    }
  }
  return total;
}

const LogStore::SegmentState* LogStore::SegmentContainingLocked(uint64_t seq) const {
  for (const SegmentState& s : segments_) {
    if (seq >= s.first_seq && seq <= s.last_seq) {
      return &s;
    }
  }
  return nullptr;
}

LogStore::SegSnapshot LogStore::SnapshotSegment(uint64_t first_seq) const {
  std::lock_guard<std::mutex> lk(state_mu_);
  for (const SegmentState& s : segments_) {
    if (s.first_seq == first_seq) {
      SegSnapshot snap;
      snap.path = s.path;
      snap.tier = s.tier;
      snap.first_seq = s.first_seq;
      snap.valid_bytes = s.stream_bytes;
      if (s.tier == Tier::kActive) {
        // Write pending records so the read below sees them; a reader
        // parses only bytes that reached the file (past them lie
        // preallocated zeros or nothing). If the write fails, the read
        // sees just the records written before it.
        if (active_fd_ >= 0) {
          WritePendingLocked();
        }
        snap.valid_bytes = active_stream_bytes_ - pending_.size();
      }
      return snap;
    }
  }
  throw StoreError("segment starting at seq " + std::to_string(first_seq) + " vanished");
}

LogStore::LoadedRecords LogStore::LoadSegment(const SegSnapshot& snap) const {
  obs_.segment_loads->Inc();
  // A raw segment's records end at valid_bytes; an active file may run
  // on into preallocated zeros, which are not read.
  Bytes file = snap.tier == Tier::kActive || snap.tier == Tier::kRolled
                   ? ReadFileBytes(snap.path, kSegmentHeaderSize + snap.valid_bytes)
                   : ReadFileBytes(snap.path);
  LoadedRecords out;
  switch (snap.tier) {
    case Tier::kActive:
    case Tier::kRolled: {
      DecodeSegmentHeader(file);
      size_t avail = file.size() - kSegmentHeaderSize;
      size_t take = std::min(avail, snap.valid_bytes);
      out.records.assign(file.begin() + static_cast<ptrdiff_t>(kSegmentHeaderSize),
                         file.begin() + static_cast<ptrdiff_t>(kSegmentHeaderSize + take));
      break;
    }
    case Tier::kSealed: {
      SealedInfo info = ReadSealedInfo(file);
      out.records = ReadSealedRecords(file, info);
      out.index = std::move(info.index);
      break;
    }
  }
  return out;
}

LogStore::LoadedRecords LogStore::LoadSegmentBySeq(uint64_t first_seq) const {
  // Promotion can unlink the snapshotted path between the snapshot and
  // the open; re-resolve against the live segment table and retry. A
  // genuinely unreadable segment fails every attempt and rethrows.
  for (int attempt = 0;; attempt++) {
    SegSnapshot snap = SnapshotSegment(first_seq);
    try {
      return LoadSegment(snap);
    } catch (const StoreError&) {
      if (attempt >= 4) {
        throw;
      }
    }
  }
}

SegmentCursor LogStore::Cursor(uint64_t from_seq, uint64_t to_seq) const {
  if (from_seq == 0 || from_seq > to_seq || to_seq > LastSeq()) {
    throw std::out_of_range("LogStore::Cursor: bad range");
  }
  Hash256 prior;
  bool prior_from_entry = false;
  std::vector<uint64_t> seg_seqs;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    const SegmentState* first_seg = SegmentContainingLocked(from_seq);
    if (first_seg == nullptr) {
      throw StoreError("LogStore::Cursor: range start not in store");
    }
    // h_{from-1}: the segment boundary hash when the range starts a
    // segment, else the stored hash of the entry just before the range.
    if (from_seq == first_seg->first_seq) {
      prior = first_seg->prior_hash;
    } else {
      prior_from_entry = true;
    }
    for (const SegmentState& s : segments_) {
      if (s.last_seq >= from_seq && s.first_seq <= to_seq && s.last_seq >= s.first_seq) {
        seg_seqs.push_back(s.first_seq);
      }
    }
  }
  SegmentCursor cur(this, std::move(seg_seqs), from_seq, to_seq, prior);
  if (prior_from_entry) {
    // The entry before the range lies in the range's first segment:
    // step the cursor onto it (from the last waypoint at or before it),
    // so the one load of that segment serves the prior hash and the
    // range alike.
    cur.next_seq_ = from_seq - 1;
    cur.prior_hash_ = cur.Next()->hash;
  }
  return cur;
}

LogSegment LogStore::Extract(uint64_t from_seq, uint64_t to_seq) const {
  if (from_seq == 0 || from_seq > to_seq || to_seq > LastSeq()) {
    throw std::out_of_range("LogStore::Extract: bad range");
  }
  SegmentCursor cur = Cursor(from_seq, to_seq);
  LogSegment seg;
  seg.node = node_;
  seg.prior_hash = cur.prior_hash();
  seg.entries.reserve(to_seq - from_seq + 1);
  while (const LogEntry* e = cur.Next()) {
    seg.entries.push_back(*e);
  }
  return seg;
}

void LogStore::Scan(uint64_t from_seq, uint64_t to_seq, const EntryVisitor& visit) const {
  SegmentCursor cur = Cursor(from_seq, to_seq);
  while (const LogEntry* e = cur.Next()) {
    if (!visit(*e)) {
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// SegmentCursor
// ---------------------------------------------------------------------------

SegmentCursor::SegmentCursor(const LogStore* store, std::vector<uint64_t> seg_seqs,
                             uint64_t from_seq, uint64_t to_seq, Hash256 prior_hash)
    : store_(store),
      seg_seqs_(std::move(seg_seqs)),
      from_seq_(from_seq),
      to_seq_(to_seq),
      next_seq_(from_seq),
      prior_hash_(prior_hash) {}

bool SegmentCursor::LoadNextSegment() {
  if (next_seg_ >= seg_seqs_.size()) {
    return false;
  }
  uint64_t first_seq = seg_seqs_[next_seg_++];
  LogStore::LoadedRecords loaded = store_->LoadSegmentBySeq(first_seq);
  records_ = std::move(loaded.records);
  offset_ = 0;
  // Sparse index: jump to the last waypoint at or before the first seq
  // this cursor still needs, instead of decoding from the segment start.
  uint64_t target = std::max(next_seq_, first_seq);
  for (const SparseIndexEntry& ie : loaded.index) {
    if (ie.seq <= target && ie.offset < records_.size()) {
      offset_ = ie.offset;
    }
  }
  return true;
}

const LogEntry* SegmentCursor::Next() {
  if (done_ || next_seq_ > to_seq_) {
    done_ = true;
    return nullptr;
  }
  for (;;) {
    if (offset_ >= records_.size()) {
      if (!LoadNextSegment()) {
        throw StoreError("log store cursor: store ends before seq " + std::to_string(next_seq_));
      }
      continue;
    }
    DecodeRecordInto(records_, &offset_, current_);
    if (current_.seq < next_seq_) {
      continue;  // Skipping entries before the range (or index waypoint).
    }
    if (current_.seq != next_seq_) {
      throw StoreError("log store cursor: sequence gap at seq " + std::to_string(current_.seq));
    }
    next_seq_++;
    return &current_;
  }
}

}  // namespace avm
