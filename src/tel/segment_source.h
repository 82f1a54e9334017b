// A read-only supplier of tamper-evident log entries for auditing.
//
// The auditor does not care whether a log lives in the recording
// machine's memory (the seed's only option) or in a durable segmented
// store on disk (src/store); it only ever extracts ranges and streams
// entries. This interface is that seam: `InMemorySegmentSource` wraps a
// live TamperEvidentLog, `LogStore` implements it straight off disk,
// and every Auditor entry point accepts either, so store-backed audits
// produce bit-for-bit the verdicts of the in-memory path.
#ifndef SRC_TEL_SEGMENT_SOURCE_H_
#define SRC_TEL_SEGMENT_SOURCE_H_

#include <stdexcept>

#include "src/tel/log.h"

namespace avm {

class SegmentSource {
 public:
  using EntryVisitor = avm::EntryVisitor;

  virtual ~SegmentSource() = default;

  // The machine whose log this is.
  virtual const NodeId& node() const = 0;

  virtual uint64_t LastSeq() const = 0;

  // Materializes entries [from_seq, to_seq] with the correct prior hash
  // (same contract as TamperEvidentLog::Extract, including throwing
  // std::out_of_range on a bad range).
  virtual LogSegment Extract(uint64_t from_seq, uint64_t to_seq) const = 0;

  // Streams entries [from_seq, to_seq] in order. Implementations hold
  // O(one segment) memory, not O(log), so syntactic scans work on logs
  // far larger than RAM.
  virtual void Scan(uint64_t from_seq, uint64_t to_seq, const EntryVisitor& visit) const = 0;

  // The *stored* chain hash h_seq of one entry (untrusted until the
  // chain rule verified it). Checkpointed audits (src/audit/checkpoint)
  // use this to anchor a resume watermark and to resolve authenticators
  // behind it without materializing a range.
  Hash256 HashAt(uint64_t seq) const {
    Hash256 h;
    bool found = false;
    Scan(seq, seq, [&](const LogEntry& e) {
      h = e.hash;
      found = true;
      return false;
    });
    if (!found) {
      throw std::out_of_range("SegmentSource::HashAt: seq not in log");
    }
    return h;
  }
};

// The trivial source: the log already in this process's memory (a
// spilled log reads what it no longer holds through its own sink).
class InMemorySegmentSource final : public SegmentSource {
 public:
  explicit InMemorySegmentSource(const TamperEvidentLog& log) : log_(&log) {}

  const NodeId& node() const override { return log_->owner(); }
  uint64_t LastSeq() const override { return log_->LastSeq(); }
  LogSegment Extract(uint64_t from_seq, uint64_t to_seq) const override {
    return log_->Extract(from_seq, to_seq);
  }
  void Scan(uint64_t from_seq, uint64_t to_seq, const EntryVisitor& visit) const override {
    log_->Scan(from_seq, to_seq, visit);
  }

 private:
  const TamperEvidentLog* log_;
};

}  // namespace avm

#endif  // SRC_TEL_SEGMENT_SOURCE_H_
