// On-disk formats of the segmented log store.
//
// An *active* segment is a fixed header plus a stream of CRC-framed
// records, one per log entry, appended as the machine executes:
//
//   header  := magic8 "AVMSEG1\n" | u64 first_seq | prior_hash (32)
//   record  := u32 payload_len | u32 crc32c(payload) | payload
//   payload := u64 seq | u8 type | blob content | hash (32)
//
// From its first group commit on, the active segment of a store that
// syncs is preallocated past the seal threshold, so until it rolls its
// stream may be followed by a tail of zero bytes. A record's payload_len is never 0, so at a record
// boundary a zero length followed only by zeros is the clean end of the
// stream, not a torn record. Rolled and sealed files never carry the
// tail: rolling truncates the file to header + stream bytes.
//
// Sealing compresses the record stream with the §6.4 LZSS stage and
// appends a sparse seq->offset index plus a fixed-size footer, so a
// reader can find the chain state at the segment boundary (and locate
// any entry) from the last 128 bytes of the file, without decompressing
// anything but the one segment it actually needs:
//
//   sealed  := magic8 "AVMSEAL\n" | u32 flags | body | index | footer
//   body    := LZSS(record stream)            (flags bit 0: compressed)
//   index   := u32 n | n * (u64 seq, u64 offset into record stream)
//   footer  := u64 entry_count | u64 first_seq | u64 last_seq
//            | prior_hash (32) | chain_hash (32)
//            | u64 body_len | u64 index_offset
//            | u32 body_crc | u32 footer_crc | magic8 "AVMFTR1\n"
//
// Everything here operates on in-memory buffers (a segment is at most
// the seal threshold, so whole-file reads are bounded); LogStore owns
// the actual file I/O. All parsers treat input as untrusted and throw
// StoreError instead of reading out of bounds.
#ifndef SRC_STORE_SEGMENT_FILE_H_
#define SRC_STORE_SEGMENT_FILE_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/tel/log.h"
#include "src/util/bytes.h"

namespace avm {

class StoreError : public std::runtime_error {
 public:
  explicit StoreError(const std::string& what) : std::runtime_error(what) {}
};

constexpr size_t kSegmentHeaderSize = 8 + 8 + 32;
constexpr size_t kSegmentFooterSize = 8 * 3 + 32 * 2 + 8 * 2 + 4 + 4 + 8;
constexpr uint32_t kSealedFlagLzss = 1u << 0;

struct SegmentHeader {
  uint64_t first_seq = 1;
  Hash256 prior_hash;  // h_{first_seq - 1}; Zero when first_seq == 1.
};

Bytes EncodeSegmentHeader(const SegmentHeader& h);
SegmentHeader DecodeSegmentHeader(ByteView file);

// One sparse-index waypoint: the record for `seq` starts at `offset`
// bytes into the segment's (uncompressed) record stream.
struct SparseIndexEntry {
  uint64_t seq = 0;
  uint64_t offset = 0;
};

// Appends the CRC-framed record for `e` to `out`.
void EncodeRecord(const LogEntry& e, Bytes& out);

// Parses the record starting at `*offset` into `e` and advances
// `*offset` past it. `e`'s content buffer is reused, so a reader that
// decodes into one entry allocates only when an entry outgrows every
// earlier one. Throws StoreError on truncation, CRC mismatch or a
// malformed payload; `e` is then left partly overwritten and `*offset`
// unchanged.
void DecodeRecordInto(ByteView stream, size_t* offset, LogEntry& e);
// The same, into a fresh entry.
LogEntry DecodeRecordAt(ByteView stream, size_t* offset);

// Result of scanning an active segment file for recovery: everything up
// to `valid_bytes` of the record stream parsed cleanly; if `torn`, the
// bytes after that point are a torn or corrupt tail and must be
// truncated (standard write-ahead-log recovery: nothing after the first
// bad record can be trusted to be record-aligned). A preallocated zero
// tail also ends the scan, without `torn`.
struct ActiveScan {
  SegmentHeader header;
  uint64_t entry_count = 0;
  uint64_t last_seq = 0;  // == first_seq - 1 when the segment is empty.
  Hash256 chain_hash;     // Hash of the last entry (prior hash if empty).
  std::vector<SparseIndexEntry> index;  // Rebuilt, one every `index_every`.
  size_t valid_bytes = 0;               // Record-stream bytes, sans header.
  bool torn = false;
};

ActiveScan ScanActiveSegment(ByteView file, size_t index_every);

// Builds a sealed segment file image from an active segment's record
// stream and the metadata the writer tracked for it.
Bytes EncodeSealedSegment(const SegmentHeader& header, ByteView records,
                          const std::vector<SparseIndexEntry>& index, uint64_t entry_count,
                          uint64_t last_seq, const Hash256& chain_hash, bool compress);

// The fixed-size footer alone. Recovery reads just the tail of each
// sealed file (plus the leading magic) instead of the whole segment, so
// opening an epoch-scale store costs O(segments), not O(bytes).
struct SealedFooter {
  uint64_t entry_count = 0;
  uint64_t first_seq = 0;
  uint64_t last_seq = 0;
  Hash256 prior_hash;
  Hash256 chain_hash;
  uint64_t body_len = 0;
  uint64_t index_offset = 0;
  uint32_t body_crc = 0;
};

// Parses exactly kSegmentFooterSize bytes (magic + CRC validated).
SealedFooter ParseSealedFooter(ByteView footer);

// Footer + index of a sealed file (cheap: no body decompression).
struct SealedInfo {
  SegmentHeader header;
  uint64_t entry_count = 0;
  uint64_t last_seq = 0;
  Hash256 chain_hash;
  uint32_t flags = 0;
  size_t body_offset = 0;  // Into the file image.
  size_t body_len = 0;     // Compressed length.
  std::vector<SparseIndexEntry> index;
};

SealedInfo ReadSealedInfo(ByteView file);

// Decompresses and CRC-checks the record stream of a sealed file.
Bytes ReadSealedRecords(ByteView file, const SealedInfo& info);

}  // namespace avm

#endif  // SRC_STORE_SEGMENT_FILE_H_
