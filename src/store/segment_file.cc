#include "src/store/segment_file.h"

#include <algorithm>
#include <cstring>

#include "src/compress/lzss.h"
#include "src/util/crc32.h"
#include "src/util/serde.h"

namespace avm {

namespace {

constexpr char kHeaderMagic[8] = {'A', 'V', 'M', 'S', 'E', 'G', '1', '\n'};
constexpr char kSealedMagic[8] = {'A', 'V', 'M', 'S', 'E', 'A', 'L', '\n'};
constexpr char kFooterMagic[8] = {'A', 'V', 'M', 'F', 'T', 'R', '1', '\n'};

bool MagicAt(ByteView buf, size_t off, const char (&magic)[8]) {
  return buf.size() >= off + 8 && std::memcmp(buf.data() + off, magic, 8) == 0;
}

}  // namespace

Bytes EncodeSegmentHeader(const SegmentHeader& h) {
  Writer w;
  w.Raw(ByteView(reinterpret_cast<const uint8_t*>(kHeaderMagic), 8));
  w.U64(h.first_seq);
  w.Raw(h.prior_hash.view());
  return w.Take();
}

SegmentHeader DecodeSegmentHeader(ByteView file) {
  if (file.size() < kSegmentHeaderSize) {
    throw StoreError("segment header truncated");
  }
  if (!MagicAt(file, 0, kHeaderMagic)) {
    throw StoreError("bad segment magic");
  }
  SegmentHeader h;
  h.first_seq = GetU64(file, 8);
  h.prior_hash = Hash256::FromBytes(file.subspan(16, 32));
  if (h.first_seq == 0) {
    throw StoreError("segment header: sequence numbers are 1-based");
  }
  if (h.first_seq == 1 && !h.prior_hash.IsZero()) {
    throw StoreError("segment header: nonzero prior hash at seq 1");
  }
  return h;
}

void EncodeRecord(const LogEntry& e, Bytes& out) {
  // Framed in place: length, a CRC placeholder, then the payload
  // (LogSegment's per-entry encoding, e.WireSize() bytes); the CRC is
  // computed over the payload span and patched into the placeholder.
  const size_t frame_at = out.size();
  const size_t payload_len = e.WireSize();
  if (out.capacity() - frame_at < 8 + payload_len) {
    out.reserve(std::max(frame_at + 8 + payload_len, 2 * out.capacity()));
  }
  PutU32(out, static_cast<uint32_t>(payload_len));
  PutU32(out, 0);
  PutU64(out, e.seq);
  out.push_back(static_cast<uint8_t>(e.type));
  PutU32(out, static_cast<uint32_t>(e.content.size()));
  Append(out, e.content);
  Append(out, e.hash.view());
  StoreLe(out.data() + frame_at + 4, Crc32c(ByteView(out).subspan(frame_at + 8)));
}

void DecodeRecordInto(ByteView stream, size_t* offset, LogEntry& e) {
  if (stream.size() - *offset < 8) {
    throw StoreError("record frame truncated");
  }
  uint32_t len = GetU32(stream, *offset);
  uint32_t crc = GetU32(stream, *offset + 4);
  if (stream.size() - *offset - 8 < len) {
    throw StoreError("record payload truncated");
  }
  ByteView payload = stream.subspan(*offset + 8, len);
  if (Crc32c(payload) != crc) {
    throw StoreError("record CRC mismatch");
  }
  try {
    Reader r(payload);
    e.seq = r.U64();
    uint8_t t = r.U8();
    if (t < 1 || t > 8) {
      throw StoreError("record: bad entry type");
    }
    e.type = static_cast<EntryType>(t);
    ByteView content = r.BlobView();
    e.content.assign(content.begin(), content.end());
    std::memcpy(e.hash.v.data(), r.RawView(32).data(), 32);
    r.ExpectEnd();
  } catch (const SerdeError& err) {
    // A payload that passed its CRC but does not parse is corruption the
    // CRC cannot have caused; surface it as a store error all the same.
    throw StoreError(std::string("record payload malformed: ") + err.what());
  }
  if (e.seq == 0) {
    throw StoreError("record: sequence numbers are 1-based");
  }
  *offset += 8 + len;
}

LogEntry DecodeRecordAt(ByteView stream, size_t* offset) {
  LogEntry e;
  DecodeRecordInto(stream, offset, e);
  return e;
}

ActiveScan ScanActiveSegment(ByteView file, size_t index_every) {
  ActiveScan scan;
  scan.header = DecodeSegmentHeader(file);
  scan.last_seq = scan.header.first_seq - 1;
  scan.chain_hash = scan.header.prior_hash;
  if (index_every == 0) {
    index_every = 1;
  }
  ByteView stream = file.subspan(kSegmentHeaderSize);
  size_t offset = 0;
  LogEntry e;
  while (offset < stream.size()) {
    size_t record_at = offset;
    if (std::all_of(stream.begin() + static_cast<ptrdiff_t>(offset), stream.end(),
                    [](uint8_t b) { return b == 0; })) {
      // A zero payload_len and nothing but zeros after it: the
      // preallocated tail of a sync store's active segment, the clean
      // end of the stream. (A record's length is never 0.)
      break;
    }
    try {
      DecodeRecordInto(stream, &offset, e);
    } catch (const StoreError&) {
      scan.torn = true;
      break;
    }
    if (e.seq != scan.last_seq + 1) {
      // A record that decodes but skips ahead is not a torn write; still,
      // nothing after it can be trusted, so recovery cuts here too.
      scan.torn = true;
      break;
    }
    if (scan.entry_count % index_every == 0) {
      scan.index.push_back({e.seq, record_at});
    }
    scan.entry_count++;
    scan.last_seq = e.seq;
    scan.chain_hash = e.hash;
    scan.valid_bytes = offset;
  }
  return scan;
}

Bytes EncodeSealedSegment(const SegmentHeader& header, ByteView records,
                          const std::vector<SparseIndexEntry>& index, uint64_t entry_count,
                          uint64_t last_seq, const Hash256& chain_hash, bool compress) {
  Writer w;
  w.Raw(ByteView(reinterpret_cast<const uint8_t*>(kSealedMagic), 8));
  w.U32(compress ? kSealedFlagLzss : 0);
  Bytes body = compress ? LzssCompress(records) : Bytes(records.begin(), records.end());
  w.Raw(body);
  size_t index_offset = w.bytes().size();
  w.U32(static_cast<uint32_t>(index.size()));
  for (const SparseIndexEntry& ie : index) {
    w.U64(ie.seq);
    w.U64(ie.offset);
  }
  // Footer (fixed size, parsed back-to-front).
  size_t footer_at = w.bytes().size();
  w.U64(entry_count);
  w.U64(header.first_seq);
  w.U64(last_seq);
  w.Raw(header.prior_hash.view());
  w.Raw(chain_hash.view());
  w.U64(body.size());
  w.U64(index_offset);
  w.U32(Crc32c(body));
  Bytes out = w.Take();
  PutU32(out, Crc32c(ByteView(out).subspan(footer_at, out.size() - footer_at)));
  Append(out, ByteView(reinterpret_cast<const uint8_t*>(kFooterMagic), 8));
  return out;
}

SealedFooter ParseSealedFooter(ByteView footer) {
  if (footer.size() != kSegmentFooterSize) {
    throw StoreError("sealed-segment footer truncated");
  }
  if (!MagicAt(footer, kSegmentFooterSize - 8, kFooterMagic)) {
    throw StoreError("bad sealed-segment footer magic");
  }
  uint32_t footer_crc = GetU32(footer, kSegmentFooterSize - 12);
  if (Crc32c(footer.subspan(0, kSegmentFooterSize - 12)) != footer_crc) {
    throw StoreError("sealed-segment footer CRC mismatch");
  }
  SealedFooter f;
  f.entry_count = GetU64(footer, 0);
  f.first_seq = GetU64(footer, 8);
  f.last_seq = GetU64(footer, 16);
  f.prior_hash = Hash256::FromBytes(footer.subspan(24, 32));
  f.chain_hash = Hash256::FromBytes(footer.subspan(56, 32));
  f.body_len = GetU64(footer, 88);
  f.index_offset = GetU64(footer, 96);
  f.body_crc = GetU32(footer, 104);
  if (f.first_seq == 0) {
    throw StoreError("sealed segment: sequence numbers are 1-based");
  }
  if (f.first_seq == 1 && !f.prior_hash.IsZero()) {
    throw StoreError("sealed segment: nonzero prior hash at seq 1");
  }
  if (f.last_seq + 1 - f.first_seq != f.entry_count) {
    throw StoreError("sealed segment: entry count disagrees with seq range");
  }
  return f;
}

SealedInfo ReadSealedInfo(ByteView file) {
  if (file.size() < 8 + 4 + kSegmentFooterSize) {
    throw StoreError("sealed segment truncated");
  }
  if (!MagicAt(file, 0, kSealedMagic)) {
    throw StoreError("bad sealed-segment magic");
  }
  size_t footer_at = file.size() - kSegmentFooterSize;
  SealedFooter f = ParseSealedFooter(file.subspan(footer_at));
  SealedInfo info;
  info.flags = GetU32(file, 8);
  info.entry_count = f.entry_count;
  info.header.first_seq = f.first_seq;
  info.last_seq = f.last_seq;
  info.header.prior_hash = f.prior_hash;
  info.chain_hash = f.chain_hash;
  info.body_len = f.body_len;
  uint64_t index_offset = f.index_offset;
  info.body_offset = 8 + 4;
  if (index_offset < info.body_offset || index_offset > footer_at ||
      info.body_len != index_offset - info.body_offset) {
    throw StoreError("sealed segment: body extents out of bounds");
  }
  // Index: u32 count then (u64, u64) pairs, ending exactly at the footer.
  if (footer_at - index_offset < 4) {
    throw StoreError("sealed segment: index truncated");
  }
  uint32_t n = GetU32(file, index_offset);
  if ((footer_at - index_offset - 4) != static_cast<size_t>(n) * 16) {
    throw StoreError("sealed segment: index extents out of bounds");
  }
  info.index.reserve(n);
  uint64_t prev_seq = 0;
  for (uint32_t i = 0; i < n; i++) {
    SparseIndexEntry ie;
    ie.seq = GetU64(file, index_offset + 4 + i * 16);
    ie.offset = GetU64(file, index_offset + 4 + i * 16 + 8);
    if (ie.seq < info.header.first_seq || ie.seq > info.last_seq || ie.seq <= prev_seq) {
      throw StoreError("sealed segment: index entry out of range");
    }
    prev_seq = ie.seq;
    info.index.push_back(ie);
  }
  return info;
}

Bytes ReadSealedRecords(ByteView file, const SealedInfo& info) {
  ByteView body = file.subspan(info.body_offset, info.body_len);
  size_t footer_at = file.size() - kSegmentFooterSize;
  uint32_t body_crc = GetU32(file, footer_at + 104);
  if (Crc32c(body) != body_crc) {
    throw StoreError("sealed-segment body CRC mismatch");
  }
  if ((info.flags & kSealedFlagLzss) == 0) {
    return Bytes(body.begin(), body.end());
  }
  try {
    return LzssDecompress(body);
  } catch (const std::invalid_argument& e) {
    throw StoreError(std::string("sealed-segment decompression failed: ") + e.what());
  }
}

}  // namespace avm
