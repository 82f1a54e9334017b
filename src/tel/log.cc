#include "src/tel/log.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "src/util/serde.h"

namespace avm {

const char* EntryTypeName(EntryType t) {
  switch (t) {
    case EntryType::kSend:
      return "SEND";
    case EntryType::kRecv:
      return "RECV";
    case EntryType::kAck:
      return "ACK";
    case EntryType::kTraceTime:
      return "TIMETRACKER";
    case EntryType::kTraceMac:
      return "MAC";
    case EntryType::kTraceOther:
      return "OTHER";
    case EntryType::kSnapshot:
      return "SNAPSHOT";
    case EntryType::kInfo:
      return "INFO";
  }
  return "?";
}

void EncodeChainLink(const Hash256& prev, uint64_t seq, EntryType type,
                     const Hash256& content_hash, uint8_t out[kChainLinkSize]) {
  std::memcpy(out, prev.v.data(), 32);
  StoreLe(out + 32, seq);
  out[40] = static_cast<uint8_t>(type);
  std::memcpy(out + 41, content_hash.v.data(), 32);
}

Hash256 ChainHashWithContentHash(const Hash256& prev, uint64_t seq, EntryType type,
                                 const Hash256& content_hash) {
  // The whole link, built on the stack and hashed in one call.
  uint8_t link[kChainLinkSize];
  EncodeChainLink(prev, seq, type, content_hash, link);
  return Sha256::Digest(ByteView(link, sizeof(link)));
}

Hash256 ChainHash(const Hash256& prev, uint64_t seq, EntryType type, ByteView content) {
  return ChainHashWithContentHash(prev, seq, type, Sha256::Digest(content));
}

Bytes Authenticator::SignedPayload(const NodeId& node, uint64_t seq, const Hash256& hash) {
  Writer w;
  w.Str(node);
  w.U64(seq);
  w.Raw(hash.view());
  return w.Take();
}

Hash256 Authenticator::SignedPayloadDigest(const NodeId& node, uint64_t seq,
                                           const Hash256& hash) {
  // Streams exactly the bytes SignedPayload would produce: Writer::Str
  // is a u32 little-endian length followed by the raw characters.
  Sha256 h;
  uint8_t len[4];
  StoreLe(len, static_cast<uint32_t>(node.size()));
  h.Update(ByteView(len, 4));
  h.Update(std::string_view(node));
  h.UpdateU64(seq);
  h.Update(hash.view());
  return h.Finish();
}

Bytes Authenticator::Serialize() const {
  Writer w;
  w.Str(node);
  w.U64(seq);
  w.Raw(hash.view());
  w.Blob(signature);
  return w.Take();
}

Authenticator Authenticator::Deserialize(ByteView data) {
  Reader r(data);
  Authenticator a;
  a.node = r.Str();
  a.seq = r.U64();
  a.hash = Hash256::FromBytes(r.Raw(32));
  a.signature = r.Blob();
  r.ExpectEnd();
  return a;
}

bool Authenticator::VerifySignature(const KeyRegistry& registry) const {
  return registry.VerifyDigest(node, SignedPayloadDigest(node, seq, hash), signature);
}

size_t LogSegment::WireSize() const {
  size_t total = 0;
  for (const auto& e : entries) {
    total += e.WireSize();
  }
  return total;
}

size_t LogSegment::SerializedSize(const NodeId& node, size_t entry_wire_bytes) {
  return 4 + node.size() + 32 + 4 + entry_wire_bytes;
}

Bytes LogSegment::Serialize() const {
  Writer w(SerializedSize());
  w.Str(node);
  w.Raw(prior_hash.view());
  w.U32(static_cast<uint32_t>(entries.size()));
  for (const auto& e : entries) {
    w.U64(e.seq);
    w.U8(static_cast<uint8_t>(e.type));
    w.Blob(e.content);
    w.Raw(e.hash.view());
  }
  return w.Take();
}

LogSegment LogSegment::Deserialize(ByteView data) {
  Reader r(data);
  LogSegment seg;
  seg.node = r.Str();
  seg.prior_hash = Hash256::FromBytes(r.Raw(32));
  uint32_t n = r.U32();
  // Clamp the reservation: n is untrusted and each entry needs at least
  // ~45 bytes of input, so a huge count on a short buffer must not OOM
  // before the per-entry bounds checks reject it.
  seg.entries.reserve(std::min<size_t>(n, r.remaining() / 45 + 1));
  for (uint32_t i = 0; i < n; i++) {
    LogEntry e;
    e.seq = r.U64();
    uint8_t t = r.U8();
    if (t < 1 || t > 8) {
      throw SerdeError("LogSegment: bad entry type");
    }
    e.type = static_cast<EntryType>(t);
    e.content = r.Blob();
    e.hash = Hash256::FromBytes(r.Raw(32));
    seg.entries.push_back(std::move(e));
  }
  r.ExpectEnd();
  return seg;
}

const LogEntry& TamperEvidentLog::Append(EntryType type, Bytes content) {
  LogEntry e;
  e.seq = entries_.size() + 1;
  e.type = type;
  e.content = std::move(content);
  e.hash = ChainHash(LastHash(), e.seq, e.type, e.content);
  total_wire_size_ += e.WireSize();
  entries_.push_back(std::move(e));
  if (sink_ != nullptr) {
    sink_->Append(entries_.back());
  }
  return entries_.back();
}

void TamperEvidentLog::SetSink(LogSink* sink, bool backfill) {
  sink_ = sink;
  if (sink_ == nullptr || !backfill) {
    return;
  }
  // A sink that is ahead of this log, or whose chain diverges from it,
  // belongs to some other history -- appending to it would break the
  // store's chain continuity at the first teed entry, so fail loudly
  // here instead of deep inside a later Append.
  uint64_t sink_last = sink_->SinkLastSeq();
  if (sink_last > entries_.size()) {
    sink_ = nullptr;
    throw std::logic_error("TamperEvidentLog::SetSink: sink already holds " +
                           std::to_string(sink_last) + " entries but the log has only " +
                           std::to_string(entries_.size()));
  }
  if (sink_last > 0) {
    std::optional<Hash256> sink_hash = sink_->SinkLastHash();
    if (sink_hash.has_value() && *sink_hash != entries_[sink_last - 1].hash) {
      sink_ = nullptr;
      throw std::logic_error("TamperEvidentLog::SetSink: sink diverges from the log at seq " +
                             std::to_string(sink_last));
    }
  }
  for (uint64_t s = sink_last + 1; s <= entries_.size(); s++) {
    sink_->Append(entries_[s - 1]);
  }
}

void TamperEvidentLog::FlushSink() {
  if (sink_ != nullptr) {
    sink_->Flush();
  }
}

const LogEntry& TamperEvidentLog::At(uint64_t seq) const {
  if (seq == 0 || seq > entries_.size()) {
    throw std::out_of_range("TamperEvidentLog::At: seq " + std::to_string(seq) +
                            " out of range [1, " + std::to_string(entries_.size()) + "]");
  }
  return entries_[seq - 1];
}

Authenticator TamperEvidentLog::Authenticate(const Signer& signer) const {
  return AuthenticateAt(signer, LastSeq());
}

Authenticator TamperEvidentLog::AuthenticateAt(const Signer& signer, uint64_t seq) const {
  const LogEntry& e = At(seq);
  Authenticator a;
  a.node = owner_;
  a.seq = e.seq;
  a.hash = e.hash;
  a.signature = signer.SignDigest(Authenticator::SignedPayloadDigest(a.node, a.seq, a.hash));
  return a;
}

LogSegment TamperEvidentLog::Extract(uint64_t from_seq, uint64_t to_seq) const {
  if (from_seq == 0 || from_seq > to_seq || to_seq > entries_.size()) {
    throw std::out_of_range("TamperEvidentLog::Extract: bad range");
  }
  LogSegment seg;
  seg.node = owner_;
  seg.prior_hash = (from_seq == 1) ? Hash256::Zero() : entries_[from_seq - 2].hash;
  seg.entries.assign(entries_.begin() + static_cast<ptrdiff_t>(from_seq - 1),
                     entries_.begin() + static_cast<ptrdiff_t>(to_seq));
  return seg;
}

}  // namespace avm
