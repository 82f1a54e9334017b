#include "src/tel/log.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "src/tel/segment_source.h"
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

Hash256 ApplyChainLink(const Hash256& prev, const ChainLink& link) {
  return ChainHashWithContentHash(prev, link.seq, link.type, link.content_hash);
}

ChainLink LinkFor(const LogEntry& e) {
  return ChainLink{e.seq, e.type, Sha256::Digest(e.content)};
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

TamperEvidentLog::TamperEvidentLog(NodeId owner)
    : owner_(std::move(owner)) {
  static_assert(sizeof(LinkRecord) * kTailCapacity < 128 * 1024,
                "the ring must stay below glibc's mmap threshold");
}

void TamperEvidentLog::Append(EntryType type, ByteView content) {
  const uint64_t seq = last_seq_ + 1;
  const Hash256 prev = LastHash();
  LogEntry& e = spilled_ ? tip_ : entries_.emplace_back();
  e.seq = seq;
  e.type = type;
  e.content.assign(content.begin(), content.end());
  const size_t slot = RingSlot(seq);
  if (slot == ring_.size()) {
    ring_.emplace_back();  // The ring fills up to kTailCapacity, then wraps.
  }
  LinkRecord& r = ring_[slot];
  r.link = ChainLink{seq, type, Sha256::Digest(e.content)};
  r.hash = ApplyChainLink(prev, r.link);
  e.hash = r.hash;
  last_seq_ = seq;
  total_wire_size_ += e.WireSize();
  if (sink_ != nullptr) {
    sink_->Append(e);
  }
}

void TamperEvidentLog::SetSink(LogSink* sink) {
  if (sink != nullptr) {
    // A sink that is ahead of this log, or whose chain diverges from it,
    // belongs to some other history -- appending to it would break the
    // store's chain continuity at the first teed entry, so fail loudly
    // here instead of deep inside a later Append.
    const uint64_t sink_last = sink->SinkLastSeq();
    std::string error;
    if (sink_last > last_seq_) {
      error = "TamperEvidentLog::SetSink: sink already holds " + std::to_string(sink_last) +
              " entries but the log has only " + std::to_string(last_seq_);
    } else if (spilled_ && sink_last + 1 < last_seq_) {
      // A spilled log holds only its tip's content; the entries before it
      // live in whatever sink it spilled to, which may be gone. Refuse
      // here rather than read through it.
      error = "TamperEvidentLog::SetSink: sink lacks entries [" + std::to_string(sink_last + 1) +
              ", " + std::to_string(last_seq_ - 1) + "], which the spilled log no longer holds";
    } else if (sink_last > 0) {
      std::optional<Hash256> sink_hash = sink->SinkLastHash();
      if (sink_hash.has_value() && *sink_hash != HashAt(sink_last)) {
        error = "TamperEvidentLog::SetSink: sink diverges from the log at seq " +
                std::to_string(sink_last);
      }
    }
    if (!error.empty()) {
      sink_ = nullptr;
      source_ = nullptr;
      throw std::logic_error(error);
    }
    // A spilled log backfills at most its tip, so neither the divergence
    // check (the ring) nor this reads through the previous sink.
    Scan(sink_last + 1, last_seq_, [sink](const LogEntry& e) {
      sink->Append(e);
      return true;
    });
  }
  sink_ = sink;
  source_ = sink != nullptr ? sink->Source() : nullptr;
  if (source_ != nullptr && !spilled_) {
    if (!entries_.empty()) {
      tip_ = std::move(entries_.back());
    }
    entries_ = std::vector<LogEntry>();
    spilled_ = true;
  }
}

void TamperEvidentLog::FlushSink() {
  if (sink_ != nullptr) {
    sink_->Flush();
  }
}

size_t TamperEvidentLog::ResidentEntries() const {
  return spilled_ ? ring_.size() : entries_.size();
}

void TamperEvidentLog::CheckRange(uint64_t from_seq, uint64_t to_seq, const char* what) const {
  if (from_seq == 0 || from_seq > to_seq || to_seq > last_seq_) {
    throw std::out_of_range(std::string("TamperEvidentLog::") + what + ": range [" +
                            std::to_string(from_seq) + ", " + std::to_string(to_seq) +
                            "] not in [1, " + std::to_string(last_seq_) + "]");
  }
}

const TamperEvidentLog::LinkRecord* TamperEvidentLog::RingAt(uint64_t seq) const {
  if (seq == 0 || seq > last_seq_ || last_seq_ - seq >= kTailCapacity) {
    return nullptr;
  }
  return &ring_[RingSlot(seq)];
}

const SegmentSource& TamperEvidentLog::SpilledSource(uint64_t seq, const char* what) const {
  if (source_ == nullptr) {
    throw std::out_of_range(std::string("TamperEvidentLog::") + what + ": seq " +
                            std::to_string(seq) +
                            " was spilled to a sink that is no longer attached; only the last " +
                            std::to_string(kTailCapacity) + " chain links stay in memory");
  }
  return *source_;
}

LogEntry TamperEvidentLog::At(uint64_t seq) const {
  CheckRange(seq, seq, "At");
  LogEntry out;
  Scan(seq, seq, [&out](const LogEntry& e) {
    out = e;
    return false;
  });
  return out;
}

Hash256 TamperEvidentLog::HashAt(uint64_t seq) const {
  if (seq == 0) {
    return Hash256::Zero();
  }
  CheckRange(seq, seq, "HashAt");
  if (const LinkRecord* r = RingAt(seq)) {
    return r->hash;
  }
  return spilled_ ? SpilledSource(seq, "HashAt").HashAt(seq) : entries_[seq - 1].hash;
}

void TamperEvidentLog::AppendLinks(uint64_t from_seq, uint64_t to_seq,
                                   std::vector<ChainLink>* out) const {
  if (from_seq > to_seq) {
    return;
  }
  CheckRange(from_seq, to_seq, "AppendLinks");
  const uint64_t ring_first = last_seq_ > kTailCapacity ? last_seq_ - kTailCapacity + 1 : 1;
  if (from_seq < ring_first) {
    Scan(from_seq, std::min(to_seq, ring_first - 1), [out](const LogEntry& e) {
      out->push_back(LinkFor(e));
      return true;
    });
    from_seq = ring_first;
  }
  for (uint64_t s = from_seq; s <= to_seq; s++) {
    out->push_back(ring_[RingSlot(s)].link);
  }
}

void TamperEvidentLog::Scan(uint64_t from_seq, uint64_t to_seq, const EntryVisitor& visit) const {
  if (from_seq > to_seq) {
    return;
  }
  CheckRange(from_seq, to_seq, "Scan");
  if (!spilled_) {
    for (uint64_t s = from_seq; s <= to_seq; s++) {
      if (!visit(entries_[s - 1])) {
        return;
      }
    }
    return;
  }
  if (from_seq < last_seq_) {
    bool more = true;
    SpilledSource(from_seq, "Scan")
        .Scan(from_seq, std::min(to_seq, last_seq_ - 1), [&](const LogEntry& e) {
          more = visit(e);
          return more;
        });
    if (!more) {
      return;
    }
  }
  if (to_seq == last_seq_) {
    visit(tip_);
  }
}

Authenticator TamperEvidentLog::Authenticate(const Signer& signer) const {
  return AuthenticateAt(signer, LastSeq());
}

Authenticator TamperEvidentLog::AuthenticateAt(const Signer& signer, uint64_t seq) const {
  CheckRange(seq, seq, "AuthenticateAt");
  Authenticator a;
  a.node = owner_;
  a.seq = seq;
  a.hash = HashAt(seq);
  a.signature = signer.SignDigest(Authenticator::SignedPayloadDigest(a.node, a.seq, a.hash));
  return a;
}

LogSegment TamperEvidentLog::Extract(uint64_t from_seq, uint64_t to_seq) const {
  CheckRange(from_seq, to_seq, "Extract");
  LogSegment seg;
  if (spilled_ && from_seq < last_seq_) {
    // One range read of the spilled part, which also yields h_{from-1}.
    seg = SpilledSource(from_seq, "Extract").Extract(from_seq, std::min(to_seq, last_seq_ - 1));
  } else {
    seg.prior_hash = HashAt(from_seq - 1);
  }
  seg.node = owner_;
  if (!spilled_) {
    seg.entries.assign(entries_.begin() + static_cast<ptrdiff_t>(from_seq - 1),
                       entries_.begin() + static_cast<ptrdiff_t>(to_seq));
  } else if (to_seq == last_seq_) {
    seg.entries.push_back(tip_);
  }
  return seg;
}

}  // namespace avm
