// Tamper-evident log (§4.3), adapted from PeerReview as the paper does.
//
// Each entry e_i = (s_i, t_i, c_i, h_i) where h_i = H(h_{i-1} || s_i || t_i
// || H(c_i)) and h_0 = 0. Authenticators a_i = (s_i, h_i, sigma(s_i || h_i))
// commit the machine to a unique log prefix: any later forge, omission,
// reorder or fork breaks the chain against some previously issued
// authenticator.
#ifndef SRC_TEL_LOG_H_
#define SRC_TEL_LOG_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/crypto/keys.h"
#include "src/crypto/sha256.h"
#include "src/util/bytes.h"

namespace avm {

// Entry types. The two "parallel streams" of §4.4 are messages
// (kSend/kRecv/kAck) and execution-trace entries (kTraceTime/kTraceMac/
// kTraceOther); Figure 4 reports log composition by exactly these classes.
enum class EntryType : uint8_t {
  kSend = 1,        // Outgoing network message (with signature).
  kRecv = 2,        // Incoming network message (signature logged, stripped).
  kAck = 3,         // Acknowledgment received for one of our sends.
  kTraceTime = 4,   // TimeTracker: clock reads / event timing landmarks.
  kTraceMac = 5,    // MAC layer: packets entering/exiting the virtual NIC.
  kTraceOther = 6,  // Other nondeterministic inputs (input events, etc.).
  kSnapshot = 7,    // Merkle root of an AVM state snapshot.
  kInfo = 8,        // Non-semantic annotations (joins, round markers).
};

const char* EntryTypeName(EntryType t);

struct LogEntry {
  uint64_t seq = 0;
  EntryType type = EntryType::kInfo;
  Bytes content;
  Hash256 hash;  // h_i, over the whole prefix.

  // Serialized size, used for the log-growth measurements.
  size_t WireSize() const { return 8 + 1 + 4 + content.size() + 32; }
};

// The message the hash rule digests for one link:
// h_{i-1} || s_i (u64 LE) || t_i || H(c_i).
constexpr size_t kChainLinkSize = 32 + 8 + 1 + 32;
void EncodeChainLink(const Hash256& prev, uint64_t seq, EntryType type,
                     const Hash256& content_hash, uint8_t out[kChainLinkSize]);

// Computes h_i from h_{i-1} and the entry fields (the paper's hash rule).
Hash256 ChainHash(const Hash256& prev, uint64_t seq, EntryType type, ByteView content);
// Same rule with H(c_i) already computed: what batch-authenticator
// verification walks, since a chain link carries only the content hash.
Hash256 ChainHashWithContentHash(const Hash256& prev, uint64_t seq, EntryType type,
                                 const Hash256& content_hash);

// One link of the hash chain: enough to recompute h_i from h_{i-1}.
struct ChainLink {
  uint64_t seq = 0;
  EntryType type = EntryType::kInfo;
  Hash256 content_hash;  // H(c_i)
};

// h_i from h_{i-1} and a link.
Hash256 ApplyChainLink(const Hash256& prev, const ChainLink& link);
// The link describing an existing entry (digests its content).
ChainLink LinkFor(const LogEntry& e);

// Visits one entry; return false to stop a scan early.
using EntryVisitor = std::function<bool(const LogEntry&)>;

// A signed commitment to the log prefix ending at `seq`.
struct Authenticator {
  NodeId node;
  uint64_t seq = 0;
  Hash256 hash;
  Bytes signature;

  // The byte string that is signed: node id binds the authenticator to a
  // machine so it cannot be replayed as another node's commitment.
  static Bytes SignedPayload(const NodeId& node, uint64_t seq, const Hash256& hash);
  // SHA-256 of SignedPayload, streamed through one incremental hasher
  // (no temporary buffer). Sign/verify paths use this with the digest
  // APIs; the resulting signatures are bit-for-bit those of the
  // payload-buffer path.
  static Hash256 SignedPayloadDigest(const NodeId& node, uint64_t seq, const Hash256& hash);

  Bytes Serialize() const;
  static Authenticator Deserialize(ByteView data);

  bool VerifySignature(const KeyRegistry& registry) const;
};

// An extracted, serializable run of consecutive entries plus the hash of
// the entry just before it (so the chain can be checked without the full
// prefix). This is what a machine ships to an auditor.
struct LogSegment {
  NodeId node;
  // Hash h_{first-1}; Zero when the segment starts at seq 1.
  Hash256 prior_hash;
  std::vector<LogEntry> entries;

  uint64_t FirstSeq() const { return entries.empty() ? 0 : entries.front().seq; }
  uint64_t LastSeq() const { return entries.empty() ? 0 : entries.back().seq; }
  size_t WireSize() const;
  // Exact Serialize().size() without serializing: a header (node id,
  // prior hash, entry count) plus each entry's WireSize. The static form
  // is for streaming audits that tally entry wire bytes as they go.
  size_t SerializedSize() const { return SerializedSize(node, WireSize()); }
  static size_t SerializedSize(const NodeId& node, size_t entry_wire_bytes);

  Bytes Serialize() const;
  static LogSegment Deserialize(ByteView data);
};

class SegmentSource;

// Receives every appended entry, e.g. to spill it to durable storage
// (src/store). A sink that can also read its entries back (Source()
// non-null, as LogStore's is) takes the log over: the log then keeps
// only its tip and a bounded ring of chain links in memory and reads
// every older entry through the sink. A sink that cannot (a plain tee)
// leaves the log in memory. Either way every entry, hash, authenticator
// and audit verdict is bit-for-bit what a sinkless log produces.
class LogSink {
 public:
  virtual ~LogSink() = default;
  // Called once per entry, after seq and chain hash are filled in.
  virtual void Append(const LogEntry& e) = 0;
  // Called at natural durability points (e.g. Avmm::Finish).
  virtual void Flush() {}
  // Highest seq the sink already holds (0 = empty); SetSink's backfill
  // replays only the entries after it.
  virtual uint64_t SinkLastSeq() const { return 0; }
  // Chain hash of the sink's last entry, if the sink tracks one;
  // SetSink uses it to reject a sink that diverges from this log.
  virtual std::optional<Hash256> SinkLastHash() const { return std::nullopt; }
  // Durability watermark: the highest seq the sink guarantees survives
  // a crash. Sinks without a weaker durability notion (in-memory tees)
  // report everything they hold; LogStore reports its group-commit
  // watermark. Must be safe to call from any thread.
  virtual uint64_t SinkDurableSeq() const { return SinkLastSeq(); }
  // The sink as a reader of the entries it holds, or nullptr when it
  // cannot read them back.
  virtual const SegmentSource* Source() const { return nullptr; }
};

// The append-only log a machine maintains about itself.
//
// A sinkless log (or one teeing into a sink that cannot read back) keeps
// every entry in memory; it is the reference the spilled form is tested
// against. Once a sink with a Source() is attached, the log is spilled
// for good: it keeps the tip entry (whose content buffer every append
// reuses) and a ring of the last kTailCapacity chain links {seq, type,
// H(c_i), h_i}, which serves LastHash, HashAt, Authenticate(At) and
// AppendLinks near the tip without touching the sink. Every older
// content or hash read (At, Scan, Extract, and HashAt/AppendLinks behind
// the ring) goes through the sink's Source(). After the sink is detached
// those older reads throw std::out_of_range; the tip and the ring stay.
class TamperEvidentLog {
 public:
  // Chain links a spilled log keeps in memory. The longest chain tail a
  // batched or async recording builds is what a node logs between two
  // frames to one peer, about 540 entries in the game (see
  // spill_soak_test), so the ring serves every tail with ~2x headroom.
  // It grows with the log up to this many (80 B each: under 128 KiB in
  // all, so it never comes from its own mmap), then wraps.
  static constexpr size_t kTailCapacity = 1024;

  explicit TamperEvidentLog(NodeId owner);

  // Appends an entry (the next seq, chained to the last hash) and hands
  // it to the sink. The content is copied, so the caller may encode into
  // a buffer it reuses.
  void Append(EntryType type, ByteView content);

  // Attaches a sink (non-owning; nullptr detaches). Entries appended
  // before the sink was attached and missing from it are replayed into
  // it first, so the sink always mirrors the full log. A spilled log can
  // replay only its tip, so a sink attached to it must already hold
  // every entry before the tip; SetSink never reads the previous sink.
  // Throws std::logic_error (leaving no sink attached) when the sink is
  // ahead of the log, its chain diverges from it, or it lacks entries a
  // spilled log no longer holds.
  void SetSink(LogSink* sink);
  LogSink* sink() const { return sink_; }
  void FlushSink();

  uint64_t LastSeq() const { return last_seq_; }
  // The durability watermark the attached sink publishes, or LastSeq()
  // when no sink is attached (an in-memory-only log has no weaker
  // durability boundary to wait for). RunConfig::durable_commit gates
  // authenticator release on this.
  uint64_t DurableSeq() const { return sink_ ? sink_->SinkDurableSeq() : LastSeq(); }
  Hash256 LastHash() const {
    return last_seq_ == 0 ? Hash256::Zero() : ring_[RingSlot(last_seq_)].hash;
  }
  const NodeId& owner() const { return owner_; }

  bool empty() const { return last_seq_ == 0; }
  size_t size() const { return last_seq_; }
  // Entries whose records the log holds in memory: all of them when
  // sinkless, at most kTailCapacity chain links (one with its content)
  // when spilled.
  size_t ResidentEntries() const;

  // Entry `seq` (1-based), copied out.
  LogEntry At(uint64_t seq) const;
  // The chain hash h_seq; h_0 = Zero.
  Hash256 HashAt(uint64_t seq) const;
  // Appends the chain links of [from_seq, to_seq] to `out` (nothing
  // when from_seq > to_seq); links in the ring cost no digest.
  void AppendLinks(uint64_t from_seq, uint64_t to_seq, std::vector<ChainLink>* out) const;
  // Streams entries [from_seq, to_seq] in order (nothing when from_seq >
  // to_seq); a spilled log reads them through its sink in one range read.
  void Scan(uint64_t from_seq, uint64_t to_seq, const EntryVisitor& visit) const;

  // Total serialized size of all entries (Figure 3's metric).
  size_t TotalWireSize() const { return total_wire_size_; }

  // Creates a signed authenticator for entry `seq` (default: latest).
  Authenticator Authenticate(const Signer& signer) const;
  Authenticator AuthenticateAt(const Signer& signer, uint64_t seq) const;

  // Extracts entries [from_seq, to_seq] with the correct prior hash.
  LogSegment Extract(uint64_t from_seq, uint64_t to_seq) const;

 private:
  // One ring slot: an entry's chain link and the hash it yields.
  struct LinkRecord {
    ChainLink link;
    Hash256 hash;
  };

  static size_t RingSlot(uint64_t seq) { return (seq - 1) % kTailCapacity; }
  // Throws std::out_of_range unless 1 <= from_seq <= to_seq <= LastSeq().
  void CheckRange(uint64_t from_seq, uint64_t to_seq, const char* what) const;
  // The ring slot of `seq`, or nullptr when seq is behind the ring.
  const LinkRecord* RingAt(uint64_t seq) const;
  // Where a spilled log reads entries behind its tip; throws
  // std::out_of_range once the sink is detached.
  const SegmentSource& SpilledSource(uint64_t seq, const char* what) const;

  NodeId owner_;
  uint64_t last_seq_ = 0;
  size_t total_wire_size_ = 0;
  std::vector<LogEntry> entries_;  // Every entry; empty once spilled.
  bool spilled_ = false;
  LogEntry tip_;                   // The last entry, once spilled.
  std::vector<LinkRecord> ring_;   // Seq s in ring_[RingSlot(s)].
  LogSink* sink_ = nullptr;
  const SegmentSource* source_ = nullptr;  // sink_->Source().
};

}  // namespace avm

#endif  // SRC_TEL_LOG_H_
