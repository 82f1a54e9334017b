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

// Receives every appended entry, e.g. to spill it to durable storage
// (src/store). The log itself stays authoritative and in memory; a sink
// is a tee, so every existing call site (and every audit verdict)
// behaves bit-for-bit identically with or without one attached.
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
};

// The append-only log a machine maintains about itself.
class TamperEvidentLog {
 public:
  explicit TamperEvidentLog(NodeId owner) : owner_(std::move(owner)) {}

  // Appends an entry and returns it (with seq and chain hash filled in).
  const LogEntry& Append(EntryType type, Bytes content);

  // Attaches a tee (non-owning; nullptr detaches). With `backfill`,
  // entries appended before the sink was attached are replayed into it
  // first, so the sink always mirrors the full log.
  void SetSink(LogSink* sink, bool backfill = true);
  LogSink* sink() const { return sink_; }
  void FlushSink();

  uint64_t LastSeq() const { return entries_.size(); }
  // The durability watermark the attached sink publishes, or LastSeq()
  // when no sink is attached (an in-memory-only log has no weaker
  // durability boundary to wait for). RunConfig::durable_commit gates
  // authenticator release on this.
  uint64_t DurableSeq() const { return sink_ ? sink_->SinkDurableSeq() : LastSeq(); }
  Hash256 LastHash() const { return entries_.empty() ? Hash256::Zero() : entries_.back().hash; }
  const NodeId& owner() const { return owner_; }

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  const LogEntry& At(uint64_t seq) const;  // seq is 1-based.
  const std::vector<LogEntry>& entries() const { return entries_; }

  // Total serialized size of all entries (Figure 3's metric).
  size_t TotalWireSize() const { return total_wire_size_; }

  // Creates a signed authenticator for entry `seq` (default: latest).
  Authenticator Authenticate(const Signer& signer) const;
  Authenticator AuthenticateAt(const Signer& signer, uint64_t seq) const;

  // Extracts entries [from_seq, to_seq] with the correct prior hash.
  LogSegment Extract(uint64_t from_seq, uint64_t to_seq) const;

 private:
  NodeId owner_;
  std::vector<LogEntry> entries_;
  size_t total_wire_size_ = 0;
  LogSink* sink_ = nullptr;
};

}  // namespace avm

#endif  // SRC_TEL_LOG_H_
