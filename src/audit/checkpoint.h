// Audit checkpoints (§6.11, §8): resumable, incremental audits.
//
// The paper's deployment story is one auditor responsible for many
// accountable machines over long uptimes, yet a from-genesis
// AuditFull replays the *whole* log every time — O(total log) per
// re-audit. A checkpoint persists everything the auditor has already
// established about one auditee's log prefix 1..S:
//
//  * the verified chain watermark (S, h_S);
//  * the replayed reference-machine state at S (CpuState + memory,
//    LZSS-compressed, authenticated by its Merkle state root — the
//    same machinery as the §4.4 snapshots in src/avmm/snapshot);
//  * the streaming syntactic-scan state (message-stream state machine,
//    mid-batch-window pending entries, attested-input cursor);
//  * the chain hashes at every authenticator seq verified so far.
//
// A later audit resumes at S+1 and produces bit-for-bit the verdict of
// a from-genesis audit. Auditor::AuditFull drives this when given a
// checkpoint directory (see CheckpointConfig in src/audit/auditor.h);
// this header holds the file format, its validation and its capture.
// Trust model: the checkpoint is the *auditor's* own record (named by
// and signed with the Auditor's identity, kept in the auditee's store
// directory); a forged or stale file fails signature/digest/chain
// validation and the audit silently falls back to genesis, and
// tampering behind an accepted checkpoint is still caught — rewriting
// the prefix changes h_S (checkpoint rejected, genesis audit catches
// the tamper) or contradicts an authenticator resolved against the
// watermarked chain.
#ifndef SRC_AUDIT_CHECKPOINT_H_
#define SRC_AUDIT_CHECKPOINT_H_

#include <map>
#include <optional>
#include <span>
#include <string>

#include "src/audit/auditor.h"
#include "src/audit/pipeline.h"
#include "src/crypto/keys.h"
#include "src/tel/segment_source.h"
#include "src/util/bytes.h"

namespace avm {

class LogStore;

struct AuditCheckpoint {
  NodeId node;                // Whose log this watermark is about.
  NodeId auditor;             // Who verified the prefix (signature key id).
  uint64_t seq = 0;           // Last verified seq (the watermark S).
  Hash256 chain_hash;         // h_S: the log's chain hash at S.
  uint64_t mem_size = 0;      // Reference machine memory size.
  Bytes machine_state;        // MaterializedState wire form at S (CpuState +
                              // LZSS memory + its Merkle root, §4.4's rule).
  Bytes scan_state;           // ChunkedSyntacticChecker resumable state.
  // Chain hash at each authenticator seq verified up to S: lets a
  // resumed audit re-check authenticators behind the watermark (new
  // ones included) without reading the prefix back from the store.
  std::map<uint64_t, Hash256> verified_auth_hashes;
  Bytes signature;            // Auditor's signature over PayloadDigest().

  // SHA-256 over every field except the signature; what gets signed.
  Hash256 PayloadDigest() const;
  Bytes Serialize() const;
  // Throws SerdeError on malformed or truncated input.
  static AuditCheckpoint Deserialize(ByteView data);
};

// File name a checkpoint is kept under inside the auditee's log/store
// directory: "audit-<auditor>.ckpt" ('/' mapped to '_', so device
// identities like "node/input" stay single path components).
std::string AuditCheckpointFileName(const NodeId& auditor);

// Atomically persists `cp` into `dir` (via LogStore::WriteAuxFile, so
// a crash mid-write leaves only a *.tmp that store recovery removes;
// the file is not fsynced). With `aux_store`, the write goes through
// that store's batched-fsync path instead (WriteAuxFileBatched): the
// rename is still atomic, and the fsync piggybacks on the store's next
// group commit rather than costing the audit thread a synchronous
// durability round-trip.
void SaveAuditCheckpoint(const std::string& dir, const AuditCheckpoint& cp,
                         LogStore* aux_store = nullptr);

// Loads the checkpoint `auditor` previously saved in `dir`. Returns
// nullopt when absent or unparseable (a corrupt checkpoint is a reason
// to fall back to genesis, never to fail the audit). When
// `reject_reason` is non-null it is set to "" for a cleanly absent
// file and to the parse/read failure otherwise.
std::optional<AuditCheckpoint> LoadAuditCheckpoint(const std::string& dir,
                                                   const NodeId& auditor,
                                                   std::string* reject_reason = nullptr);

// Validates `cp`, loaded from the checkpoint file of `auditor`, against
// the log of `source` and the audit's inputs. Everything in the file is
// untrusted: the result is the reason to reject it ("" = accepted, with
// `out` filled for the engine to resume from), and a reject is a silent
// fall-back to a from-genesis audit, never an audit failure. With
// `must_be_signed` (the auditor signs its checkpoints), or whenever the
// registry holds a real key for `auditor`, the signature must verify.
std::string ValidateAuditCheckpoint(const AuditCheckpoint& cp, const NodeId& auditor,
                                    bool must_be_signed, const SegmentSource& source,
                                    std::span<const Authenticator> auths,
                                    const KeyRegistry& registry, size_t mem_size,
                                    AuditResume* out);

// The checkpoint of an audit engine state at `seq` (a capture boundary:
// fully verified and replay-quiescent), signed by `signer` when given.
// The machine state carries the replayer's own state root.
AuditCheckpoint CaptureAuditCheckpoint(const NodeId& node, const NodeId& auditor, uint64_t seq,
                                       const ChunkedSyntacticChecker& checker,
                                       StreamingReplayer& replayer, const Signer* signer);

}  // namespace avm

#endif  // SRC_AUDIT_CHECKPOINT_H_
