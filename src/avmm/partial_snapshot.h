// Partial, privacy-preserving snapshot transfer (§4.4 / §7.3).
//
// An auditor can "incrementally request the parts of the state that are
// accessed during replay" instead of a full snapshot, and an accuser can
// "use the hash tree to remove any part of the snapshot that is not
// necessary to replay the relevant segment" before handing evidence to a
// third party. PartialSnapshot carries a subset of pages plus Merkle
// inclusion proofs; verification authenticates each included page (and
// the CPU leaf) against the root committed in the tamper-evident log
// without revealing the redacted pages.
#ifndef SRC_AVMM_PARTIAL_SNAPSHOT_H_
#define SRC_AVMM_PARTIAL_SNAPSHOT_H_

#include <optional>
#include <vector>

#include "src/avmm/snapshot.h"
#include "src/crypto/merkle.h"
#include "src/util/bytes.h"

namespace avm {

struct PartialSnapshot {
  Hash256 root;           // Must equal the root in the kSnapshot log entry.
  uint32_t total_pages = 0;
  Bytes cpu_state;        // Always included (replay needs it).
  MerkleProof cpu_proof;
  struct Page {
    uint32_t index;
    Bytes data;
    MerkleProof proof;
  };
  std::vector<Page> pages;

  Bytes Serialize() const;
  static PartialSnapshot Deserialize(ByteView data);

  // Bytes an auditor must transfer (Figure 9's incremental alternative).
  size_t TransferSize() const;
};

// Builds a partial snapshot containing only `pages` (plus the CPU leaf)
// from a fully materialized state, with proofs from its state tree.
PartialSnapshot MakePartialSnapshot(const MaterializedState& state,
                                    const std::vector<uint32_t>& pages);

// Verifies every included page and the CPU state against `expected_root`
// (taken from the chain-verified kSnapshot entry). Returns false if any
// proof fails or the root differs.
bool VerifyPartialSnapshot(const PartialSnapshot& snapshot, const Hash256& expected_root);

// Applies a verified partial snapshot onto a machine-sized memory image:
// included pages are written, the rest stay zero (the auditor can fetch
// more pages on demand if replay touches them). Returns the CPU state.
struct PartialState {
  CpuState cpu;
  Bytes memory;                     // total_pages * kPageSize.
  std::vector<bool> present_pages;  // Which pages are authentic.
};
std::optional<PartialState> MaterializePartial(const PartialSnapshot& snapshot,
                                               const Hash256& expected_root);

}  // namespace avm

#endif  // SRC_AVMM_PARTIAL_SNAPSHOT_H_
