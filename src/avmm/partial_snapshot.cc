#include "src/avmm/partial_snapshot.h"

#include <stdexcept>

#include "src/util/serde.h"

namespace avm {

Bytes PartialSnapshot::Serialize() const {
  Writer w;
  w.Raw(root.view());
  w.U32(total_pages);
  w.Blob(cpu_state);
  w.Blob(cpu_proof.Serialize());
  w.U32(static_cast<uint32_t>(pages.size()));
  for (const Page& p : pages) {
    w.U32(p.index);
    w.Blob(p.data);
    w.Blob(p.proof.Serialize());
  }
  return w.Take();
}

PartialSnapshot PartialSnapshot::Deserialize(ByteView data) {
  Reader r(data);
  PartialSnapshot s;
  s.root = Hash256::FromBytes(r.Raw(32));
  s.total_pages = r.U32();
  s.cpu_state = r.Blob();
  s.cpu_proof = MerkleProof::Deserialize(r.Blob());
  uint32_t n = r.U32();
  for (uint32_t i = 0; i < n; i++) {
    Page p;
    p.index = r.U32();
    p.data = r.Blob();
    p.proof = MerkleProof::Deserialize(r.Blob());
    s.pages.push_back(std::move(p));
  }
  r.ExpectEnd();
  return s;
}

size_t PartialSnapshot::TransferSize() const {
  return Serialize().size();
}

PartialSnapshot MakePartialSnapshot(const MaterializedState& state,
                                    const std::vector<uint32_t>& pages) {
  // The proofs come from the state's own tree: the one the AVMM
  // committed to.
  const StateTree& tree = state.tree;
  if (tree.page_count() * kPageSize != state.memory.size()) {
    throw std::invalid_argument("MakePartialSnapshot: state tree does not cover the memory");
  }
  const uint32_t page_count = static_cast<uint32_t>(tree.page_count());

  PartialSnapshot out;
  out.root = tree.Root();
  out.total_pages = page_count;
  out.cpu_state = state.cpu.Serialize();
  out.cpu_proof = tree.ProveLeaf(page_count);
  for (uint32_t idx : pages) {
    if (idx >= page_count) {
      throw std::out_of_range("MakePartialSnapshot: page index out of range");
    }
    PartialSnapshot::Page p;
    p.index = idx;
    ByteView page = ByteView(state.memory).subspan(size_t{idx} * kPageSize, kPageSize);
    p.data.assign(page.begin(), page.end());
    p.proof = tree.ProveLeaf(idx);
    out.pages.push_back(std::move(p));
  }
  return out;
}

bool VerifyPartialSnapshot(const PartialSnapshot& snapshot, const Hash256& expected_root) {
  if (snapshot.root != expected_root) {
    return false;
  }
  if (!MerkleTree::VerifyProof(expected_root, MerkleLeafHash(snapshot.cpu_state),
                               snapshot.cpu_proof)) {
    return false;
  }
  if (snapshot.cpu_proof.leaf_index != snapshot.total_pages) {
    return false;  // CPU leaf must be the one after the last page.
  }
  for (const PartialSnapshot::Page& p : snapshot.pages) {
    if (p.index >= snapshot.total_pages || p.data.size() != kPageSize) {
      return false;
    }
    if (p.proof.leaf_index != p.index) {
      return false;
    }
    if (!MerkleTree::VerifyProof(expected_root, MerkleLeafHash(p.data), p.proof)) {
      return false;
    }
  }
  return true;
}

std::optional<PartialState> MaterializePartial(const PartialSnapshot& snapshot,
                                               const Hash256& expected_root) {
  if (!VerifyPartialSnapshot(snapshot, expected_root)) {
    return std::nullopt;
  }
  PartialState st;
  st.cpu = CpuState::Deserialize(snapshot.cpu_state);
  st.memory.assign(static_cast<size_t>(snapshot.total_pages) * kPageSize, 0);
  st.present_pages.assign(snapshot.total_pages, false);
  for (const PartialSnapshot::Page& p : snapshot.pages) {
    std::copy(p.data.begin(), p.data.end(),
              st.memory.begin() + static_cast<ptrdiff_t>(p.index * kPageSize));
    st.present_pages[p.index] = true;
  }
  return st;
}

}  // namespace avm
