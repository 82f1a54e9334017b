#include "src/avmm/snapshot.h"

#include <cstring>
#include <stdexcept>

#include "src/compress/lzss.h"
#include "src/obs/trace.h"
#include "src/util/serde.h"

namespace avm {

Bytes SnapshotMeta::Serialize() const {
  Writer w;
  w.U64(snapshot_id);
  w.U64(icount);
  w.U64(sim_time);
  w.Raw(root.view());
  w.U32(total_pages);
  w.U32(incremental_pages);
  w.U64(stored_bytes);
  return w.Take();
}

SnapshotMeta SnapshotMeta::Deserialize(ByteView data) {
  Reader r(data);
  SnapshotMeta m;
  m.snapshot_id = r.U64();
  m.icount = r.U64();
  m.sim_time = r.U64();
  m.root = Hash256::FromBytes(r.Raw(32));
  m.total_pages = r.U32();
  m.incremental_pages = r.U32();
  m.stored_bytes = r.U64();
  r.ExpectEnd();
  return m;
}

Bytes SnapshotDelta::Serialize() const {
  Writer w;
  w.Blob(meta.Serialize());
  w.Blob(cpu_state);
  w.U32(static_cast<uint32_t>(pages.size()));
  for (const auto& [idx, data] : pages) {
    w.U32(idx);
    w.Blob(data);
  }
  return w.Take();
}

uint64_t SnapshotDelta::SerializedSize() const {
  // Blob(meta), Blob(cpu_state), the page count, then per page its index
  // and Blob(contents); each Blob carries a u32 length.
  uint64_t size = 4 + SnapshotMeta::kSerializedSize + 4 + cpu_state.size() + 4;
  for (const auto& page : pages) {
    size += 4 + 4 + page.second.size();
  }
  return size;
}

SnapshotDelta SnapshotDelta::Deserialize(ByteView data) {
  Reader r(data);
  SnapshotDelta d;
  d.meta = SnapshotMeta::Deserialize(r.Blob());
  d.cpu_state = r.Blob();
  uint32_t n = r.U32();
  for (uint32_t i = 0; i < n; i++) {
    uint32_t idx = r.U32();
    d.pages.emplace_back(idx, r.Blob());
  }
  r.ExpectEnd();
  return d;
}

Bytes MaterializedState::Serialize() const {
  Writer w;
  w.Blob(cpu.Serialize());
  w.Blob(LzssCompress(memory));
  w.Raw(root().view());
  return w.Take();
}

MaterializedState MaterializedState::Deserialize(ByteView data) {
  Reader r(data);
  MaterializedState st;
  Bytes cpu_bytes = r.Blob();
  Bytes memory_lzss = r.Blob();
  Hash256 claimed = Hash256::FromBytes(r.Raw(32));
  r.ExpectEnd();
  st.cpu = CpuState::Deserialize(cpu_bytes);
  try {
    st.memory = LzssDecompress(memory_lzss);
    st.tree = StateTree(st.cpu, st.memory);
  } catch (const std::exception& e) {
    throw SerdeError(std::string("materialized state undecodable: ") + e.what());
  }
  if (st.root() != claimed) {
    throw SerdeError("materialized state does not hash to its claimed root");
  }
  return st;
}

StateTree::StateTree(const CpuState& cpu, ByteView memory) {
  if (memory.size() % kPageSize != 0) {
    throw std::invalid_argument("StateTree: memory not page aligned");
  }
  size_t pages = memory.size() / kPageSize;
  std::vector<Hash256> leaves;
  leaves.reserve(pages + 1);
  for (size_t i = 0; i < pages; i++) {
    leaves.push_back(MerkleLeafHash(memory.subspan(i * kPageSize, kPageSize)));
  }
  leaves.push_back(MerkleLeafHash(cpu.Serialize()));
  tree_ = MerkleTree(std::move(leaves));
}

void StateTree::Refresh(const CpuState& cpu, ByteView memory, std::span<const uint32_t> dirty) {
  if (empty()) {
    *this = StateTree(cpu, memory);
    return;
  }
  const uint64_t pages = page_count();
  if (memory.size() != pages * kPageSize) {
    throw std::invalid_argument("StateTree::Refresh: memory size changed");
  }
  for (uint32_t idx : dirty) {
    tree_.UpdateLeaf(idx, MerkleLeafHash(memory.subspan(size_t{idx} * kPageSize, kPageSize)));
  }
  tree_.UpdateLeaf(pages, MerkleLeafHash(cpu.Serialize()));
}

Hash256 ComputeStateRoot(const CpuState& cpu, ByteView memory) {
  return StateTree(cpu, memory).Root();
}

Hash256 ComputeStateRoot(const Machine& m) {
  return ComputeStateRoot(m.cpu(), m.memory());
}

void SnapshotStore::Add(SnapshotDelta delta) {
  uint64_t id = delta.meta.snapshot_id;
  if (deltas_.count(id) > 0) {
    throw std::invalid_argument("SnapshotStore::Add: duplicate snapshot id");
  }
  deltas_.emplace(id, std::move(delta));
}

const SnapshotDelta& SnapshotStore::Get(uint64_t snapshot_id) const {
  auto it = deltas_.find(snapshot_id);
  if (it == deltas_.end()) {
    throw std::out_of_range("SnapshotStore::Get: unknown snapshot");
  }
  return it->second;
}

bool SnapshotStore::Has(uint64_t snapshot_id) const {
  return deltas_.count(snapshot_id) > 0;
}

MaterializedState SnapshotStore::Materialize(uint64_t snapshot_id, size_t mem_size) const {
  if (!Has(snapshot_id)) {
    throw std::out_of_range("SnapshotStore::Materialize: unknown snapshot");
  }
  MaterializedState st;
  st.memory.assign(mem_size, 0);
  for (uint64_t id = 0; id <= snapshot_id; id++) {
    const SnapshotDelta& d = Get(id);
    for (const auto& [idx, data] : d.pages) {
      if ((idx + 1) * static_cast<size_t>(kPageSize) > mem_size || data.size() != kPageSize) {
        throw std::invalid_argument("SnapshotStore::Materialize: bad page");
      }
      std::memcpy(st.memory.data() + idx * kPageSize, data.data(), kPageSize);
    }
    if (id == snapshot_id) {
      st.cpu = CpuState::Deserialize(d.cpu_state);
    }
  }
  st.tree = StateTree(st.cpu, st.memory);
  return st;
}

uint64_t SnapshotStore::TransferBytesUpTo(uint64_t snapshot_id) const {
  uint64_t total = 0;
  for (uint64_t id = 1; id <= snapshot_id; id++) {
    total += Get(id).meta.stored_bytes;
  }
  return total;
}

SnapshotMeta SnapshotManager::Take(Machine& m, SimTime sim_time) {
  WallTimer timer;
  obs::Span span(obs::kPhaseSnapshotTake, "record");
  SnapshotDelta delta;
  delta.meta.snapshot_id = next_id_++;
  delta.meta.icount = m.cpu().icount;
  delta.meta.sim_time = sim_time;
  delta.meta.total_pages = static_cast<uint32_t>(m.PageCount());
  delta.cpu_state = m.cpu().Serialize();

  std::vector<uint32_t> dirty = m.CollectDirtyPages();
  for (uint32_t idx : dirty) {
    ByteView page = m.PageData(idx);
    delta.pages.emplace_back(idx, Bytes(page.begin(), page.end()));
  }
  m.ClearDirtyPages();
  tree_.Refresh(m.cpu(), m.memory(), dirty);

  delta.meta.incremental_pages = static_cast<uint32_t>(delta.pages.size());
  delta.meta.root = tree_.Root();
  delta.meta.stored_bytes = delta.SerializedSize();

  SnapshotMeta meta = delta.meta;
  store_->Add(std::move(delta));
  snapshot_seconds_ += timer.ElapsedSeconds();
  return meta;
}

}  // namespace avm
