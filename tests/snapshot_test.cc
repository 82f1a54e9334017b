#include <gtest/gtest.h>

#include "src/avmm/snapshot.h"
#include "src/vm/assembler.h"

namespace avm {
namespace {

constexpr size_t kMem = 64 * 1024;

struct SnapshotFixture : public ::testing::Test {
  SnapshotFixture() : machine(kMem, &backend), mgr(&store) {
    machine.LoadImage(Assemble(R"(
      la r1, 0x5000
      movi r2, 0
loop:
      sw r2, [r1]
      addi r1, 4
      addi r2, 1
      jmp loop
    )"));
  }

  NullBackend backend;
  Machine machine;
  SnapshotStore store;
  SnapshotManager mgr;
};

TEST_F(SnapshotFixture, FirstSnapshotIsFull) {
  SnapshotMeta meta = mgr.Take(machine, 0);
  EXPECT_EQ(meta.snapshot_id, 0u);
  EXPECT_EQ(meta.total_pages, kMem / kPageSize);
  // LoadImage marks everything dirty, so the base stores every page.
  EXPECT_EQ(meta.incremental_pages, kMem / kPageSize);
}

TEST_F(SnapshotFixture, IncrementalSnapshotsOnlyStoreDirtyPages) {
  mgr.Take(machine, 0);
  machine.Run(40);  // Writes a few words into page 5.
  SnapshotMeta meta = mgr.Take(machine, 1000);
  EXPECT_EQ(meta.snapshot_id, 1u);
  EXPECT_EQ(meta.incremental_pages, 1u);
  EXPECT_LT(meta.stored_bytes, 2 * kPageSize);
}

TEST_F(SnapshotFixture, RootMatchesDirectComputation) {
  SnapshotMeta meta = mgr.Take(machine, 0);
  EXPECT_EQ(meta.root, ComputeStateRoot(machine));
}

TEST_F(SnapshotFixture, MaterializeReconstructsExactState) {
  mgr.Take(machine, 0);
  machine.Run(100);
  mgr.Take(machine, 1000);
  machine.Run(5000);
  SnapshotMeta meta = mgr.Take(machine, 2000);

  MaterializedState st = store.Materialize(2, kMem);
  EXPECT_TRUE(st.cpu == machine.cpu());
  EXPECT_EQ(st.root(), meta.root);
  EXPECT_TRUE(BytesEqual(st.memory, machine.ReadMemRange(0, kMem)));
}

TEST_F(SnapshotFixture, MaterializeIntermediateSnapshot) {
  mgr.Take(machine, 0);
  machine.Run(100);
  SnapshotMeta mid = mgr.Take(machine, 1000);
  CpuState cpu_at_mid = machine.cpu();
  machine.Run(100000);
  mgr.Take(machine, 2000);

  MaterializedState st = store.Materialize(1, kMem);
  EXPECT_TRUE(st.cpu == cpu_at_mid);
  EXPECT_EQ(st.root(), mid.root);
}

TEST_F(SnapshotFixture, RootChangesWithMemory) {
  SnapshotMeta a = mgr.Take(machine, 0);
  machine.Run(10);
  SnapshotMeta b = mgr.Take(machine, 1);
  EXPECT_NE(a.root, b.root);
}

TEST_F(SnapshotFixture, RootCoversCpuState) {
  Hash256 before = ComputeStateRoot(machine);
  machine.mutable_cpu().regs[7] ^= 0xdead;
  EXPECT_NE(ComputeStateRoot(machine), before);
}

TEST_F(SnapshotFixture, TransferBytesExcludeBaseImage) {
  mgr.Take(machine, 0);
  EXPECT_EQ(store.TransferBytesUpTo(0), 0u);
  machine.Run(50);
  SnapshotMeta m1 = mgr.Take(machine, 1);
  machine.Run(50);
  SnapshotMeta m2 = mgr.Take(machine, 2);
  EXPECT_EQ(store.TransferBytesUpTo(2), m1.stored_bytes + m2.stored_bytes);
}

TEST_F(SnapshotFixture, DeltaSerializationRoundTrip) {
  mgr.Take(machine, 0);
  machine.Run(30);
  mgr.Take(machine, 7);
  const SnapshotDelta& d = store.Get(1);
  SnapshotDelta restored = SnapshotDelta::Deserialize(d.Serialize());
  EXPECT_EQ(restored.meta.snapshot_id, 1u);
  EXPECT_EQ(restored.meta.root, d.meta.root);
  EXPECT_EQ(restored.pages.size(), d.pages.size());
  EXPECT_EQ(restored.cpu_state, d.cpu_state);
}

// stored_bytes is computed from the field sizes, not by serializing the
// delta; it is logged, so it must stay exactly the serialized size.
TEST_F(SnapshotFixture, StoredBytesIsTheSerializedDeltaSize) {
  SnapshotMeta base = mgr.Take(machine, 0);
  machine.Run(5000);  // 1250 words from 0x5000: pages 5 and 6.
  SnapshotMeta incr = mgr.Take(machine, 1);
  SnapshotMeta empty = mgr.Take(machine, 2);  // Nothing ran: CPU state only.
  ASSERT_EQ(base.incremental_pages, kMem / kPageSize);
  ASSERT_EQ(incr.incremental_pages, 2u);
  ASSERT_EQ(empty.incremental_pages, 0u);
  for (uint64_t id = 0; id < 3; id++) {
    const SnapshotDelta& d = store.Get(id);
    EXPECT_EQ(d.meta.stored_bytes, d.Serialize().size()) << "snapshot " << id;
    EXPECT_EQ(d.SerializedSize(), d.Serialize().size()) << "snapshot " << id;
  }
  EXPECT_EQ(SnapshotMeta{}.Serialize().size(), SnapshotMeta::kSerializedSize);
}

TEST_F(SnapshotFixture, MetaSerializationRoundTrip) {
  SnapshotMeta meta = mgr.Take(machine, 123456);
  SnapshotMeta restored = SnapshotMeta::Deserialize(meta.Serialize());
  EXPECT_EQ(restored.snapshot_id, meta.snapshot_id);
  EXPECT_EQ(restored.icount, meta.icount);
  EXPECT_EQ(restored.sim_time, 123456u);
  EXPECT_EQ(restored.root, meta.root);
  EXPECT_EQ(restored.stored_bytes, meta.stored_bytes);
}

TEST_F(SnapshotFixture, StoreRejectsDuplicatesAndUnknown) {
  mgr.Take(machine, 0);
  SnapshotDelta dup = store.Get(0);
  EXPECT_THROW(store.Add(dup), std::invalid_argument);
  EXPECT_THROW(store.Get(9), std::out_of_range);
  EXPECT_THROW(store.Materialize(9, kMem), std::out_of_range);
  EXPECT_FALSE(store.Has(9));
  EXPECT_TRUE(store.Has(0));
}

TEST_F(SnapshotFixture, TamperedPageChangesMaterializedRoot) {
  mgr.Take(machine, 0);
  machine.Run(20);
  SnapshotMeta meta = mgr.Take(machine, 1);

  SnapshotStore tampered;
  tampered.Add(store.Get(0));
  SnapshotDelta d = store.Get(1);
  ASSERT_FALSE(d.pages.empty());
  d.pages[0].second[100] ^= 0xff;
  tampered.Add(std::move(d));

  MaterializedState st = tampered.Materialize(1, kMem);
  // The auditor recomputes the root and sees it differs from the logged
  // commitment: the downloaded snapshot cannot be authenticated.
  EXPECT_NE(st.root(), meta.root);
}

TEST(ComputeStateRoot, RequiresPageAlignedMemory) {
  CpuState cpu;
  Bytes mem(kPageSize + 1, 0);
  EXPECT_THROW(ComputeStateRoot(cpu, mem), std::invalid_argument);
}

}  // namespace
}  // namespace avm
