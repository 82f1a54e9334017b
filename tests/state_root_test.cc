// Incremental state roots against the full rebuild they must equal.
//
// The recorder (SnapshotManager::Take) and the replayer
// (StreamingReplayer::StateRoot) each keep one StateTree per machine and
// rehash only the pages whose dirty mark is set, plus the CPU leaf. A
// memory write that missed its mark would log (or accept) a root that
// does not commit to memory, and every audit would still pass, because
// both sides would agree on the stale leaf. So every root taken here is
// compared with ComputeStateRoot, the full build over the machine's
// memory and CPU: on the record side at every snapshot, on the replay
// side at every snapshot check, over every memory write path (the host
// writes, guest stores under Step() and under the JIT, DMA delivery,
// memory-poking cheats), from the reference image, from a materialized
// snapshot, and across an audit checkpoint capture.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/apps/cheats.h"
#include "src/audit/checkpoint.h"
#include "src/audit/pipeline.h"
#include "src/audit/replayer.h"
#include "src/avmm/snapshot.h"
#include "src/avmm/transport.h"
#include "src/sim/scenario.h"
#include "src/vm/assembler.h"
#include "src/vm/jit/jit.h"

namespace avm {
namespace {

constexpr size_t kMem = 64 * 1024;

// Stores words into pages 4..7 and bytes into pages 8..11, a new page
// every few iterations, and wraps around: hot enough for the JIT to
// translate, and no page is dirtied by both kinds of store.
constexpr char kStoreGuest[] = R"(
      la r3, 0x8000
      movi r2, 1
restart:
      la r1, 0x4000
loop:
      sw r2, [r1]
      sb r2, [r1+16387]
      addi r2, 1
      addi r1, 1300
      bltu r1, r3, loop
      jmp restart
)";

// Checks, on the record side, every kSnapshot entry a node logs against
// the full rebuild of the node's machine at the moment it is logged
// (Avmm::TakeSnapshot appends right after SnapshotManager::Take).
// Attached before the node runs, so the backfilled snapshot 0 is checked
// too.
class RecordRootCheck : public LogSink {
 public:
  explicit RecordRootCheck(Avmm& node) : node_(node) { node.log().SetSink(this); }
  ~RecordRootCheck() override { node_.log().SetSink(nullptr); }

  void Append(const LogEntry& e) override {
    last_seq_ = e.seq;
    if (e.type != EntryType::kSnapshot) {
      return;
    }
    SnapshotMeta meta = SnapshotMeta::Deserialize(e.content);
    EXPECT_EQ(meta.root, ComputeStateRoot(node_.machine()))
        << node_.id() << " snapshot " << meta.snapshot_id;
    checked_++;
  }
  uint64_t SinkLastSeq() const override { return last_seq_; }
  int checked() const { return checked_; }

 private:
  Avmm& node_;
  int checked_ = 0;
  uint64_t last_seq_ = 0;
};

// Expects the replayer's tree to be the full build over its machine.
void ExpectReplayRootIsFull(StreamingReplayer& r, const std::string& where) {
  EXPECT_EQ(r.state_tree().Root(), ComputeStateRoot(r.machine())) << where;
}

// Feeds `entries` to `r` one snapshot at a time, so that after each Feed
// the machine stands where its last snapshot check ran, and compares the
// replayer's root with the full build there. Returns the number of
// snapshot checks compared; stops at a divergence.
int ReplayCheckingEveryRoot(StreamingReplayer& r, std::span<const LogEntry> entries) {
  int checked = 0;
  size_t begin = 0;
  for (size_t i = 0; i < entries.size(); i++) {
    if (entries[i].type != EntryType::kSnapshot && i + 1 < entries.size()) {
      continue;
    }
    r.Feed(entries.subspan(begin, i + 1 - begin));
    begin = i + 1;
    if (r.diverged()) {
      break;
    }
    if (entries[i].type == EntryType::kSnapshot) {
      ExpectReplayRootIsFull(r, "snapshot check at seq " + std::to_string(entries[i].seq));
      EXPECT_EQ(r.state_tree().Root(), SnapshotMeta::Deserialize(entries[i].content).root);
      checked++;
    }
  }
  return checked;
}

std::vector<LogEntry> WholeLog(const Avmm& node) {
  return node.log().Extract(1, node.log().LastSeq()).entries;
}

// --- host write paths and guest stores, one machine ----------------------

struct SnapshotRootFixture : public ::testing::Test {
  SnapshotRootFixture() : machine(kMem, &backend), mgr(&store) {
    machine.LoadImage(Assemble(kStoreGuest));
    Take();  // The base: the one full build.
  }

  SnapshotMeta Take() {
    SnapshotMeta meta = mgr.Take(machine, ++sim_time);
    EXPECT_EQ(meta.root, ComputeStateRoot(machine)) << "snapshot " << meta.snapshot_id;
    return meta;
  }

  NullBackend backend;
  Machine machine;
  SnapshotStore store;
  SnapshotManager mgr;
  SimTime sim_time = 0;
};

TEST_F(SnapshotRootFixture, EveryHostWritePathReachesTheRoot) {
  machine.WriteMem8(0x5003, 0xab);
  EXPECT_EQ(Take().incremental_pages, 1u);
  machine.WriteMem32(0x6ffc, 0xdeadbeef);
  EXPECT_EQ(Take().incremental_pages, 1u);
  // A range across a page boundary dirties both pages.
  machine.WriteMemRange(0x7ff0, Bytes(32, 0x5a));
  EXPECT_EQ(Take().incremental_pages, 2u);
  machine.WriteMemRange(kNetRxBuf, Bytes(100, 0x11));
  Take();
  // A second image over part of memory, after the base.
  machine.LoadImage(Bytes(3 * kPageSize + 5, 0x77), 0x9000);
  Take();
  // Nothing written: the CPU leaf alone changes.
  machine.mutable_cpu().regs[5] ^= 0x1234;
  EXPECT_EQ(Take().incremental_pages, 0u);
  // Writing a page back to what it held still rehashes to the same leaf.
  uint8_t old = machine.ReadMem8(0x5003);
  machine.WriteMem8(0x5003, old ^ 1);
  machine.WriteMem8(0x5003, old);
  Take();
}

TEST(GuestStoreRoots, StepAndJitStoresReachTheRoot) {
  std::vector<Hash256> roots[2];
  for (bool jit : {false, true}) {
    SCOPED_TRACE(jit ? "jit" : "Step()");
    NullBackend b;
    Machine m(kMem, &b);
    m.set_jit_enabled(jit);
    m.LoadImage(Assemble(kStoreGuest));
    SnapshotStore s;
    SnapshotManager mg(&s);
    mg.Take(m, 0);
    for (int i = 0; i < 24; i++) {
      m.Run(37 + 53 * i);
      SnapshotMeta meta = mg.Take(m, i + 1);
      EXPECT_EQ(meta.root, ComputeStateRoot(m)) << "snapshot " << meta.snapshot_id;
      EXPECT_LT(meta.incremental_pages, meta.total_pages);
      roots[jit].push_back(meta.root);
    }
    if (jit && Machine::JitCompiledIn()) {
      ASSERT_NE(m.jit_stats(), nullptr);
      EXPECT_GT(m.jit_stats()->native_enters, 0u) << "the stores never ran translated";
    }
  }
  EXPECT_EQ(roots[0], roots[1]) << "the tiers retired different states";
}

TEST(StateTree, RefreshEqualsFullBuildAndFirstRefreshBuilds) {
  NullBackend backend;
  Machine m(kMem, &backend);
  m.LoadImage(Assemble(kStoreGuest));
  StateTree tree;
  EXPECT_TRUE(tree.empty());
  // The first refresh is the full build, whatever the dirty list says.
  tree.Refresh(m.cpu(), m.memory(), {});
  EXPECT_EQ(tree.Root(), ComputeStateRoot(m));
  EXPECT_EQ(tree.page_count(), kMem / kPageSize);
  m.ClearDirtyPages();
  m.Run(500);
  std::vector<uint32_t> dirty = m.CollectDirtyPages();
  ASSERT_FALSE(dirty.empty());
  tree.Refresh(m.cpu(), m.memory(), dirty);
  EXPECT_EQ(tree.Root(), ComputeStateRoot(m));
  EXPECT_THROW(tree.Refresh(m.cpu(), ByteView(m.memory()).first(kPageSize), {}),
               std::invalid_argument);
}

// --- whole scenarios: record side at every snapshot, replay side at every
// --- snapshot check --------------------------------------------------------

KvScenarioConfig DenseKv() {
  KvScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();
  cfg.run.snapshot_interval = 150 * kMicrosPerMilli;  // The client's.
  cfg.seed = 11;
  cfg.snapshot_interval = 100 * kMicrosPerMilli;  // The server's.
  cfg.client.op_period_us = 5 * kMicrosPerMilli;
  return cfg;
}

class KvRootTest : public ::testing::TestWithParam<bool> {};

TEST_P(KvRootTest, EveryRecordedAndReplayedRootEqualsTheFullBuild) {
  const bool jit = GetParam();
  KvScenario kv(DenseKv());
  kv.Start();
  kv.server().machine().set_jit_enabled(jit);
  kv.client().machine().set_jit_enabled(jit);
  RecordRootCheck server_check(kv.server());
  RecordRootCheck client_check(kv.client());
  kv.RunFor(2 * kMicrosPerSecond);
  kv.Finish();
  EXPECT_GE(server_check.checked(), 20);
  EXPECT_GE(client_check.checked(), 12);
  // The server is IRQ-driven: every request is a DMA delivery.
  EXPECT_GT(kv.server().stats().guest_packets_delivered, 100u);

  StreamingReplayer r(kv.reference_server_image(), kv.server().config().mem_size);
  r.mutable_machine().set_jit_enabled(jit);
  std::vector<LogEntry> log = WholeLog(kv.server());
  EXPECT_EQ(ReplayCheckingEveryRoot(r, log), server_check.checked());
  ReplayResult res = r.Finish();
  EXPECT_TRUE(res.ok) << res.reason << " at seq " << res.diverged_seq;
}

INSTANTIATE_TEST_SUITE_P(Tiers, KvRootTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "Jit" : "Step";
                         });

TEST(GameRootTest, MemoryPokingCheatsReachEveryRecordedRoot) {
  GameScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();
  cfg.run.snapshot_interval = 100 * kMicrosPerMilli;
  cfg.num_players = 3;
  cfg.seed = 4;
  GameScenario game(cfg);
  game.SetCheat(0, RunnableCheat::kUnlimitedAmmo);
  game.SetCheat(1, RunnableCheat::kTeleport);
  game.Start();
  std::vector<std::unique_ptr<RecordRootCheck>> checks;
  checks.push_back(std::make_unique<RecordRootCheck>(game.server()));
  for (int i = 0; i < game.num_players(); i++) {
    checks.push_back(std::make_unique<RecordRootCheck>(game.player(i)));
  }
  game.RunFor(2 * kMicrosPerSecond);
  game.Finish();
  for (const auto& c : checks) {
    EXPECT_GE(c->checked(), 15);
  }

  // Replay: the honest nodes pass with every root checked; a cheater's
  // pokes are not in its log, so its replay diverges, and every root up
  // to there still matches.
  for (int node = -1; node < game.num_players(); node++) {
    Avmm& target = node < 0 ? game.server() : game.player(node);
    SCOPED_TRACE(target.id());
    const Bytes& image = node < 0 ? game.reference_server_image() : game.reference_client_image();
    StreamingReplayer r(image, target.config().mem_size);
    std::vector<LogEntry> log = WholeLog(target);
    int checked = ReplayCheckingEveryRoot(r, log);
    ReplayResult res = r.Finish();
    if (node == 0 || node == 1) {
      EXPECT_FALSE(res.ok) << "a memory-poking cheat replayed clean";
    } else {
      EXPECT_TRUE(res.ok) << res.reason;
      EXPECT_GE(checked, 15);
    }
  }
}

// --- DMA delivery as the only memory writer ---------------------------------

// Takes every packet in its IRQ handler and prints a word of it, and
// never stores to memory (interrupt entry saves the pc in a register):
// the NIC's DMA into RX_BUF is the only write to any page. In the kv
// scenario RX_BUF shares its page with TX_BUF, which the server's own
// reply stores dirty every snapshot interval, so a DMA write that missed
// its dirty mark would be rehashed anyway and show in no root.
constexpr char kDmaOnlyGuest[] = R"(
    jmp main
    jmp irqh
irqh:
    in r1, IRQ_CAUSE
    in r2, NET_RXLEN
    la r3, RX_BUF
    lw r4, [r3+4]
    out r4, DEBUG
    out r0, NET_RXDONE
    iret
main:
    movi r0, 0
    ei
loop:
    addi r5, 1
    jmp loop
)";

TEST(DmaRoots, DeliveryAloneReachesEveryRecordedAndReplayedRoot) {
  Prng rng(5);
  Signer signer("rx", SignatureScheme::kNone, rng);
  Signer peer_signer("peer", SignatureScheme::kNone, rng);
  KeyRegistry registry;
  registry.RegisterSigner(signer);
  registry.RegisterSigner(peer_signer);
  SimNetwork net;
  RunConfig cfg = RunConfig::AvmmNoSig();
  cfg.rx_irq = true;
  cfg.snapshot_interval = 2000;
  const Bytes image = Assemble(kDmaOnlyGuest);
  Avmm node("rx", cfg, image, &signer, &net, &registry);
  node.AddPeer("rx");
  RecordRootCheck check(node);

  RunConfig plain = RunConfig::BareHw();
  TamperEvidentLog sender_log("peer");
  AuthenticatorStore sender_auths;
  Transport sender("peer", &plain, &sender_log, &peer_signer, &net, &registry, &sender_auths);
  net.AttachHost("peer", &sender);
  SimTime now = 0;
  for (int i = 0; i < 60; i++) {
    if (i % 3 == 1) {
      Bytes pkt;
      for (uint32_t w = 0; w < 16; w++) {
        PutU32(pkt, 0x1000u * static_cast<uint32_t>(i) + w);
      }
      sender.SendPacket(now, "rx", pkt);
    }
    net.DeliverUntil(now);
    node.RunQuantum(now, 1000);
    now += 1000;
  }
  node.Finish(now);
  EXPECT_GE(node.stats().guest_packets_delivered, 15u);
  EXPECT_GE(node.debug_values().size(), 15u);
  EXPECT_GE(check.checked(), 25);

  // After the base snapshot, a delivery between two snapshots dirtied
  // exactly RX_BUF's page, and nothing else dirtied any.
  std::vector<SnapshotIndexEntry> snaps = IndexSnapshots(node.log());
  int rx_page_only = 0;
  for (const SnapshotIndexEntry& s : snaps) {
    if (s.meta.snapshot_id == 0) {
      continue;
    }
    rx_page_only += s.meta.incremental_pages == 1 ? 1 : 0;
    EXPECT_LE(s.meta.incremental_pages, 1u) << "snapshot " << s.meta.snapshot_id;
  }
  EXPECT_GE(rx_page_only, 10);

  StreamingReplayer r(image, cfg.mem_size);
  EXPECT_EQ(ReplayCheckingEveryRoot(r, WholeLog(node)), check.checked());
  ReplayResult res = r.Finish();
  EXPECT_TRUE(res.ok) << res.reason << " at seq " << res.diverged_seq;
}

// --- replayers that do not start from the image ---------------------------

struct KvLogFixture : public ::testing::Test {
  KvLogFixture() : kv(DenseKv()) {
    kv.Start();
    kv.RunFor(2 * kMicrosPerSecond);
    kv.Finish();
    log = WholeLog(kv.server());
    snaps = IndexSnapshots(kv.server().log());
  }
  KvScenario kv;
  std::vector<LogEntry> log;
  std::vector<SnapshotIndexEntry> snaps;
};

TEST_F(KvLogFixture, SpotCheckReplayerKeepsTheMaterializedTree) {
  ASSERT_GE(snaps.size(), 6u);
  const size_t mem = kv.server().config().mem_size;
  for (size_t i : {size_t{1}, snaps.size() / 2, snaps.size() - 2}) {
    SCOPED_TRACE("from snapshot " + std::to_string(snaps[i].meta.snapshot_id));
    MaterializedState start =
        kv.server().snapshot_store().Materialize(snaps[i].meta.snapshot_id, mem);
    EXPECT_EQ(start.root(), snaps[i].meta.root);
    StreamingReplayer r(start);
    ExpectReplayRootIsFull(r, "start");
    std::span<const LogEntry> tail(log);
    tail = tail.subspan(snaps[i].seq - 1);
    EXPECT_EQ(ReplayCheckingEveryRoot(r, tail), static_cast<int>(snaps.size() - i));
    ReplayResult res = r.Finish();
    EXPECT_TRUE(res.ok) << res.reason << " at seq " << res.diverged_seq;
  }
}

TEST_F(KvLogFixture, CheckpointBetweenTwoSnapshotChecksKeepsRootsExact) {
  ASSERT_GE(snaps.size(), 4u);
  // A capture point halfway between two snapshot checks, after guest
  // stores and DMA the last check has not seen.
  const uint64_t capture_seq = (snaps[1].seq + snaps[2].seq) / 2;
  ASSERT_LT(snaps[1].seq, capture_seq);
  std::span<const LogEntry> all(log);
  StreamingReplayer r(kv.reference_server_image(), kv.server().config().mem_size);
  EXPECT_EQ(ReplayCheckingEveryRoot(r, all.first(capture_seq)), 2);
  ASSERT_TRUE(r.Checkpointable());
  EXPECT_FALSE(r.machine().CollectDirtyPages().empty());

  ChunkedSyntacticChecker checker(kv.server().id(), 1, Hash256::Zero(), kv.registry(),
                                  /*strict_crossref=*/true);
  AuditCheckpoint cp = CaptureAuditCheckpoint(kv.server().id(), "auditor", capture_seq, checker,
                                              r, /*signer=*/nullptr);
  ExpectReplayRootIsFull(r, "capture");
  // Deserialize rebuilds the state's tree in full and rejects a root
  // that does not match it.
  MaterializedState captured = MaterializedState::Deserialize(cp.machine_state);
  EXPECT_EQ(captured.root(), ComputeStateRoot(r.machine()));

  // The replayer goes on from the capture, and so does one resumed from
  // the captured state.
  StreamingReplayer resumed(captured);
  const int rest = static_cast<int>(snaps.size()) - 2;
  EXPECT_EQ(ReplayCheckingEveryRoot(r, all.subspan(capture_seq)), rest);
  EXPECT_EQ(ReplayCheckingEveryRoot(resumed, all.subspan(capture_seq)), rest);
  for (StreamingReplayer* x : {&r, &resumed}) {
    ReplayResult res = x->Finish();
    EXPECT_TRUE(res.ok) << res.reason << " at seq " << res.diverged_seq;
  }
}

}  // namespace
}  // namespace avm
