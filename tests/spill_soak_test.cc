// Bounded memory on long runs: a log spilled into a LogStore keeps only
// its tip and a ring of TamperEvidentLog::kTailCapacity chain links in
// memory, and reads everything older back through the store. Against a
// sinkless twin of the same run (the in-memory reference), every read
// behind the ring -- At, Scan, Extract, HashAt, AppendLinks,
// AuthenticateAt, CommitLogAt -- must be bit-for-bit identical while the
// store rolls segments and seals them in the background; a batched peer
// that falls further behind than the ring must get the identical chain
// tail; batched and async game recordings build every chain tail from
// the ring; and a detached log keeps its tip and ring and refuses,
// clearly, any read behind them.
#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/avmm/transport.h"
#include "src/chaos/fault_plan.h"
#include "src/obs/metrics.h"
#include "src/sim/scenario.h"
#include "src/store/log_store.h"
#include "src/tel/segment_source.h"

namespace fs = std::filesystem;

namespace avm {
namespace {

constexpr uint64_t kSoakEntries = 200000;
constexpr uint64_t kTail = TamperEvidentLog::kTailCapacity;

std::string TempDir(const std::string& name) {
  std::string dir = (fs::path(::testing::TempDir()) / ("avm_soak_" + name)).string();
  fs::remove_all(dir);
  return dir;
}

KvScenarioConfig SoakKv() {
  KvScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();
  cfg.seed = 61;
  return cfg;
}

// Heap bytes glibc's allocator has handed out (arena plus mmapped
// chunks), printed for comparison. Sanitizer allocators do not report
// through mallinfo2.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kHeapMeasurable = false;
#else
constexpr bool kHeapMeasurable = true;
#endif
int64_t HeapInUse() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<int64_t>(mi.uordblks + mi.hblkhd);
}

bool SameEntry(const LogEntry& a, const LogEntry& b) {
  return a.seq == b.seq && a.type == b.type && a.hash == b.hash && a.content == b.content;
}

bool SameLinks(const std::vector<ChainLink>& a, const std::vector<ChainLink>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const ChainLink& x, const ChainLink& y) {
                      return x.seq == y.seq && x.type == y.type &&
                             x.content_hash == y.content_hash;
                    });
}

TEST(SpillSoak, LongKvRunKeepsABoundedTailAndReadsBackBitForBit) {
  const std::string dir = TempDir("kv");
  fs::create_directories(dir);
  LogStoreOptions opts;
  opts.sync = false;
  opts.seal_threshold_bytes = 512 * 1024;  // Several rolls, sealed on the sealer thread.

  // The spilled run: both nodes write through into stores, until the
  // clock-paced client's log (about 36k entries per simulated second)
  // passes kSoakEntries. The checks below read the client's log.
  KvScenario kv(SoakKv());
  kv.Start();
  auto server_store = LogStore::Open(dir + "/server", kv.server().id(), opts);
  auto store = LogStore::Open(dir + "/client", kv.client().id(), opts);
  kv.server().SpillTo(server_store.get());
  kv.client().SpillTo(store.get());
  Avmm& node = kv.client();
  const TamperEvidentLog& log = node.log();
  size_t peak_resident = 0;
  SimTime ran = 0;
  const int64_t heap_before_spilled = HeapInUse();
  while (log.LastSeq() < kSoakEntries) {
    kv.RunFor(kMicrosPerSecond / 2);
    ran += kMicrosPerSecond / 2;
    peak_resident = std::max(
        {peak_resident, log.ResidentEntries(), kv.server().log().ResidentEntries()});
  }
  kv.Finish();
  const int64_t spilled_growth = HeapInUse() - heap_before_spilled;

  // Its sinkless twin: the same seed for the same simulated time.
  KvScenario twin(SoakKv());
  twin.Start();
  const int64_t heap_before_twin = HeapInUse();
  twin.RunFor(ran);
  twin.Finish();
  const int64_t twin_growth = HeapInUse() - heap_before_twin;
  Avmm& twin_node = twin.client();
  const TamperEvidentLog& ref = twin_node.log();

  const uint64_t last = log.LastSeq();
  ASSERT_GE(last, kSoakEntries);
  ASSERT_EQ(ref.LastSeq(), last);
  ASSERT_EQ(log.LastHash(), ref.LastHash());
  EXPECT_LE(peak_resident, kTail);
  EXPECT_EQ(log.ResidentEntries(), kTail);
  EXPECT_EQ(ref.ResidentEntries(), last);
  EXPECT_GE(store->SegmentCount(), 4u);
  EXPECT_EQ(store->LastSeq(), last);
  if (kHeapMeasurable) {
    // Reported, not asserted: process-wide heap growth depends on the
    // allocator and on what else the process holds (the sealer's
    // buffers, the order of the runs). ResidentEntries() is the gate.
    std::printf("heap growth: spilled run %lld B, sinkless twin %lld B\n",
                static_cast<long long>(spilled_growth), static_cast<long long>(twin_growth));
  }

  // Reads behind the ring, while the sealer may still be promoting.
  const std::vector<uint64_t> seqs = {1,         2,         last / 3,     last / 2,
                                      last - kTail - 1, last - kTail, last - kTail + 1,
                                      last - 1,  last};
  for (uint64_t s : seqs) {
    EXPECT_TRUE(SameEntry(log.At(s), ref.At(s))) << "At " << s;
    EXPECT_EQ(log.HashAt(s), ref.HashAt(s)) << "HashAt " << s;
  }
  const std::vector<std::pair<uint64_t, uint64_t>> windows = {
      {1, 500}, {last / 2 - 300, last / 2 + 300}, {last - 3000, last - kTail},
      {last - kTail - 10, last - kTail + 10}, {last - 2 * kTail, last}, {last, last}};
  for (const auto& [from, to] : windows) {
    EXPECT_EQ(log.Extract(from, to).Serialize(), ref.Extract(from, to).Serialize())
        << "Extract [" << from << ", " << to << "]";
    std::vector<ChainLink> got;
    std::vector<ChainLink> want;
    log.AppendLinks(from, to, &got);
    ref.AppendLinks(from, to, &want);
    EXPECT_TRUE(SameLinks(got, want)) << "AppendLinks [" << from << ", " << to << "]";
  }
  // One pass over the whole log, read through the store.
  const LogSegment whole = ref.Extract(1, last);
  uint64_t visited = 0;
  uint64_t mismatches = 0;
  InMemorySegmentSource(log).Scan(1, last, [&](const LogEntry& e) {
    mismatches += SameEntry(e, whole.entries[visited]) ? 0 : 1;
    visited++;
    return true;
  });
  EXPECT_EQ(visited, last);
  EXPECT_EQ(mismatches, 0u);

  Prng rng(5);
  const Signer signer(log.owner(), SignatureScheme::kRsa768, rng);
  for (uint64_t s : {uint64_t{7}, last / 2, last - kTail, last}) {
    EXPECT_EQ(log.AuthenticateAt(signer, s).Serialize(), ref.AuthenticateAt(signer, s).Serialize())
        << "AuthenticateAt " << s;
    EXPECT_EQ(node.CommitLogAt(s).Serialize(), twin_node.CommitLogAt(s).Serialize())
        << "CommitLogAt " << s;
  }

  // Detached (as e2ebench does before it audits): the tip and the ring
  // stay, anything older names the missing sink.
  store->Seal();
  EXPECT_EQ(store->SealedCount(), store->SegmentCount());
  kv.server().SpillTo(nullptr);
  node.SpillTo(nullptr);
  EXPECT_EQ(node.CommitLog().Serialize(), twin_node.CommitLog().Serialize());
  EXPECT_EQ(log.HashAt(last - kTail + 1), ref.HashAt(last - kTail + 1));
  EXPECT_TRUE(SameEntry(log.At(last), ref.At(last)));
  try {
    log.At(last - kTail);
    ADD_FAILURE() << "a read behind the ring of a detached log must throw";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("no longer attached"), std::string::npos) << e.what();
  }
  EXPECT_THROW(log.Extract(1, 10), std::out_of_range);
  EXPECT_THROW(log.HashAt(last - kTail), std::out_of_range);
  EXPECT_THROW(node.CommitLogAt(last / 2), std::out_of_range);
  store.reset();
  server_store.reset();
  fs::remove_all(dir);
}

// A LogStore behind a sink that counts the reads a spilled log makes
// through it: each one is a read the ring could not serve.
class CountingSink final : public LogSink, public SegmentSource {
 public:
  explicit CountingSink(LogStore* store) : store_(store) {}
  void Append(const LogEntry& e) override { store_->Append(e); }
  void Flush() override { store_->Flush(); }
  uint64_t SinkLastSeq() const override { return store_->SinkLastSeq(); }
  std::optional<Hash256> SinkLastHash() const override { return store_->SinkLastHash(); }
  uint64_t SinkDurableSeq() const override { return store_->SinkDurableSeq(); }
  const SegmentSource* Source() const override { return this; }
  const NodeId& node() const override { return store_->node(); }
  uint64_t LastSeq() const override { return store_->LastSeq(); }
  LogSegment Extract(uint64_t from_seq, uint64_t to_seq) const override {
    reads++;
    return store_->Extract(from_seq, to_seq);
  }
  void Scan(uint64_t from_seq, uint64_t to_seq, const EntryVisitor& visit) const override {
    reads++;
    store_->Scan(from_seq, to_seq, visit);
  }
  mutable uint64_t reads = 0;

 private:
  LogStore* store_;
};

// The ring serves every chain tail the batched and async modes build
// while recording. The longest tail is what a node logs between two
// frames to one peer; in the game that is the server's log over one
// broadcast period, about 520-540 entries for 2 to 8 players (with and
// without the frame cap, and over a network that drops and duplicates
// frames), so kTailCapacity leaves about 2x headroom.
TEST(SpillSoak, GameChainTailsNeverReadThroughTheStore) {
  struct Case {
    const char* name;
    SignMode mode;
    bool lossy;
  };
  for (const Case& c : {Case{"batched", SignMode::kBatched, false},
                        Case{"async", SignMode::kAsync, false},
                        Case{"lossy_batched", SignMode::kBatched, true}}) {
    const std::string dir = TempDir(std::string("game_") + c.name);
    // record_pin_test's lossy plan: 5% drops and 5% duplicates, which
    // stop before the end so Finish() settles every retransmission.
    chaos::FaultPlan plan;
    plan.seed = chaos::DeriveSeed(3, "record-pin");
    if (c.lossy) {
      for (const chaos::FaultType type : {chaos::FaultType::kNetDrop,
                                          chaos::FaultType::kNetDuplicate}) {
        chaos::FaultEvent fault;
        fault.type = type;
        fault.when.probability = 0.05;
        fault.when.before_us = 750 * kMicrosPerMilli;
        plan.Add(fault);
      }
    }
    chaos::FaultInjector injector(plan);
    GameScenarioConfig cfg;
    cfg.run = c.mode == SignMode::kBatched ? RunConfig::AvmmRsa768Batched()
                                           : RunConfig::AvmmRsa768Async();
    cfg.num_players = 3;
    cfg.seed = 3;
    cfg.chaos = &injector;
    GameScenario game(cfg);
    game.Start();
    std::vector<Avmm*> nodes = {&game.server()};
    for (int i = 0; i < game.num_players(); i++) {
      nodes.push_back(&game.player(i));
    }
    LogStoreOptions opts;
    opts.sync = false;
    std::vector<std::unique_ptr<LogStore>> stores;
    std::vector<std::unique_ptr<CountingSink>> sinks;
    for (Avmm* n : nodes) {
      stores.push_back(LogStore::Open(dir + "/" + n->id(), n->id(), opts));
      sinks.push_back(std::make_unique<CountingSink>(stores.back().get()));
      n->SpillTo(sinks.back().get());
    }
    game.RunFor(kMicrosPerSecond);
    game.Finish();
    uint64_t retransmits = 0;
    for (size_t i = 0; i < nodes.size(); i++) {
      EXPECT_GT(nodes[i]->transport().stats().batch_commits_signed, 0u) << nodes[i]->id();
      EXPECT_GT(nodes[i]->log().LastSeq(), 2 * kTail) << nodes[i]->id();
      EXPECT_EQ(sinks[i]->reads, 0u) << c.name << " " << nodes[i]->id();
      retransmits += nodes[i]->transport().stats().retransmits;
      nodes[i]->SpillTo(nullptr);
    }
    if (c.lossy) {
      EXPECT_GT(retransmits, 0u);  // The plan did drop frames.
    }
    stores.clear();
    fs::remove_all(dir);
  }
}

// Receives frames and keeps their bytes.
class FrameTap : public NetworkDelegate {
 public:
  void OnFrame(SimTime, const NodeId&, ByteView frame) override {
    frames.emplace_back(frame.begin(), frame.end());
  }
  std::vector<Bytes> frames;
};

// One batched sender with two taps as peers: carol hears from alice,
// then bob gets enough traffic to push carol's last shipped seq behind
// the ring, then carol hears from alice again.
struct BatchedSender {
  BatchedSender(const RunConfig* cfg, const Signer* signer, const KeyRegistry* registry,
                LogStore* store)
      : log("alice"),
        transport("alice", cfg, &log, signer, &net, registry, &auths) {
    if (store != nullptr) {
      log.SetSink(store);
    }
    net.AttachHost("alice", &transport);
    net.AttachHost("bob", &bob);
    net.AttachHost("carol", &carol);
  }

  void Send(SimTime t, const NodeId& dst, int i) {
    transport.SendPacket(t, dst, ToBytes("payload-" + std::to_string(i)));
    net.DeliverUntil(t + kMicrosPerSecond);
  }

  SimNetwork net;
  TamperEvidentLog log;
  AuthenticatorStore auths;
  Transport transport;
  FrameTap bob;
  FrameTap carol;
};

TEST(SpillSoak, BatchedPeerBehindTheRingGetsTheSameChainTail) {
  const std::string dir = TempDir("batched");
  RunConfig cfg = RunConfig::AvmmRsa768Batched(8);
  Prng rng(17);
  const Signer signer("alice", cfg.scheme, rng);
  KeyRegistry registry;
  registry.RegisterSigner(signer);
  LogStoreOptions opts;
  opts.sync = false;
  opts.seal_threshold_bytes = 32 * 1024;  // The skipped range spans sealed segments.
  auto store = LogStore::Open(dir, "alice", opts);

  BatchedSender spilled(&cfg, &signer, &registry, store.get());
  BatchedSender twin(&cfg, &signer, &registry, nullptr);
  const obs::Counter* loads =
      obs::Registry::Global().GetCounter("store_segment_loads_total", {{"node", "alice"}});
  uint64_t carol_known = 0;
  uint64_t loads_before = 0;
  SimTime t = 0;
  for (int i = 0; i < 3 + static_cast<int>(kTail); i++) {
    const bool to_carol = i == 0 || i == 2 + static_cast<int>(kTail);
    if (to_carol && i > 0) {
      // Everything carol has not seen yet is behind the ring now.
      ASSERT_GT(spilled.log.LastSeq() - carol_known, kTail);
      loads_before = loads->Value();
    }
    t += kMicrosPerMilli;
    for (BatchedSender* s : {&spilled, &twin}) {
      s->Send(t, to_carol ? "carol" : "bob", i);
    }
    if (to_carol && i == 0) {
      carol_known = spilled.log.LastSeq();
    }
  }
  EXPECT_GT(loads->Value(), loads_before) << "the tail behind the ring was not read from the store";
  EXPECT_EQ(spilled.log.LastHash(), twin.log.LastHash());
  EXPECT_LE(spilled.log.ResidentEntries(), kTail);
  ASSERT_EQ(spilled.carol.frames.size(), 2u);
  EXPECT_EQ(spilled.carol.frames, twin.carol.frames);
  EXPECT_EQ(spilled.bob.frames, twin.bob.frames);
  spilled.log.SetSink(nullptr);
  store.reset();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace avm
