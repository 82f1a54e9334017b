// Pins the record path's in-place trace encoding: Avmm::RecordEvent
// encodes each trace event into one reused buffer (TraceEvent::SerializeTo)
// and the log copies those bytes into its entry. For every TraceKind the
// bytes must be the documented layout, TraceEvent::Serialize()'s bytes,
// whatever the buffer held before, and must round-trip through
// TraceEvent::Deserialize -- also once read back from a LogStore the log
// spilled into.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <vector>

#include "src/sim/scenario.h"
#include "src/store/log_store.h"
#include "src/util/serde.h"
#include "src/vm/isa.h"
#include "src/vm/trace.h"

namespace fs = std::filesystem;

namespace avm {
namespace {

// The wire layout, written field by field with the serde Writer.
Bytes WriterLayout(const TraceEvent& e) {
  Writer w;
  w.U8(static_cast<uint8_t>(e.kind));
  w.U64(e.icount);
  w.U16(e.port);
  w.U32(e.value);
  w.Blob(e.data);
  return w.Take();
}

Bytes Pattern(size_t n, uint8_t seed) {
  Bytes b(n);
  for (size_t i = 0; i < n; i++) {
    b[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return b;
}

TEST(TraceEncoding, ReusedBufferMatchesTheLayoutForEveryKind) {
  Bytes buf;  // One buffer for every event, as RecordEvent reuses it.
  int encoded = 0;
  // Long, short, empty, then long again: a stale byte from an earlier
  // event would show in a later one.
  for (size_t data_len : {1500u, 3u, 0u, 64u, 1500u}) {
    for (uint8_t k = 1; k <= 7; k++) {
      TraceEvent e;
      e.kind = static_cast<TraceKind>(k);
      e.icount = 0x0102030405060708ull * k + data_len;
      e.port = static_cast<uint16_t>(0x0a0b + k);
      e.value = 0xdeadbeefu ^ k;
      e.data = Pattern(data_len, k);
      e.SerializeTo(buf);
      const Bytes want = WriterLayout(e);
      ASSERT_EQ(buf, want) << TraceKindName(e.kind) << " with " << data_len << " data bytes";
      ASSERT_EQ(e.Serialize(), want) << TraceKindName(e.kind);
      ASSERT_EQ(TraceEvent::Deserialize(buf), e) << TraceKindName(e.kind);
      encoded++;
    }
  }
  EXPECT_EQ(encoded, 35);
}

// Every trace entry a recording wrote decodes to one event that
// re-encodes to the same bytes and classifies to the entry's type.
// Returns how many entries of each kind the range held.
std::map<TraceKind, int> CheckTraceEntries(const TamperEvidentLog& log, uint64_t from,
                                           bool* dma_data, bool* out_packet_data) {
  std::map<TraceKind, int> kinds;
  log.Scan(from, log.LastSeq(), [&](const LogEntry& e) {
    if (e.type != EntryType::kTraceTime && e.type != EntryType::kTraceMac &&
        e.type != EntryType::kTraceOther) {
      return true;
    }
    const TraceEvent ev = TraceEvent::Deserialize(e.content);
    EXPECT_EQ(ev.Serialize(), e.content) << "seq " << e.seq;
    EXPECT_EQ(ClassifyTraceEvent(ev), e.type) << "seq " << e.seq;
    kinds[ev.kind]++;
    *dma_data |= ev.kind == TraceKind::kDmaPacket && !ev.data.empty();
    *out_packet_data |= ev.kind == TraceKind::kOutPacket && !ev.data.empty();
    return true;
  });
  return kinds;
}

TEST(TraceEncoding, RecordEventWritesSerializeBytesForEveryRecordedKind) {
  const std::string dir = (fs::path(::testing::TempDir()) / "avm_trace_encoding").string();
  fs::remove_all(dir);
  KvScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();
  cfg.seed = 12;
  KvScenario kv(cfg);
  kv.Start();
  LogStoreOptions opts;
  opts.sync = false;
  opts.seal_threshold_bytes = 64 * 1024;  // The scan below crosses sealed segments.
  auto store = LogStore::Open(dir, kv.server().id(), opts);
  Avmm& node = kv.server();
  node.SpillTo(store.get());
  kv.RunFor(kMicrosPerSecond);

  // Drive the device exits the kv guests do not use, straight through
  // the AVMM's port handlers, and pin each entry to the event it logs.
  Machine& m = node.machine();
  auto expect_last = [&](TraceKind kind, uint16_t port, uint32_t value, const Bytes& data) {
    TraceEvent want;
    want.kind = kind;
    want.icount = m.cpu().icount;
    want.port = port;
    want.value = value;
    want.data = data;
    const LogEntry got = node.log().At(node.log().LastSeq());
    EXPECT_EQ(got.content, want.Serialize()) << TraceKindName(kind);
    EXPECT_EQ(got.type, ClassifyTraceEvent(want)) << TraceKindName(kind);
  };
  const uint64_t first_driven = node.log().LastSeq() + 1;
  node.PortOut(m, kPortConsole, 0x141);
  expect_last(TraceKind::kOutConsole, 0, 0x41, {});
  node.PortOut(m, kPortDebug, 0xfeedf00d);
  expect_last(TraceKind::kOutDebug, 0, 0xfeedf00d, {});
  const Bytes attestation = Pattern(300, 9);
  node.PushInput(7, attestation);
  expect_last(TraceKind::kOutDebug, 0, 0xfeedf00d, {});  // Queued, not logged yet.
  const uint32_t input = node.PortIn(m, kPortInput);
  EXPECT_EQ(input, 7u);
  expect_last(TraceKind::kPortIn, kPortInput, 7, attestation);
  const uint32_t rand = node.PortIn(m, kPortRand);
  expect_last(TraceKind::kPortIn, kPortRand, rand, {});

  bool dma_data = false;
  bool out_packet_data = false;
  std::map<TraceKind, int> kinds = CheckTraceEntries(node.log(), 1, &dma_data, &out_packet_data);
  EXPECT_GT(kinds[TraceKind::kPortIn], 0);
  EXPECT_GT(kinds[TraceKind::kDmaPacket], 0);
  EXPECT_GT(kinds[TraceKind::kOutPacket], 0);
  EXPECT_EQ(kinds[TraceKind::kOutConsole], 1);
  EXPECT_EQ(kinds[TraceKind::kOutDebug], 1);
  EXPECT_TRUE(dma_data);
  EXPECT_TRUE(out_packet_data);

  // The same bytes once read back from the store the log spilled into.
  store->Flush();
  const LogSegment driven = store->Extract(first_driven, store->LastSeq());
  const LogSegment from_log = node.log().Extract(first_driven, node.log().LastSeq());
  EXPECT_EQ(driven.Serialize(), from_log.Serialize());
  node.SpillTo(nullptr);
  store.reset();
  fs::remove_all(dir);
}

// The §6.5 clock optimization logs a kClockStall after a delayed read.
TEST(TraceEncoding, ClockStallEntriesRoundTrip) {
  GameScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();
  cfg.run.clock_read_optimization = true;
  cfg.num_players = 2;
  cfg.seed = 3;
  GameScenario game(cfg);
  game.Start();
  Avmm& node = game.player(0);
  Machine& m = node.machine();
  game.RunFor(100 * kMicrosPerMilli);
  // Back-to-back clock reads are consecutive: the second one stalls.
  node.PortIn(m, kPortClockLo);
  node.PortIn(m, kPortClockLo);
  bool dma_data = false;
  bool out_packet_data = false;
  std::map<TraceKind, int> kinds = CheckTraceEntries(node.log(), 1, &dma_data, &out_packet_data);
  EXPECT_GT(kinds[TraceKind::kClockStall], 0);
  EXPECT_GT(kinds[TraceKind::kPortIn], 0);
}

}  // namespace
}  // namespace avm
