#include "src/vm/trace.h"

#include <cstring>

#include "src/util/serde.h"
#include "src/vm/isa.h"

namespace avm {

const char* TraceKindName(TraceKind k) {
  switch (k) {
    case TraceKind::kPortIn:
      return "PORT_IN";
    case TraceKind::kDmaPacket:
      return "DMA_PACKET";
    case TraceKind::kAsyncIrq:
      return "ASYNC_IRQ";
    case TraceKind::kOutConsole:
      return "OUT_CONSOLE";
    case TraceKind::kOutDebug:
      return "OUT_DEBUG";
    case TraceKind::kOutPacket:
      return "OUT_PACKET";
    case TraceKind::kClockStall:
      return "CLOCK_STALL";
  }
  return "?";
}

Bytes TraceEvent::Serialize() const {
  Bytes out;
  SerializeTo(out);
  return out;
}

void TraceEvent::SerializeTo(Bytes& out) const {
  // kind u8 | icount u64 | port u16 | value u32 | data (u32 length + bytes),
  // little-endian: the Writer layout, stored in place.
  constexpr size_t kHeader = 1 + 8 + 2 + 4 + 4;
  out.resize(kHeader + data.size());
  uint8_t* p = out.data();
  p[0] = static_cast<uint8_t>(kind);
  StoreLe(p + 1, icount);
  StoreLe(p + 9, port);
  StoreLe(p + 11, value);
  StoreLe(p + 15, static_cast<uint32_t>(data.size()));
  if (!data.empty()) {
    std::memcpy(p + kHeader, data.data(), data.size());
  }
}

TraceEvent TraceEvent::Deserialize(ByteView raw) {
  Reader r(raw);
  TraceEvent e;
  uint8_t k = r.U8();
  if (k < 1 || k > 7) {
    throw SerdeError("TraceEvent: bad kind");
  }
  e.kind = static_cast<TraceKind>(k);
  e.icount = r.U64();
  e.port = r.U16();
  e.value = r.U32();
  e.data = r.Blob();
  r.ExpectEnd();
  return e;
}

EntryType ClassifyTraceEvent(const TraceEvent& e) {
  switch (e.kind) {
    case TraceKind::kPortIn:
      if (e.port == kPortClockLo || e.port == kPortClockHi) {
        return EntryType::kTraceTime;
      }
      if (e.port == kPortNetRxLen) {
        return EntryType::kTraceMac;
      }
      return EntryType::kTraceOther;
    case TraceKind::kDmaPacket:
    case TraceKind::kOutPacket:
      return EntryType::kTraceMac;
    case TraceKind::kClockStall:
      return EntryType::kTraceTime;
    case TraceKind::kAsyncIrq:
    case TraceKind::kOutConsole:
    case TraceKind::kOutDebug:
      return EntryType::kTraceOther;
  }
  return EntryType::kTraceOther;
}

}  // namespace avm
