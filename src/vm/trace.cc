#include "src/vm/trace.h"

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
  Writer w(1 + 8 + 2 + 4 + 4 + data.size());
  w.U8(static_cast<uint8_t>(kind));
  w.U64(icount);
  w.U16(port);
  w.U32(value);
  w.Blob(data);
  return w.Take();
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
