// Execution-trace events: the nondeterministic inputs and checked outputs
// of one AVM execution (§4.4). The recording AVMM serializes each event
// into the tamper-evident log; the replaying auditor feeds them back and
// cross-checks.
//
// Taxonomy (mirrors the paper):
//  * synchronous inputs (kPortIn): requested by the guest; only the value
//    (plus the instruction-count landmark, for cross-checking) is logged.
//  * asynchronous inputs (kDmaPacket, kAsyncIrq): initiated by the host;
//    must be re-injected at the exact same instruction count on replay.
//  * outputs (kOutPacket, kOutConsole, kOutDebug): deterministic given the
//    inputs; logged so replay can detect divergence at the earliest point.
#ifndef SRC_VM_TRACE_H_
#define SRC_VM_TRACE_H_

#include <cstdint>

#include "src/tel/log.h"
#include "src/util/bytes.h"

namespace avm {

enum class TraceKind : uint8_t {
  kPortIn = 1,      // Guest IN: port, value, icount at the read.
  kDmaPacket = 2,   // Host wrote a packet into the RX buffer + IRQ_NET_RX.
  kAsyncIrq = 3,    // Host raised an interrupt (e.g. input available).
  kOutConsole = 4,  // Guest console byte.
  kOutDebug = 5,    // Guest debug word.
  kOutPacket = 6,   // Guest transmitted a packet (payload included).
  kClockStall = 7,  // §6.5 optimization stalled the AVM: icount jumps by
                    // `value` instructions right after the clock read.
};

const char* TraceKindName(TraceKind k);

struct TraceEvent {
  TraceKind kind = TraceKind::kPortIn;
  uint64_t icount = 0;  // Landmark: position in the instruction stream.
  uint16_t port = 0;    // kPortIn only.
  uint32_t value = 0;   // kPortIn result, IRQ cause, console byte, debug word.
  Bytes data;           // Packet payload for kDmaPacket / kOutPacket.

  Bytes Serialize() const;
  // Serialize() into `out`, replacing its contents; a buffer reused
  // across events allocates only when it outgrows its peak.
  void SerializeTo(Bytes& out) const;
  static TraceEvent Deserialize(ByteView data);

  bool operator==(const TraceEvent& o) const {
    return kind == o.kind && icount == o.icount && port == o.port && value == o.value &&
           BytesEqual(data, o.data);
  }
};

// Which tamper-evident-log stream an event belongs to (Figure 4's
// breakdown: TimeTracker / MAC layer / other).
EntryType ClassifyTraceEvent(const TraceEvent& e);

}  // namespace avm

#endif  // SRC_VM_TRACE_H_
