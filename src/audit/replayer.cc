#include "src/audit/replayer.h"

#include <algorithm>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/serde.h"

namespace avm {

namespace {

constexpr char kLandmarkInPast[] = "event landmark lies in the past; execution diverged earlier";
constexpr char kIoDidNotOccur[] = "expected I/O instruction did not occur during replay";

// Items the guest itself produces by executing IN or a logged OUT.
bool IsGuestInitiated(TraceKind k) {
  return k == TraceKind::kPortIn || k == TraceKind::kOutConsole || k == TraceKind::kOutDebug ||
         k == TraceKind::kOutPacket;
}

// avm.replay.machine_entries: RunUntilIcount calls that enter the
// machine (one per host landmark plus one per guest I/O run).
void CountMachineEntry() {
  static obs::Counter* const entries =
      obs::Registry::Global().GetCounter("avm.replay.machine_entries");
  entries->Inc();
}

}  // namespace

StreamingReplayer::StreamingReplayer(ByteView reference_image, size_t mem_size)
    : machine_(mem_size, this) {
  machine_.LoadImage(reference_image);
}

StreamingReplayer::StreamingReplayer(const MaterializedState& start)
    : machine_(start.memory.size(), this), tree_(start.tree) {
  machine_.WriteMemRange(0, start.memory);
  machine_.SetCpuState(start.cpu);
  start_icount_ = start.cpu.icount;
  // The tree already covers the memory just written (a state without one
  // gets its full build at the first root).
  machine_.ClearDirtyPages();
}

Hash256 StreamingReplayer::StateRoot() {
  obs::Span span(obs::kPhaseReplayStateRoot, "audit");
  tree_.Refresh(machine_.cpu(), machine_.memory(), machine_.CollectDirtyPages());
  machine_.ClearDirtyPages();
  return tree_.Root();
}

void StreamingReplayer::Diverge(std::string why, uint64_t seq) {
  if (!result_.ok) {
    return;  // Keep the first divergence.
  }
  result_ = ReplayResult::Fail(std::move(why), seq, machine_.cpu().icount);
}

bool StreamingReplayer::RunTo(uint64_t target, uint64_t ctx_seq) {
  if (machine_.cpu().icount > target) {
    Diverge(kLandmarkInPast, ctx_seq);
    return false;
  }
  if (machine_.cpu().icount == target) {
    return true;
  }
  CountMachineEntry();
  RunExit ex = machine_.RunUntilIcount(target);
  if (!result_.ok) {
    return false;  // A backend callback detected divergence mid-run.
  }
  if (ex == RunExit::kFault) {
    Diverge("replayed machine faulted: " + machine_.fault_reason(), ctx_seq);
    return false;
  }
  if (machine_.cpu().icount != target) {
    Diverge("replayed machine halted before event landmark", ctx_seq);
    return false;
  }
  return true;
}

uint32_t StreamingReplayer::PortIn(Machine& m, uint16_t port) {
  if (port == kPortIrqCause) {
    return m.cpu().irq_cause;  // Deterministic; never logged.
  }
  if (!result_.ok) {
    return 0;
  }
  if (pending_.empty()) {
    Diverge("guest performed IN(" + std::to_string(port) + ") beyond the end of the log", 0);
    return 0;
  }
  const PendingItem& item = pending_.front();
  if (const char* missed = MissedGuestIo(item)) {
    Diverge(missed, item.seq);
    return 0;
  }
  if (item.kind != PendingItem::Kind::kEvent || item.event.kind != TraceKind::kPortIn) {
    Diverge("guest performed IN where the log records " +
                std::string(item.kind == PendingItem::Kind::kEvent ? TraceKindName(item.event.kind)
                                                                   : "a snapshot"),
            item.seq);
    return 0;
  }
  if (item.event.port != port) {
    Diverge("IN port mismatch: log says " + std::to_string(item.event.port) + ", guest read " +
                std::to_string(port),
            item.seq);
    return 0;
  }
  if (item.event.icount != m.cpu().icount) {
    Diverge("IN landmark mismatch: log says icount " + std::to_string(item.event.icount) +
                ", guest is at " + std::to_string(m.cpu().icount),
            item.seq);
    return 0;
  }
  uint32_t value = item.event.value;
  pending_.pop_front();
  front_ready_icount_ = m.cpu().icount + 1;
  return value;
}

void StreamingReplayer::PortOut(Machine& m, uint16_t port, uint32_t value) {
  if (!result_.ok) {
    return;
  }
  TraceKind expect_kind;
  switch (port) {
    case kPortConsole:
      expect_kind = TraceKind::kOutConsole;
      break;
    case kPortDebug:
      expect_kind = TraceKind::kOutDebug;
      break;
    case kPortNetTxLen:
      if (value < 4 || value > kMaxPacket) {
        return;  // The recording NIC dropped it without logging; mirror that.
      }
      expect_kind = TraceKind::kOutPacket;
      break;
    case kPortFrame:
    case kPortNetRxDone:
    default:
      return;  // Not logged during recording; nothing to check.
  }

  if (pending_.empty()) {
    Diverge("guest produced output beyond the end of the log", 0);
    return;
  }
  const PendingItem& item = pending_.front();
  if (const char* missed = MissedGuestIo(item)) {
    Diverge(missed, item.seq);
    return;
  }
  if (item.kind != PendingItem::Kind::kEvent || item.event.kind != expect_kind) {
    Diverge(std::string("guest output ") + TraceKindName(expect_kind) +
                " where the log records something else",
            item.seq);
    return;
  }
  if (item.event.icount != m.cpu().icount) {
    Diverge("output landmark mismatch", item.seq);
    return;
  }
  if (expect_kind == TraceKind::kOutPacket) {
    Bytes tx = m.ReadMemRange(kNetTxBuf, value);
    if (!BytesEqual(tx, item.event.data)) {
      Diverge("transmitted packet differs from the logged packet", item.seq);
      return;
    }
  } else if ((item.event.value & 0xffffffffu) !=
             (expect_kind == TraceKind::kOutConsole ? (value & 0xff) : value)) {
    Diverge("output value differs from the log", item.seq);
    return;
  }
  pending_.pop_front();
  front_ready_icount_ = m.cpu().icount + 1;
}

const char* StreamingReplayer::MissedGuestIo(const PendingItem& item) const {
  if (item.kind != PendingItem::Kind::kEvent || !IsGuestInitiated(item.event.kind)) {
    return nullptr;
  }
  // Reported exactly as a replay that stopped at every item's landmark
  // and retired one instruction there would report it.
  if (item.event.icount < front_ready_icount_) {
    return kLandmarkInPast;
  }
  return machine_.cpu().icount > item.event.icount ? kIoDidNotOccur : nullptr;
}

bool StreamingReplayer::RunGuestIo() {
  const PendingItem& first = pending_.front();
  if (machine_.cpu().icount > first.event.icount) {
    Diverge(kLandmarkInPast, first.seq);
    return false;
  }
  // Run past every guest item queued before the next host item, and on
  // to that item's landmark when it is a DMA, IRQ or snapshot, so that
  // it needs no machine entry of its own. A clock stall instead needs
  // the machine stopped right after the clock read it follows.
  uint64_t stop = 0;
  for (const PendingItem& item : pending_) {
    if (item.kind == PendingItem::Kind::kSnapshotCheck) {
      stop = std::max(stop, item.snapshot.icount);
      break;
    }
    if (!IsGuestInitiated(item.event.kind)) {
      if (item.event.kind != TraceKind::kClockStall) {
        stop = std::max(stop, item.event.icount);
      }
      break;
    }
    stop = std::max(stop, item.event.icount + 1);
  }
  front_ready_icount_ = machine_.cpu().icount;
  if (machine_.cpu().icount < stop) {
    CountMachineEntry();
    machine_.RunUntilIcount(stop);
  }
  if (!result_.ok) {
    return false;  // A backend callback detected divergence mid-run.
  }
  if (pending_.empty()) {
    return true;
  }
  // Every item the guest reached was consumed; what is left at the front
  // either still lies ahead (a host item) or was missed.
  const PendingItem& item = pending_.front();
  if (item.kind != PendingItem::Kind::kEvent || !IsGuestInitiated(item.event.kind)) {
    return true;
  }
  if (const char* missed = MissedGuestIo(item)) {
    Diverge(missed, item.seq);
  } else if (machine_.faulted()) {
    // A fault does not retire its instruction, so this one sat at or
    // before the landmark.
    Diverge("replayed machine faulted: " + machine_.fault_reason(), item.seq);
  } else if (machine_.cpu().icount < item.event.icount) {
    Diverge("replayed machine halted before event landmark", item.seq);
  } else {
    Diverge(kIoDidNotOccur, item.seq);  // Halted right at the landmark.
  }
  return false;
}

void StreamingReplayer::Pump() {
  while (result_.ok && !pending_.empty()) {
    const PendingItem& item = pending_.front();
    if (item.kind == PendingItem::Kind::kSnapshotCheck) {
      if (!RunTo(item.snapshot.icount, item.seq)) {
        return;
      }
      Hash256 root = StateRoot();
      if (root != item.snapshot.root) {
        Diverge("snapshot root mismatch: logged " + item.snapshot.root.ShortHex() + ", replayed " +
                    root.ShortHex(),
                item.seq);
        return;
      }
      pending_.pop_front();
      continue;
    }

    const TraceEvent& e = item.event;
    switch (e.kind) {
      case TraceKind::kDmaPacket:
        if (!RunTo(e.icount, item.seq)) {
          return;
        }
        machine_.WriteMemRange(kNetRxBuf, e.data);
        if (e.value & 1) {
          machine_.RaiseIrq(kIrqNetRx);
        }
        pending_.pop_front();
        break;
      case TraceKind::kAsyncIrq:
        if (!RunTo(e.icount, item.seq)) {
          return;
        }
        machine_.RaiseIrq(e.value);
        pending_.pop_front();
        break;
      case TraceKind::kClockStall:
        // A §6.5 stall: the recorder jumped icount by e.value right
        // after the clock read at e.icount retired. Reproduce the jump
        // (adding it before or after the read's own icount++ commutes,
        // so applying it here, post-retirement, lands on the identical
        // instruction counter).
        if (machine_.cpu().icount != e.icount + 1) {
          Diverge("clock stall not adjacent to its clock read", item.seq);
          return;
        }
        machine_.mutable_cpu().icount += e.value;
        pending_.pop_front();
        break;
      case TraceKind::kPortIn:
      case TraceKind::kOutConsole:
      case TraceKind::kOutDebug:
      case TraceKind::kOutPacket:
        if (!RunGuestIo()) {
          return;
        }
        break;
    }
  }
}

ReplayResult StreamingReplayer::Feed(std::span<const LogEntry> entries) {
  WallTimer timer;
  for (const LogEntry& entry : entries) {
    if (!result_.ok) {
      break;
    }
    switch (entry.type) {
      case EntryType::kTraceTime:
      case EntryType::kTraceMac:
      case EntryType::kTraceOther: {
        PendingItem item;
        item.kind = PendingItem::Kind::kEvent;
        item.seq = entry.seq;
        try {
          item.event = TraceEvent::Deserialize(entry.content);
        } catch (const SerdeError& e) {
          Diverge(std::string("malformed trace entry: ") + e.what(), entry.seq);
          break;
        }
        pending_.push_back(std::move(item));
        break;
      }
      case EntryType::kSnapshot: {
        PendingItem item;
        item.kind = PendingItem::Kind::kSnapshotCheck;
        item.seq = entry.seq;
        try {
          item.snapshot = SnapshotMeta::Deserialize(entry.content);
        } catch (const SerdeError& e) {
          Diverge(std::string("malformed snapshot entry: ") + e.what(), entry.seq);
          break;
        }
        pending_.push_back(std::move(item));
        break;
      }
      case EntryType::kSend:
      case EntryType::kRecv:
      case EntryType::kAck:
      case EntryType::kInfo:
        break;  // Message-stream entries are the syntactic check's domain.
    }
  }
  Pump();
  result_.replay_seconds += timer.ElapsedSeconds();
  return Result();
}

ReplayResult StreamingReplayer::Finish() {
  finished_ = true;
  if (result_.ok && !pending_.empty()) {
    Diverge("log ended with unconsumed events", pending_.front().seq);
  }
  return Result();
}

ReplayResult StreamingReplayer::Result() {
  if (result_.ok) {
    // After a divergence, replay_icount stays where Diverge put it: where
    // the machine stopped later depends on how the log was chunked.
    result_.replay_icount = machine_.cpu().icount;
  }
  result_.instructions_replayed = machine_.cpu().icount - start_icount_;
  return result_;
}

ReplayResult ReplaySegment(const LogSegment& segment, ByteView reference_image, size_t mem_size,
                           InstructionObserver* observer) {
  StreamingReplayer r(reference_image, mem_size);
  r.mutable_machine().set_observer(observer);
  r.Feed(segment.entries);
  return r.Finish();
}

ReplayResult ReplaySegment(const LogSegment& segment, const MaterializedState& start) {
  StreamingReplayer r(start);
  r.Feed(segment.entries);
  return r.Finish();
}

}  // namespace avm
