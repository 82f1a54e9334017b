#include "src/avmm/recorder.h"

#include <stdexcept>

namespace avm {

namespace {
// Plain per-entry header a conventional VMM trace log would use
// (type + length + icount landmark, no hashes): 13 bytes.
constexpr size_t kPlainEntryHeader = 13;
}  // namespace

Avmm::Avmm(NodeId id, RunConfig cfg, ByteView image, const Signer* signer, SimNetwork* net,
           const KeyRegistry* registry, uint64_t rng_seed)
    : id_(std::move(id)),
      cfg_(cfg),
      signer_(signer),
      machine_(cfg.mem_size, this),
      log_(id_),
      snapshot_mgr_(&snapshot_store_),
      rng_(rng_seed) {
  if (cfg_.TamperEvident() && signer == nullptr) {
    throw std::invalid_argument("Avmm: accountable mode requires a signer");
  }
  machine_.LoadImage(image);
  transport_ = std::make_unique<Transport>(id_, &cfg_, &log_, signer, net, registry, &auth_store_);
  transport_->SetPacketHandler([this](SimTime, const NodeId&, const Bytes& payload) {
    rx_queue_.push_back(payload);
  });
  net->AttachHost(id_, transport_.get());

  if (cfg_.TamperEvident()) {
    // Snapshot 0: the agreed-upon initial image (its Merkle root is the
    // first commitment in the log, so auditors can check the player
    // actually started from the reference image).
    SnapshotMeta meta = snapshot_mgr_.Take(machine_, 0);
    log_.Append(EntryType::kSnapshot, meta.Serialize());
  }
  RegisterObsMetrics();
}

void Avmm::RegisterObsMetrics() {
  auto& reg = obs::Registry::Global();
  const obs::Labels ls{{"node", std::string(id_)}};
  auto pub = [&](const char* name, const uint64_t* field) {
    obs_handles_.push_back(
        reg.RegisterCallbackGauge(name, ls, [field] { return static_cast<int64_t>(*field); }));
  };
  pub("avmm_frames_rendered", &stats_.frames_rendered);
  pub("avmm_guest_packets_sent", &stats_.guest_packets_sent);
  pub("avmm_guest_packets_delivered", &stats_.guest_packets_delivered);
  pub("avmm_clock_reads", &stats_.clock_reads);
  pub("avmm_clock_reads_delayed", &stats_.clock_reads_delayed);
  pub("avmm_trace_events", &stats_.trace_events);
  obs_handles_.push_back(reg.RegisterCallbackGauge(
      "avmm_exec_ms", ls, [this] { return static_cast<int64_t>(exec_seconds_ * 1e3); }));
  obs_handles_.push_back(reg.RegisterCallbackGauge(
      "avmm_record_ms", ls, [this] { return static_cast<int64_t>(record_seconds_ * 1e3); }));
}

Avmm::~Avmm() = default;

void Avmm::AddPeer(const NodeId& peer) {
  peers_.push_back(peer);
}

uint32_t Avmm::SelfIndex() const {
  for (size_t i = 0; i < peers_.size(); i++) {
    if (peers_[i] == id_) {
      return static_cast<uint32_t>(i);
    }
  }
  throw std::logic_error("Avmm::SelfIndex: self not in peer list");
}

void Avmm::PushInput(uint32_t code, Bytes attestation) {
  input_queue_.emplace_back(code, std::move(attestation));
}

uint64_t Avmm::VirtualClockMicros(const Machine& m) const {
  // The machine's instruction count is tied to absolute simulated time:
  // RunQuantum drives it to (now + quantum) * ips each step, so
  // icount / ips *is* the virtual TSC. A §6.5 stall jumps icount forward
  // and thereby consumes future execution budget -- exactly a stalled VM.
  return m.cpu().icount / cfg_.ips_per_us;
}

uint32_t Avmm::ReadClockLo(Machine& m) {
  // `raw` includes previously injected stalls (they advanced icount);
  // consecutive-ness is judged on stall-free time so a busy-wait loop
  // remains one "consecutive" run even while delays are injected
  // (otherwise each delay would end the run and the exponential
  // progression could never pass n = 2).
  uint64_t raw = VirtualClockMicros(m);
  uint64_t unstalled = raw - stall_total_us_;
  stats_.clock_reads++;
  uint64_t applied_delay = 0;
  if (cfg_.clock_read_optimization) {
    // §6.5: whenever the AVMM observes consecutive clock reads within
    // the window, it delays the n-th consecutive read by
    // 2^(n-2) * 50 µs, starting with the second read, up to 5 ms.
    if (consecutive_clock_reads_ > 0 &&
        unstalled - last_clock_raw_us_ < cfg_.clock_opt_window) {
      consecutive_clock_reads_++;
      uint32_t n = consecutive_clock_reads_;
      uint64_t delay = cfg_.clock_opt_base_delay;
      for (uint32_t i = 2; i < n && delay < cfg_.clock_opt_max_delay; i++) {
        delay *= 2;
      }
      if (delay > cfg_.clock_opt_max_delay) {
        delay = cfg_.clock_opt_max_delay;
      }
      // Delaying the read stalls the AVM: PortIn() burns the delay's
      // worth of instruction budget right after this read retires, so
      // virtual time stays equal to simulated time.
      applied_delay = delay;
      pending_stall_us_ = delay;
      stats_.clock_reads_delayed++;
    } else {
      consecutive_clock_reads_ = 1;
    }
    last_clock_raw_us_ = unstalled;
  }
  uint64_t returned = raw + applied_delay;
  if (returned < last_clock_returned_us_) {
    returned = last_clock_returned_us_;  // The TSC never goes backwards.
  }
  last_clock_returned_us_ = returned;
  clock_latch_ = returned;
  return static_cast<uint32_t>(returned);
}

uint32_t Avmm::PortIn(Machine& m, uint16_t port) {
  uint32_t value = 0;
  Bytes attestation;
  switch (port) {
    case kPortClockLo:
      value = ReadClockLo(m);
      break;
    case kPortClockHi:
      // Deterministic relative to the preceding CLOCK_LO read... except
      // that the latch survives snapshots only via the log, so it is
      // recorded like any other input.
      value = static_cast<uint32_t>(clock_latch_ >> 32);
      break;
    case kPortRand:
      value = static_cast<uint32_t>(rng_.Next());
      break;
    case kPortInput:
      if (!input_queue_.empty()) {
        value = input_queue_.front().first;
        attestation = std::move(input_queue_.front().second);
        input_queue_.pop_front();
      }
      break;
    case kPortNetRxLen:
      value = rx_mailbox_len_ ? static_cast<uint32_t>(*rx_mailbox_len_) : 0;
      break;
    case kPortIrqCause:
      // Pure CPU state: deterministic, not logged (replay recomputes it).
      return m.cpu().irq_cause;
    default:
      value = 0;
      break;
  }
  TraceEvent e;
  e.kind = TraceKind::kPortIn;
  e.icount = m.cpu().icount;
  e.port = port;
  e.value = value;
  e.data = std::move(attestation);
  RecordEvent(e);

  if (pending_stall_us_ != 0) {
    // The §6.5 delay is a real stall: it consumes execution budget. The
    // jump is recorded so the replayer reproduces the identical icount
    // sequence (landmarks of all later events shift with it).
    uint64_t stall_instr = pending_stall_us_ * cfg_.ips_per_us;
    TraceEvent stall;
    stall.kind = TraceKind::kClockStall;
    stall.icount = m.cpu().icount;
    stall.value = static_cast<uint32_t>(stall_instr);
    RecordEvent(stall);
    m.mutable_cpu().icount += stall_instr;
    stall_total_us_ += pending_stall_us_;
    pending_stall_us_ = 0;
  }
  return value;
}

void Avmm::PortOut(Machine& m, uint16_t port, uint32_t value) {
  switch (port) {
    case kPortConsole: {
      console_output_.push_back(static_cast<uint8_t>(value));
      TraceEvent e;
      e.kind = TraceKind::kOutConsole;
      e.icount = m.cpu().icount;
      e.value = value & 0xff;
      RecordEvent(e);
      break;
    }
    case kPortDebug: {
      debug_values_.push_back(value);
      TraceEvent e;
      e.kind = TraceKind::kOutDebug;
      e.icount = m.cpu().icount;
      e.value = value;
      RecordEvent(e);
      break;
    }
    case kPortFrame:
      stats_.frames_rendered++;
      break;
    case kPortNetTxLen: {
      size_t len = value;
      if (len < 4 || len > kMaxPacket) {
        break;  // Malformed guest send; the virtual NIC drops it.
      }
      TraceEvent e;
      e.kind = TraceKind::kOutPacket;
      e.icount = m.cpu().icount;
      e.data = m.ReadMemRange(kNetTxBuf, len);
      RecordEvent(e);
      const Bytes& tx = e.data;

      uint32_t dst_index = GetU32(tx, 0);
      // Delivered packet: [source index][payload after the dst header].
      Bytes deliver;
      PutU32(deliver, SelfIndex());
      deliver.insert(deliver.end(), tx.begin() + 4, tx.end());
      stats_.guest_packets_sent++;
      if (dst_index == 0xffffffffu) {
        for (const NodeId& p : peers_) {
          if (p != id_) {
            transport_->SendPacket(current_now_, p, deliver);
          }
        }
      } else if (dst_index < peers_.size() && peers_[dst_index] != id_) {
        transport_->SendPacket(current_now_, peers_[dst_index], deliver);
      }
      break;
    }
    case kPortNetRxDone:
      rx_mailbox_len_.reset();
      DeliverPendingRx(m);
      break;
    default:
      break;
  }
}

void Avmm::DeliverPendingRx(Machine& m) {
  if (rx_mailbox_len_ || rx_queue_.empty()) {
    return;
  }
  Bytes pkt = std::move(rx_queue_.front());
  rx_queue_.pop_front();
  if (pkt.size() > kMaxPacket) {
    pkt.resize(kMaxPacket);
  }
  m.WriteMemRange(kNetRxBuf, pkt);
  rx_mailbox_len_ = pkt.size();
  stats_.guest_packets_delivered++;

  TraceEvent e;
  e.kind = TraceKind::kDmaPacket;
  e.icount = m.cpu().icount;
  e.value = cfg_.rx_irq ? 1 : 0;
  e.data = std::move(pkt);
  RecordEvent(e);

  if (cfg_.rx_irq) {
    m.RaiseIrq(kIrqNetRx);
  }
}

void Avmm::RecordEvent(const TraceEvent& e) {
  stats_.trace_events++;
  if (!cfg_.RecordsTrace()) {
    return;
  }
  WallTimer timer;
  e.SerializeTo(trace_buf_);
  vmware_equiv_bytes_ += trace_buf_.size() + kPlainEntryHeader;
  if (cfg_.TamperEvident()) {
    log_.Append(ClassifyTraceEvent(e), trace_buf_);
  }
  record_seconds_ += timer.ElapsedSeconds();
}

RunExit Avmm::RunQuantum(SimTime now, SimTime quantum_us) {
  current_now_ = now;

  if (cheat_hook_) {
    cheat_hook_(machine_, now);
  }
  DeliverPendingRx(machine_);

  WallTimer timer;
  // Drive the machine to the icount aligned with the end of this
  // quantum. If a clock stall overshot into this quantum, the machine is
  // already past the target and simply does not execute (it is stalled).
  RunExit exit = machine_.RunUntilIcount((now + quantum_us) * cfg_.ips_per_us);
  exec_seconds_ += timer.ElapsedSeconds();

  transport_->Tick(now + quantum_us);

  if (cfg_.snapshot_interval > 0 && cfg_.TamperEvident() &&
      now + quantum_us - last_snapshot_time_ >= cfg_.snapshot_interval) {
    TakeSnapshot(now + quantum_us);
  }
  current_now_ = now + quantum_us;
  return exit;
}

Authenticator Avmm::CommitLog() const {
  if (signer_ == nullptr) {
    throw std::logic_error("Avmm::CommitLog: no signer");
  }
  // Handing a commitment to an auditor is a release: under
  // durable_commit the covered entries must be behind the watermark
  // first, exactly like the transport's gate.
  if (cfg_.durable_commit && log_.sink() != nullptr) {
    log_.sink()->Flush();
  }
  return log_.Authenticate(*signer_);
}

Authenticator Avmm::CommitLogAt(uint64_t seq) const {
  if (signer_ == nullptr) {
    throw std::logic_error("Avmm::CommitLogAt: no signer");
  }
  if (cfg_.durable_commit && log_.sink() != nullptr && log_.DurableSeq() < seq) {
    log_.sink()->Flush();
  }
  return log_.AuthenticateAt(*signer_, seq);
}

SnapshotMeta Avmm::TakeSnapshot(SimTime now) {
  if (!cfg_.TamperEvident()) {
    throw std::logic_error("Avmm::TakeSnapshot: snapshots require accountable mode");
  }
  SnapshotMeta meta = snapshot_mgr_.Take(machine_, now);
  log_.Append(EntryType::kSnapshot, meta.Serialize());
  last_snapshot_time_ = now;
  return meta;
}

void Avmm::Finish(SimTime now) {
  if (finished_) {
    return;
  }
  finished_ = true;
  if (cfg_.TamperEvident()) {
    TakeSnapshot(now);
    log_.Append(EntryType::kInfo, ToBytes("END"));
    // Barrier order matters: the transport flush drains the background
    // signer and (under durable_commit) releases deferred frames, and
    // only then is the sink flushed -- so the store is never sealed
    // under a signer that still holds queued entries. The driver still
    // has to deliver those frames (scenario Finish settles the network),
    // and frames delivered during that settle can append entries and
    // enqueue fresh sign work; DrainPending is the post-settle barrier.
    transport_->Flush(now);
  }
  log_.FlushSink();
}

void Avmm::DrainPending(SimTime now) {
  if (cfg_.TamperEvident()) {
    transport_->Flush(now);
  }
  log_.FlushSink();
}

}  // namespace avm
