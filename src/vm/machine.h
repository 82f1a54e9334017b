// The AVM-32 interpreter. Deterministic by construction: the only
// nondeterminism enters through DeviceBackend::PortIn and through
// host-initiated DMA writes / interrupts, all of which the AVMM records.
#ifndef SRC_VM_MACHINE_H_
#define SRC_VM_MACHINE_H_

#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "src/util/bytes.h"
#include "src/vm/isa.h"

namespace avm {

class Machine;

namespace analysis {
struct ImageAnalysis;
}  // namespace analysis

namespace jit {
class JitEngine;
struct JitContext;
struct JitStats;
}  // namespace jit

// Host-side device backend. The recording AVMM samples real sources and
// logs; the replaying auditor feeds values back from the log.
class DeviceBackend {
 public:
  virtual ~DeviceBackend() = default;

  // Result of a guest IN instruction. Every call is a nondeterministic
  // input in the sense of §4.4 (synchronous: its position in the
  // instruction stream is implied, only the value must be logged).
  virtual uint32_t PortIn(Machine& m, uint16_t port) = 0;

  // Guest OUT instruction: a deterministic output (checked during replay)
  // or a device command (e.g. packet send, which reads kNetTxBuf).
  virtual void PortOut(Machine& m, uint16_t port, uint32_t value) = 0;
};

// Architectural CPU state (everything a snapshot must capture besides RAM).
struct CpuState {
  uint32_t regs[kNumRegs] = {0};
  uint32_t pc = kResetVector;
  uint32_t saved_pc = 0;     // Return address for IRET.
  uint32_t irq_cause = 0;    // Cause of the most recently taken interrupt.
  uint32_t pending_irqs = 0;  // Bitmask of raised-but-untaken interrupts.
  bool int_enabled = false;   // Guests opt in with EI.
  bool halted = false;
  uint64_t icount = 0;  // Retired instructions; the replay landmark.

  Bytes Serialize() const;
  static CpuState Deserialize(ByteView data);
  bool operator==(const CpuState& o) const;
};

// Optional per-instruction hook, used by replay-time analysis (§7.5).
// Invoked after each retired instruction with the pre-execution CPU
// state. Never attached on the recording path.
class InstructionObserver {
 public:
  virtual ~InstructionObserver() = default;
  virtual void OnRetired(const Machine& m, const CpuState& before, const Insn& insn) = 0;
};

enum class RunExit {
  kHalted,         // Guest executed HALT.
  kIcountReached,  // Instruction budget exhausted.
  kFault,          // Illegal instruction / bad memory access.
};

class Machine {
 public:
  // mem_size must be a multiple of kPageSize and large enough for the
  // NIC DMA windows.
  Machine(size_t mem_size, DeviceBackend* backend);
  ~Machine();

  // Copies `image` into memory at `addr` (typically 0).
  void LoadImage(ByteView image, uint32_t addr = 0);

  // Executes until HALT, a fault, or `max_instructions` more instructions
  // have retired.
  RunExit Run(uint64_t max_instructions);
  // Executes until cpu().icount == target (or halt/fault).
  RunExit RunUntilIcount(uint64_t target_icount);

  // Queues an interrupt; it is taken at the next instruction boundary at
  // which interrupts are enabled. Callers record cpu().icount at raise
  // time so replay can re-raise at the identical landmark.
  void RaiseIrq(uint32_t cause);
  uint32_t pending_irqs() const { return cpu_.pending_irqs; }

  // Replaces the architectural state (snapshot restore). Memory is set
  // separately with WriteMemRange.
  void SetCpuState(const CpuState& s) { cpu_ = s; }

  const CpuState& cpu() const { return cpu_; }
  CpuState& mutable_cpu() { return cpu_; }
  bool faulted() const { return faulted_; }
  const std::string& fault_reason() const { return fault_reason_; }

  // Host-side memory access (DMA, snapshots, cheat injection in tests).
  uint32_t ReadMem32(uint32_t addr) const;
  uint8_t ReadMem8(uint32_t addr) const;
  void WriteMem32(uint32_t addr, uint32_t value);
  void WriteMem8(uint32_t addr, uint8_t value);
  void WriteMemRange(uint32_t addr, ByteView data);
  Bytes ReadMemRange(uint32_t addr, size_t len) const;

  size_t mem_size() const { return mem_.size(); }
  size_t PageCount() const { return mem_.size() / kPageSize; }
  ByteView PageData(size_t page_index) const;
  ByteView memory() const { return mem_; }

  // Dirty-page tracking for incremental snapshots (one byte per page so
  // JIT-generated code can set flags without vector<bool> bit math).
  const std::vector<uint8_t>& dirty_pages() const { return dirty_; }
  std::vector<uint32_t> CollectDirtyPages() const;
  void ClearDirtyPages();
  void MarkAllDirty();

  DeviceBackend* backend() const { return backend_; }
  void set_backend(DeviceBackend* b) { backend_ = b; }

  // Attaches/detaches the analysis observer (nullptr = none). Slows the
  // interpreter down while attached; intended for offline replay only.
  void set_observer(InstructionObserver* o) { observer_ = o; }

  // Selects the execution tier. On (the default) runs the fast path:
  // x86-64 dynamic binary translation of hot basic blocks (src/vm/jit),
  // guided by a static analysis of the loaded image, wherever the JIT is
  // compiled in and executable memory is available. Off runs the
  // reference Step() loop. Both retire bit-for-bit identical
  // architectural state (asserted by the machine_test, replay_test and
  // analysis_test lockstep sweeps); only the speed differs.
  void set_jit_enabled(bool on) { jit_enabled_ = on; }
  // True when the build can translate to native code on this host
  // (CMake option AVM_JIT, x86-64 only).
  static bool JitCompiledIn();
  // W^X discipline for the JIT code buffer (RW<->RX flips instead of a
  // single RWX mapping). Must be set before the first JIT-tier run.
  void set_jit_harden_wx(bool on) { jit_harden_wx_ = on; }
  // Translation-layer counters; nullptr until the JIT tier first runs.
  const jit::JitStats* jit_stats() const;

 private:
  bool Step();  // Returns false when execution must stop (halt/fault).
  bool StepObserved();  // Step() + InstructionObserver notification.
  void Fault(const std::string& why);
  void TakeIrqIfPending();
  RunExit RunReference(uint64_t target_icount);  // The Step() loop.

  // Drops the JIT translations of the page containing byte `addr`;
  // called from every memory-write path next to the dirty_ marking.
  // jit_code_pages_ is empty until the JIT engine exists, so the check
  // costs nothing on runs that never enter the fast path.
  void InvalidateTranslations(uint32_t addr) {
    if (!jit_code_pages_.empty() && jit_code_pages_[addr / kPageSize] != 0) {
      JitInvalidateWrite(addr);
    }
  }

  // The JIT tier: block dispatch loop, lazy engine construction, and the
  // out-of-line invalidation slow path behind InvalidateTranslations.
  RunExit RunJit(uint64_t target_icount);
  void EnsureJit();
  void JitInvalidateWrite(uint32_t addr);
  // Re-runs the static analysis over [0, image_limit_) when stale and
  // installs the result as the engine's hints.
  void RefreshJitHints();
  // JitContext::io_fn: retires the IN/OUT at ctx->pc with Step() on
  // behalf of generated code. Returns 0 when native code may continue.
  static uint32_t JitIoCall(jit::JitContext* ctx);

  CpuState cpu_;
  std::vector<uint8_t> mem_;
  std::vector<uint8_t> dirty_;  // One byte per page; see dirty_pages().
  bool faulted_ = false;
  std::string fault_reason_;
  DeviceBackend* backend_;
  InstructionObserver* observer_ = nullptr;

  // JIT tier state (engine constructed lazily on first JIT-tier run).
  bool jit_enabled_ = true;
  bool jit_harden_wx_ = false;
  bool jit_failed_ = false;  // Executable memory unavailable; stay off.
  bool jit_hints_stale_ = true;
  uint32_t image_limit_ = 0;  // Bytes of memory covered by LoadImage.
  // Hints must outlive the engine that holds a pointer to them, hence
  // declared first (members destroy in reverse order).
  std::unique_ptr<analysis::ImageAnalysis> jit_hints_;
  std::unique_ptr<jit::JitEngine> jit_;
  // One byte per page, 1 while the page holds live translations. Owned
  // here (written by the engine) so the inline write paths above can
  // test it without touching the engine.
  std::vector<uint8_t> jit_code_pages_;
  // A backend exception caught by JitIoCall (it must not unwind through
  // generated code); RunJit rethrows it once native code has exited.
  std::exception_ptr jit_io_exception_;
};

// A trivial backend for tests: IN returns scripted constants (0 default),
// OUT is collected.
class NullBackend : public DeviceBackend {
 public:
  uint32_t PortIn(Machine&, uint16_t) override { return 0; }
  void PortOut(Machine&, uint16_t, uint32_t) override {}
};

}  // namespace avm

#endif  // SRC_VM_MACHINE_H_
