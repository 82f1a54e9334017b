#include "src/vm/machine.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "src/util/serde.h"
#include "src/vm/analysis/analysis.h"
#include "src/vm/jit/jit.h"

namespace avm {

Bytes CpuState::Serialize() const {
  Writer w;
  for (uint32_t r : regs) {
    w.U32(r);
  }
  w.U32(pc);
  w.U32(saved_pc);
  w.U32(irq_cause);
  w.U32(pending_irqs);
  w.U8(int_enabled ? 1 : 0);
  w.U8(halted ? 1 : 0);
  w.U64(icount);
  return w.Take();
}

CpuState CpuState::Deserialize(ByteView data) {
  Reader r(data);
  CpuState s;
  for (auto& reg : s.regs) {
    reg = r.U32();
  }
  s.pc = r.U32();
  s.saved_pc = r.U32();
  s.irq_cause = r.U32();
  s.pending_irqs = r.U32();
  s.int_enabled = r.U8() != 0;
  s.halted = r.U8() != 0;
  s.icount = r.U64();
  r.ExpectEnd();
  return s;
}

bool CpuState::operator==(const CpuState& o) const {
  for (int i = 0; i < kNumRegs; i++) {
    if (regs[i] != o.regs[i]) {
      return false;
    }
  }
  return pc == o.pc && saved_pc == o.saved_pc && irq_cause == o.irq_cause &&
         pending_irqs == o.pending_irqs && int_enabled == o.int_enabled && halted == o.halted &&
         icount == o.icount;
}

Machine::Machine(size_t mem_size, DeviceBackend* backend) : backend_(backend) {
  if (mem_size % kPageSize != 0 || mem_size < kNetRxBuf + kNetBufSize) {
    throw std::invalid_argument("Machine: bad memory size");
  }
  mem_.assign(mem_size, 0);
  dirty_.assign(mem_size / kPageSize, 0);
}

// Out of line: jit::JitEngine is incomplete in the header.
Machine::~Machine() = default;

void Machine::LoadImage(ByteView image, uint32_t addr) {
  if (addr + image.size() > mem_.size()) {
    throw std::invalid_argument("Machine::LoadImage: image does not fit");
  }
  std::memcpy(mem_.data() + addr, image.data(), image.size());
  MarkAllDirty();
  // The static-analysis window grows to cover everything ever loaded as
  // an image (analysis always starts from the reset vector at 0).
  const uint64_t limit = static_cast<uint64_t>(addr) + image.size();
  if (limit > image_limit_) {
    image_limit_ = static_cast<uint32_t>(limit);
  }
  jit_hints_stale_ = true;
  if (jit_ != nullptr) {
    jit_->Flush();
  }
}

void Machine::Fault(const std::string& why) {
  faulted_ = true;
  cpu_.halted = true;
  fault_reason_ = why + " at pc=0x" + HexEncode(Bytes{static_cast<uint8_t>(cpu_.pc >> 24),
                                                      static_cast<uint8_t>(cpu_.pc >> 16),
                                                      static_cast<uint8_t>(cpu_.pc >> 8),
                                                      static_cast<uint8_t>(cpu_.pc)});
}

void Machine::RaiseIrq(uint32_t cause) {
  if (cause == 0 || cause > 31) {
    throw std::invalid_argument("Machine::RaiseIrq: bad cause");
  }
  cpu_.pending_irqs |= 1u << cause;
}

void Machine::TakeIrqIfPending() {
  if (!cpu_.int_enabled || cpu_.pending_irqs == 0) {
    return;
  }
  uint32_t cause = static_cast<uint32_t>(__builtin_ctz(cpu_.pending_irqs));
  cpu_.pending_irqs &= ~(1u << cause);
  cpu_.irq_cause = cause;
  cpu_.saved_pc = cpu_.pc;
  cpu_.pc = kIrqVector;
  cpu_.int_enabled = false;
}

uint32_t Machine::ReadMem32(uint32_t addr) const {
  // `addr > size - 4` rather than `addr + 4 > size`: the latter wraps for
  // addr >= 0xFFFFFFFC and would wave the access through. mem_.size() is
  // always >= one page, so the subtraction cannot underflow.
  if (addr % 4 != 0 || addr > mem_.size() - 4) {
    throw std::out_of_range("ReadMem32: bad address");
  }
  uint32_t v;
  std::memcpy(&v, mem_.data() + addr, 4);
  return v;
}

uint8_t Machine::ReadMem8(uint32_t addr) const {
  if (addr >= mem_.size()) {
    throw std::out_of_range("ReadMem8: bad address");
  }
  return mem_[addr];
}

void Machine::WriteMem32(uint32_t addr, uint32_t value) {
  // Overflow-safe form; see ReadMem32.
  if (addr % 4 != 0 || addr > mem_.size() - 4) {
    throw std::out_of_range("WriteMem32: bad address");
  }
  std::memcpy(mem_.data() + addr, &value, 4);
  dirty_[addr / kPageSize] = true;
  InvalidateTranslations(addr);
}

void Machine::WriteMem8(uint32_t addr, uint8_t value) {
  if (addr >= mem_.size()) {
    throw std::out_of_range("WriteMem8: bad address");
  }
  mem_[addr] = value;
  dirty_[addr / kPageSize] = true;
  InvalidateTranslations(addr);
}

void Machine::WriteMemRange(uint32_t addr, ByteView data) {
  if (addr + data.size() > mem_.size()) {
    throw std::out_of_range("WriteMemRange: bad range");
  }
  std::memcpy(mem_.data() + addr, data.data(), data.size());
  for (size_t p = addr / kPageSize; p <= (addr + data.size() - 1) / kPageSize && !data.empty();
       p++) {
    dirty_[p] = true;
    if (!jit_code_pages_.empty() && jit_code_pages_[p] != 0) {
      JitInvalidateWrite(static_cast<uint32_t>(p * kPageSize));
    }
  }
}

Bytes Machine::ReadMemRange(uint32_t addr, size_t len) const {
  if (addr + len > mem_.size()) {
    throw std::out_of_range("ReadMemRange: bad range");
  }
  return Bytes(mem_.begin() + addr, mem_.begin() + addr + len);
}

ByteView Machine::PageData(size_t page_index) const {
  return ByteView(mem_.data() + page_index * kPageSize, kPageSize);
}

std::vector<uint32_t> Machine::CollectDirtyPages() const {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < dirty_.size(); i++) {
    if (dirty_[i]) {
      out.push_back(static_cast<uint32_t>(i));
    }
  }
  return out;
}

void Machine::ClearDirtyPages() {
  dirty_.assign(dirty_.size(), 0);
}

void Machine::MarkAllDirty() {
  dirty_.assign(dirty_.size(), 1);
}

bool Machine::Step() {
  TakeIrqIfPending();

  if (observer_ != nullptr) {
    return StepObserved();
  }

  if (cpu_.pc % 4 != 0 || cpu_.pc > mem_.size() - 4) {
    Fault("instruction fetch out of bounds");
    return false;
  }
  uint32_t word;
  std::memcpy(&word, mem_.data() + cpu_.pc, 4);
  Insn in = Decode(word);
  uint32_t next_pc = cpu_.pc + 4;
  uint32_t* r = cpu_.regs;
  auto branch = [&](bool taken) {
    if (taken) {
      next_pc = cpu_.pc + 4 + static_cast<uint32_t>(in.SImm() * 4);
    }
  };

  switch (in.op) {
    case Op::kNop:
      break;
    case Op::kHalt:
      cpu_.halted = true;
      cpu_.icount++;
      cpu_.pc = next_pc;
      return false;

    case Op::kMovi:
      r[in.ra] = static_cast<uint32_t>(in.SImm());
      break;
    case Op::kMovhi:
      r[in.ra] = static_cast<uint32_t>(in.imm) << 16;
      break;
    case Op::kOri:
      r[in.ra] |= in.imm;
      break;
    case Op::kMov:
      r[in.ra] = r[in.rb];
      break;

    case Op::kAdd:
      r[in.ra] += r[in.rb];
      break;
    case Op::kSub:
      r[in.ra] -= r[in.rb];
      break;
    case Op::kMul:
      r[in.ra] *= r[in.rb];
      break;
    case Op::kDivu:
      r[in.ra] = (r[in.rb] == 0) ? 0xffffffffu : r[in.ra] / r[in.rb];
      break;
    case Op::kRemu:
      r[in.ra] = (r[in.rb] == 0) ? r[in.ra] : r[in.ra] % r[in.rb];
      break;
    case Op::kAnd:
      r[in.ra] &= r[in.rb];
      break;
    case Op::kOr:
      r[in.ra] |= r[in.rb];
      break;
    case Op::kXor:
      r[in.ra] ^= r[in.rb];
      break;
    case Op::kShl:
      r[in.ra] <<= (r[in.rb] & 31);
      break;
    case Op::kShr:
      r[in.ra] >>= (r[in.rb] & 31);
      break;
    case Op::kSra:
      r[in.ra] = static_cast<uint32_t>(static_cast<int32_t>(r[in.ra]) >> (r[in.rb] & 31));
      break;
    case Op::kAddi:
      r[in.ra] += static_cast<uint32_t>(in.SImm());
      break;
    case Op::kSlt:
      r[in.ra] = static_cast<int32_t>(r[in.ra]) < static_cast<int32_t>(r[in.rb]) ? 1 : 0;
      break;
    case Op::kSltu:
      r[in.ra] = r[in.ra] < r[in.rb] ? 1 : 0;
      break;

    case Op::kLw: {
      uint32_t addr = r[in.rb] + static_cast<uint32_t>(in.SImm());
      if (addr % 4 != 0 || addr > mem_.size() - 4) {
        Fault("LW out of bounds");
        return false;
      }
      std::memcpy(&r[in.ra], mem_.data() + addr, 4);
      break;
    }
    case Op::kSw: {
      uint32_t addr = r[in.rb] + static_cast<uint32_t>(in.SImm());
      if (addr % 4 != 0 || addr > mem_.size() - 4) {
        Fault("SW out of bounds");
        return false;
      }
      std::memcpy(mem_.data() + addr, &r[in.ra], 4);
      dirty_[addr / kPageSize] = true;
      InvalidateTranslations(addr);
      break;
    }
    case Op::kLb: {
      uint32_t addr = r[in.rb] + static_cast<uint32_t>(in.SImm());
      if (addr >= mem_.size()) {
        Fault("LB out of bounds");
        return false;
      }
      r[in.ra] = mem_[addr];
      break;
    }
    case Op::kSb: {
      uint32_t addr = r[in.rb] + static_cast<uint32_t>(in.SImm());
      if (addr >= mem_.size()) {
        Fault("SB out of bounds");
        return false;
      }
      mem_[addr] = static_cast<uint8_t>(r[in.ra]);
      dirty_[addr / kPageSize] = true;
      InvalidateTranslations(addr);
      break;
    }

    case Op::kBeq:
      branch(r[in.ra] == r[in.rb]);
      break;
    case Op::kBne:
      branch(r[in.ra] != r[in.rb]);
      break;
    case Op::kBlt:
      branch(static_cast<int32_t>(r[in.ra]) < static_cast<int32_t>(r[in.rb]));
      break;
    case Op::kBge:
      branch(static_cast<int32_t>(r[in.ra]) >= static_cast<int32_t>(r[in.rb]));
      break;
    case Op::kBltu:
      branch(r[in.ra] < r[in.rb]);
      break;
    case Op::kBgeu:
      branch(r[in.ra] >= r[in.rb]);
      break;
    case Op::kJmp:
      branch(true);
      break;
    case Op::kJal:
      r[in.ra] = cpu_.pc + 4;
      branch(true);
      break;
    case Op::kJr:
      next_pc = r[in.ra];
      break;
    case Op::kJalr: {
      uint32_t target = r[in.rb];
      r[in.ra] = cpu_.pc + 4;
      next_pc = target;
      break;
    }

    case Op::kIn:
      r[in.ra] = backend_->PortIn(*this, in.imm);
      break;
    case Op::kOut:
      backend_->PortOut(*this, in.imm, r[in.ra]);
      break;

    case Op::kEi:
      cpu_.int_enabled = true;
      break;
    case Op::kDi:
      cpu_.int_enabled = false;
      break;
    case Op::kIret:
      next_pc = cpu_.saved_pc;
      cpu_.int_enabled = true;
      break;

    default:
      Fault("illegal opcode");
      return false;
  }

  cpu_.pc = next_pc;
  cpu_.icount++;
  return !cpu_.halted && !faulted_;
}

bool Machine::StepObserved() {
  // Slow path for replay-time analysis: snapshot the architectural state,
  // execute one instruction via the unobserved Step(), then notify the
  // observer.
  CpuState before = cpu_;
  if (before.pc % 4 != 0 || before.pc > mem_.size() - 4) {
    Fault("instruction fetch out of bounds");
    return false;
  }
  uint32_t word;
  std::memcpy(&word, mem_.data() + before.pc, 4);
  Insn insn = Decode(word);
  InstructionObserver* obs = observer_;
  observer_ = nullptr;  // Reenter Step() without the observer.
  bool cont = Step();
  observer_ = obs;
  observer_->OnRetired(*this, before, insn);
  return cont;
}

RunExit Machine::Run(uint64_t max_instructions) {
  return RunUntilIcount(cpu_.icount + max_instructions);
}

RunExit Machine::RunUntilIcount(uint64_t target_icount) {
  if (cpu_.halted || faulted_) {
    return faulted_ ? RunExit::kFault : RunExit::kHalted;
  }
  if (observer_ == nullptr && jit_enabled_ && JitCompiledIn()) {
    return RunJit(target_icount);
  }
  return RunReference(target_icount);
}

// The reference loop: Step() per instruction. It runs with an observer
// attached, with the JIT off, and wherever the JIT is unavailable; the
// fast path is tested against it.
RunExit Machine::RunReference(uint64_t target_icount) {
  while (cpu_.icount < target_icount) {
    if (!Step()) {
      return faulted_ ? RunExit::kFault : RunExit::kHalted;
    }
  }
  return RunExit::kIcountReached;
}

bool Machine::JitCompiledIn() { return jit::JitSupported(); }

const jit::JitStats* Machine::jit_stats() const {
  return jit_ == nullptr ? nullptr : &jit_->stats();
}

void Machine::JitInvalidateWrite(uint32_t addr) {
  if (jit_ != nullptr) {
    jit_->InvalidateWrite(addr);
  }
}

void Machine::RefreshJitHints() {
  // Only a loaded image is analyzed: a machine started from a snapshot
  // has none and translates unhinted.
  if (!jit_hints_stale_ || jit_ == nullptr || image_limit_ < 4) {
    return;
  }
  jit_hints_stale_ = false;
  // The JIT reads the CFG's block heads and the verifier's
  // self-modifying-page set.
  jit_hints_ = std::make_unique<analysis::ImageAnalysis>(analysis::AnalyzeImage(
      ByteView(mem_.data(), std::min<size_t>(image_limit_, mem_.size())), mem_.size()));
  jit_->SetAnalysisHints(jit_hints_.get());
}

void Machine::EnsureJit() {
  if (jit_ != nullptr || jit_failed_) {
    return;
  }
  // Guest addresses are 32-bit; the generated bounds checks compare
  // against a 32-bit limit.
  if (mem_.size() > 0xFFFFFFFFu) {
    jit_failed_ = true;
    return;
  }
  jit_code_pages_.assign(PageCount(), 0);
  jit::JitConfig cfg;
  cfg.harden_wx = jit_harden_wx_;
  jit_ = std::make_unique<jit::JitEngine>(cfg, mem_.data(), mem_.size(), jit_code_pages_.data(),
                                          PageCount());
  if (!jit_->ok()) {
    jit_.reset();
    jit_code_pages_.clear();
    jit_failed_ = true;  // No executable memory on this host; stay off.
  }
}

uint32_t Machine::JitIoCall(jit::JitContext* ctx) {
  Machine* m = static_cast<Machine*>(ctx->host);
  CpuState& cpu = m->cpu_;
  jit::JitEngine& engine = *m->jit_;
  cpu.icount = ctx->icount;
  cpu.pc = ctx->pc;
  engine.CountIoCall();
  const uint64_t epoch = engine.invalidation_epoch();
  bool leave = true;
  jit::IoExit why = jit::IoExit::kIrq;
  try {
    // Native code only runs where no interrupt is deliverable (the
    // dispatcher takes them before entering, and this helper exits when
    // one becomes deliverable), so Step() takes none before the IN/OUT.
    m->Step();
    if (cpu.halted || m->faulted_) {
      why = jit::IoExit::kHaltFault;
    } else if (engine.invalidation_epoch() != epoch) {
      why = jit::IoExit::kInvalidate;
    } else if (cpu.icount != ctx->icount + 1 || cpu.pc != ctx->pc + 4) {
      why = jit::IoExit::kIcount;
    } else if (cpu.int_enabled && cpu.pending_irqs != 0) {
      why = jit::IoExit::kIrq;
    } else {
      leave = false;
    }
  } catch (...) {
    m->jit_io_exception_ = std::current_exception();
    why = jit::IoExit::kException;
  }
  if (!leave) {
    return 0;
  }
  engine.CountIoExit(why);
  ctx->icount = cpu.icount;
  ctx->pc = cpu.pc;
  return 1;
}

// The JIT tier dispatcher. Mirrors Step()'s instruction boundary: the
// icount-landmark check and the interrupt check happen at every block
// boundary reached through the dispatcher, and chained native blocks
// only span straight-line stretches where `pending_irqs && int_enabled`
// cannot become true (EI/IRET are fallback exits, and an IN/OUT helper
// call that leaves an interrupt deliverable exits with kExitIo).
// Everything the generated code cannot retire exactly is single-stepped
// through the reference interpreter, so replay is bit-for-bit the
// Step() semantics.
RunExit Machine::RunJit(uint64_t target_icount) {
  EnsureJit();
  if (jit_ == nullptr) {
    return RunReference(target_icount);  // No executable memory here.
  }
  RefreshJitHints();
  jit::JitContext& ctx = jit_->ctx();
  ctx.regs = cpu_.regs;
  ctx.mem = mem_.data();
  ctx.dirty = dirty_.data();
  ctx.cpu = &cpu_;
  ctx.target = target_icount;
  ctx.io_fn = &Machine::JitIoCall;
  ctx.host = this;

  // One pending chain patch: set at a chain-miss exit, applied when the
  // next iteration obtains the successor block (guarded against flushes
  // in between and against an interrupt redirecting pc).
  uint32_t pending_slot = ~0u;
  uint32_t pending_succ = 0;
  uint64_t pending_gen = 0;

  while (true) {
    if (cpu_.halted || faulted_) {
      return faulted_ ? RunExit::kFault : RunExit::kHalted;
    }
    if (cpu_.icount >= target_icount) {
      return RunExit::kIcountReached;
    }
    TakeIrqIfPending();
    const uint32_t pc = cpu_.pc;
    jit::TranslatedBlock* b = jit_->Lookup(pc);
    if (b == nullptr) {
      b = jit_->MaybeCompile(pc);
    }
    if (b == nullptr) {
      pending_slot = ~0u;
      // Cold or untranslatable head: interpret to the end of this trace
      // block, so compile heat stays anchored on real block heads.
      do {
        bool boundary = true;
        const uint32_t at = cpu_.pc;
        if (at % 4 == 0 && at <= mem_.size() - 4) {
          uint32_t word;
          std::memcpy(&word, mem_.data() + at, 4);
          boundary = jit::EndsTraceBlock(static_cast<uint8_t>(word >> 24));
        }
        if (!Step()) {
          return faulted_ ? RunExit::kFault : RunExit::kHalted;
        }
        if (boundary) {
          break;
        }
      } while (cpu_.icount < target_icount);
      continue;
    }
    if (pending_slot != ~0u) {
      if (pending_gen == jit_->generation() && b->guest_pc == pending_succ) {
        jit_->PatchChain(pending_slot, b);
      }
      pending_slot = ~0u;
    }
    ctx.icount = cpu_.icount;
    ctx.pc = pc;
    const uint32_t exit = jit_->Execute(b);
    cpu_.icount = ctx.icount;
    cpu_.pc = ctx.pc;
    switch (exit) {
      case jit::kExitChainMiss:
        if (ctx.exit_slot != ~0u) {
          pending_slot = ctx.exit_slot;
          pending_succ = ctx.pc;
          pending_gen = jit_->generation();
        }
        break;
      case jit::kExitNoBudget:
        // The block at pc would overshoot the icount landmark (fewer
        // than one block length remains): single-step the reference
        // interpreter to the exact boundary.
        return RunReference(target_icount);
      case jit::kExitDynamic:
        // JR/JALR: register targets can misalign pc and need the
        // interrupt re-check; both happen at the top of the loop.
        break;
      case jit::kExitIo:
        // An IN/OUT retired (or threw) in JitIoCall; the loop top sees
        // halts, faults, stalled icounts and deliverable interrupts.
        if (jit_io_exception_ != nullptr) {
          std::rethrow_exception(std::exchange(jit_io_exception_, nullptr));
        }
        break;
      case jit::kExitFallback:
        // The instruction at pc is runtime-deferred (HALT/EI/IRET/
        // illegal, or a memory op that will fault): the interpreter
        // retires it with exact semantics — unless the block before it
        // ended exactly on the icount landmark.
        jit_->CountFallback();
        if (cpu_.icount >= target_icount) {
          return RunExit::kIcountReached;
        }
        if (!Step()) {
          return faulted_ ? RunExit::kFault : RunExit::kHalted;
        }
        break;
      case jit::kExitSelfMod:
        // A store hit a page with live translations (possibly this
        // block's own): drop them and resume at the next instruction.
        jit_->CountSelfMod();
        jit_->InvalidateWrite(ctx.mod_addr);
        break;
      default:
        Fault("jit: bad exit code");
        return RunExit::kFault;
    }
  }
}

}  // namespace avm
