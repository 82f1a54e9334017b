// The AVM-32 -> x86-64 block translator and its runtime engine. See
// jit.h for the execution model and machine.cc (RunJit) for the
// dispatcher that drives it.
#include "src/vm/jit/jit.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <iterator>

#include "src/obs/metrics.h"
#include "src/vm/analysis/analysis.h"
#include "src/vm/analysis/dataflow.h"
#include "src/vm/isa.h"
#include "src/vm/jit/emitter.h"
#include "src/vm/machine.h"

namespace avm {
namespace jit {

namespace {

// The kCtx* displacements are baked into emitted bytes; pin them to the
// struct the C++ side actually passes.
static_assert(offsetof(JitContext, regs) == kCtxRegs);
static_assert(offsetof(JitContext, mem) == kCtxMem);
static_assert(offsetof(JitContext, icount) == kCtxIcount);
static_assert(offsetof(JitContext, target) == kCtxTarget);
static_assert(offsetof(JitContext, pc) == kCtxPc);
static_assert(offsetof(JitContext, exit_slot) == kCtxExitSlot);
static_assert(offsetof(JitContext, dirty) == kCtxDirty);
static_assert(offsetof(JitContext, code_pages) == kCtxCodePages);
static_assert(offsetof(JitContext, cpu) == kCtxCpu);
static_assert(offsetof(JitContext, mod_addr) == kCtxModAddr);
static_assert(offsetof(JitContext, io_fn) == kCtxIoFn);
// DI writes cpu->int_enabled through a disp8 addressing mode.
static_assert(offsetof(CpuState, int_enabled) < 128);

// Instructions the translator emits inline, i.e. a block continues past
// them (IN/OUT as helper calls). Everything else ends a block: control
// transfers (translated as chain/dynamic exits) and runtime-deferred
// ops (fallback exits).
bool IsStraightLine(uint8_t opcode) {
  switch (static_cast<Op>(opcode)) {
    case Op::kNop:
    case Op::kMovi:
    case Op::kMovhi:
    case Op::kOri:
    case Op::kMov:
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDivu:
    case Op::kRemu:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kShl:
    case Op::kShr:
    case Op::kSra:
    case Op::kAddi:
    case Op::kSlt:
    case Op::kSltu:
    case Op::kLw:
    case Op::kSw:
    case Op::kLb:
    case Op::kSb:
    case Op::kDi:
    case Op::kIn:
    case Op::kOut:
      return true;
    default:
      return false;
  }
}

// Ops only the interpreter retires: HALT, EI, IRET and undecodable
// words. A translation unit can never start at one.
bool IsRuntimeDeferred(uint8_t opcode) {
  if (IsStraightLine(opcode)) {
    return false;
  }
  switch (static_cast<Op>(opcode)) {
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu:
    case Op::kJmp:
    case Op::kJal:
    case Op::kJr:
    case Op::kJalr:
      return false;
    default:
      return true;
  }
}

constexpr const char* kIoExitNames[kNumIoExits] = {"irq", "icount", "invalidate", "halt_fault",
                                                   "exception"};

}  // namespace

// What one EmitBlock pass produced.
struct JitEngine::Emitted {
  // Buffer offsets of the chain slots' rel32 immediates, in slot-id
  // order starting at chain_slots_.size().
  std::vector<size_t> slot_sites;
  uint32_t insn_count = 0;
  // Guest byte ranges covered (one per fused block).
  std::vector<std::pair<uint32_t, uint32_t>> spans;
  uint32_t blocks_fused = 0;
  uint32_t dead_writes = 0;
  bool self_loop = false;  // Some chain exit targets the head itself.
  bool has_io = false;     // Contains an IN/OUT helper call.
};

bool JitSupported() { return AVM_JIT_X86 != 0; }

bool EndsTraceBlock(uint8_t opcode) { return !IsStraightLine(opcode); }

JitEngine::JitEngine(const JitConfig& cfg, uint8_t* mem, size_t mem_size, uint8_t* code_pages,
                     size_t page_count)
    : cfg_(cfg), mem_(mem), mem_size_(mem_size), code_pages_(code_pages),
      page_count_(page_count) {
  ExecMemOptions opts;
  opts.bytes = cfg_.cache_bytes;
  opts.harden_wx = cfg_.harden_wx;
  cache_.Init(opts);
  page_blocks_.resize(page_count_);
  ctx_.code_pages = code_pages_;

  obs::Registry& reg = obs::Registry::Global();
  c_translations_ = reg.GetCounter("avm.jit.translations");
  c_code_bytes_ = reg.GetCounter("avm.jit.code_cache_bytes");
  c_flushes_ = reg.GetCounter("avm.jit.flushes");
  c_blocks_invalidated_ = reg.GetCounter("avm.jit.blocks_invalidated");
  c_pages_invalidated_ = reg.GetCounter("avm.jit.pages_invalidated");
  c_chain_patches_ = reg.GetCounter("avm.jit.chain_patches");
  c_fallbacks_ = reg.GetCounter("avm.jit.interp_fallbacks");
  c_selfmod_ = reg.GetCounter("avm.jit.selfmod_exits");
  c_regions_fused_ = reg.GetCounter("avm.jit.regions_fused");
  c_dead_writes_ = reg.GetCounter("avm.jit.dead_writes_skipped");
  c_native_enters_ = reg.GetCounter("avm.jit.native_enters");
  c_io_calls_ = reg.GetCounter("avm.jit.io_calls");
  for (int i = 0; i < kNumIoExits; i++) {
    c_io_exits_[i] = reg.GetCounter("avm.jit.io_exits", {{"reason", kIoExitNames[i]}});
  }
  c_loop_regions_ = reg.GetCounter("avm.jit.loop_regions");
  h_region_insns_ = reg.GetHistogram("avm.jit.region_insns");
  h_region_blocks_ = reg.GetHistogram("avm.jit.region_blocks");
  h_block_exec_ = reg.GetHistogram("avm.jit.block_exec");
}

JitEngine::~JitEngine() {
  // Flush per-block execution counts for translations still live, so
  // avm.jit.block_exec covers the whole run (hot_threshold tuning).
  for (TranslatedBlock& b : block_storage_) {
    if (!b.invalidated) {
      RetireExecCount(&b);
    }
  }
}

void JitEngine::RetireExecCount(TranslatedBlock* b) {
  if (b->exec_count != 0) {
    h_block_exec_->Record(b->exec_count);
    b->exec_count = 0;
  }
}

void JitEngine::SetAnalysisHints(const analysis::ImageAnalysis* hints) {
  hints_ = hints;
  static_selfmod_pages_.assign(page_count_, 0);
  if (hints_ != nullptr) {
    for (uint32_t pg : hints_->report.selfmod_pages) {
      if (pg < page_count_) {
        // Pre-arm the per-page seam: stores to statically-detected
        // self-modifying pages side-exit even before the first
        // translation on that page exists, so the seam can never race
        // a translation with a store it should have invalidated.
        static_selfmod_pages_[pg] = 1;
      }
    }
  }
  Flush();  // Re-seeds code_pages_ from the new static set.
}

void JitEngine::CountFallback() {
  stats_.interp_fallbacks++;
  c_fallbacks_->Inc();
}

void JitEngine::CountSelfMod() {
  stats_.selfmod_exits++;
  c_selfmod_->Inc();
}

void JitEngine::CountIoCall() {
  stats_.io_calls++;
  c_io_calls_->Inc();
}

void JitEngine::CountIoExit(IoExit why) {
  const int i = static_cast<int>(why);
  stats_.io_exits[i]++;
  c_io_exits_[i]->Inc();
}

// Emits one translation unit starting at `head` into `em`: a single
// basic block, or — with analysis hints installed — a straight-line
// region fused across direct JMP/JAL edges the static CFG resolved.
// Returns false when the head instruction itself is runtime-deferred
// (nothing to translate). With `hold_loop_regs` the unit is a self-loop
// whose guest registers `em` maps to host registers: they are loaded
// after the entry budget check, written back before every exit, and the
// chain edge to `head` becomes an in-place back edge.
bool JitEngine::EmitBlock(uint32_t head, bool hold_loop_regs, Emitter* emp, Emitted* out) {
  Emitter& em = *emp;
  const uint32_t base_slot = static_cast<uint32_t>(chain_slots_.size());
  // With hints the cap covers whole regions; plain blocks keep the
  // tighter bound (it also sets the entry budget-check granularity).
  const uint32_t cap = hints_ != nullptr
                           ? std::max(cfg_.max_block_insns, cfg_.max_region_insns)
                           : cfg_.max_block_insns;

  struct PendingStub {
    size_t fix_at;     // rel32 to bind at the stub.
    uint32_t pc;       // Guest pc the stub reports.
    uint32_t retired;  // Instructions the stub adds to r13.
  };
  std::vector<PendingStub> falls;     // Failed bounds checks -> interpreter.
  std::vector<PendingStub> selfmods;  // Stores into translated pages.
  std::vector<size_t> io_exits;       // IN/OUT helper said "leave".
  std::vector<size_t> count_sites;    // disp32s that receive the unit length.

  // Writes the host-held guest registers back before an exit.
  auto write_back = [&] {
    if (!hold_loop_regs) {
      return;
    }
    for (int g = 0; g < kNumRegs; g++) {
      if (em.HostOf(g) >= 0) {
        em.StoreHostToGuestMem(g, static_cast<uint8_t>(em.HostOf(g)));
      }
    }
  };

  // Entry budget check: run only when icount + insn_count <= target, so
  // a chained run can never overshoot an icount landmark. The count is
  // patched in once the block length is known.
  count_sites.push_back(em.LeaRaxR13Disp32(0));
  em.CmpRaxR14();
  const size_t budget_fix = em.Jcc(Cc::kA);
  if (hold_loop_regs) {
    for (int g = 0; g < kNumRegs; g++) {
      if (em.HostOf(g) >= 0) {
        em.LoadHostFromGuestMem(static_cast<uint8_t>(em.HostOf(g)), g);
      }
    }
  }
  const size_t loop_top = em.size();

  uint32_t p = head;   // Guest pc being translated.
  uint32_t n = 0;      // Straight-line instructions emitted so far.
  uint32_t total = 0;  // Retired count on the block's longest path.
  // Instructions already added to r13: an IN/OUT helper call commits the
  // count before it, and later exits add only the difference.
  uint32_t committed = 0;
  bool open = true;
  uint32_t span_start = head;           // Start of the current guest span.
  std::vector<uint32_t> fused_heads{head};  // Loop guard for fusion.

  // A chain slot: commit icount and the successor pc, then a patchable
  // jmp that initially falls into its own miss stub. PatchChain later
  // redirects the jmp straight to the successor's entry. In a self-loop
  // the edge back to `head` instead re-checks the budget for one more
  // pass and jumps to loop_top, keeping the registers in place.
  auto chain_to = [&](uint32_t succ, uint32_t retired) {
    em.AddR13Imm(retired - committed);
    if (succ == head) {
      out->self_loop = true;
      if (hold_loop_regs) {
        count_sites.push_back(em.LeaRaxR13Disp32(0));
        em.CmpRaxR14();
        em.JccTo(Cc::kBe, loop_top);
        // Not enough budget for another pass: leave exactly as a failed
        // entry check would, with every instruction so far retired.
        write_back();
        em.StoreCtx32Imm(kCtxPc, head);
        em.ExitEpilogue(kExitNoBudget, kCtxIcount);
        return;
      }
    }
    write_back();
    em.StoreCtx32Imm(kCtxPc, succ);
    const uint32_t slot_id = base_slot + static_cast<uint32_t>(out->slot_sites.size());
    const size_t fix = em.Jmp();
    out->slot_sites.push_back(fix);
    em.Bind(fix);
    em.StoreCtx32Imm(kCtxExitSlot, slot_id);
    em.ExitEpilogue(kExitChainMiss, kCtxIcount);
  };

  // Region fusion: a direct JMP/JAL whose target the static CFG knows
  // can be translated *through* — the jump retires (icount) but emits
  // no code; translation continues at the target as if it fell through.
  // Never into statically self-modifying pages (invalidation stays
  // block-granular there), never into a head already in this region
  // (loops keep chaining through budget-checked entries).
  auto can_fuse = [&](uint32_t target) {
    return hints_ != nullptr && n + 1 < cap && target % 4 == 0 &&
           target <= mem_size_ - 4 && hints_->cfg.BlockAt(target) != nullptr &&
           !IsStaticSelfmodPage(target / kPageSize) &&
           !IsStaticSelfmodPage(p / kPageSize) &&
           std::find(fused_heads.begin(), fused_heads.end(), target) ==
               fused_heads.end();
  };
  auto fuse_to = [&](uint32_t target) {
    fused_heads.push_back(target);
    out->spans.emplace_back(span_start, p + 4);
    span_start = target;
    out->blocks_fused++;
    n++;  // The jump itself retires.
    p = target;
  };

  // Dead-writeback elimination: a pure-compute op whose destination is
  // provably redefined before any possible exit emits nothing (it still
  // retires). The scan admits only ops that cannot leave compiled code
  // (pure compute, NOP, DI) between the def and its redef — the sole
  // exit in such a window is the entry budget check, which runs before
  // anything retires — so no exit or landmark can observe the stale
  // value. Loads/stores (fault side-exits), IN/OUT (helper calls read
  // the register file), terminators and fallbacks are barriers; the
  // redef must also land inside this unit's cap.
  auto dead_writeback = [&](const Insn& in) {
    if (hints_ == nullptr) {
      return false;
    }
    const analysis::RegMask d = analysis::InsnDefs(in);
    if (d == 0) {
      return false;
    }
    uint32_t q = p + 4;
    for (uint32_t idx = n + 1; idx < cap && q <= mem_size_ - 4; idx++, q += 4) {
      uint32_t w;
      std::memcpy(&w, mem_ + q, 4);
      const Insn qi = Decode(w);
      const uint8_t qop = static_cast<uint8_t>(w >> 24);
      if ((analysis::InsnUses(qi) & d) != 0) {
        return false;  // Read before redefinition: live.
      }
      if (analysis::IsPureComputeOp(qop)) {
        if ((analysis::InsnDefs(qi) & d) != 0) {
          return true;  // Redefined inside the exit-free window: dead.
        }
      } else if (qop != static_cast<uint8_t>(Op::kNop) &&
                 qop != static_cast<uint8_t>(Op::kDi)) {
        return false;  // Possible exit: the write is observable.
      }
    }
    return false;
  };

  while (open) {
    if (n >= cap || p > mem_size_ - 4) {
      // Length cap, or the next fetch would be out of bounds: continue
      // via an unconditional chain (an out-of-range successor simply
      // faults in the interpreter when the dispatcher gets there).
      chain_to(p, n);
      total = n;
      break;
    }
    uint32_t word;
    std::memcpy(&word, mem_ + p, 4);
    const Insn in = Decode(word);
    const uint32_t simm = static_cast<uint32_t>(in.SImm());
    if (analysis::IsPureComputeOp(static_cast<uint8_t>(word >> 24)) &&
        dead_writeback(in)) {
      out->dead_writes++;
      n++;
      p += 4;
      continue;
    }
    switch (in.op) {
      case Op::kNop:
        break;
      case Op::kMovi:
        em.MovGuestImm(in.ra, simm);
        break;
      case Op::kMovhi:
        em.MovGuestImm(in.ra, static_cast<uint32_t>(in.imm) << 16);
        break;
      case Op::kOri:
        em.OrGuestImm(in.ra, in.imm);
        break;
      case Op::kMov:
        em.LoadGuest(R32::kEax, in.rb);
        em.StoreGuest(in.ra, R32::kEax);
        break;
      case Op::kAdd:
        em.LoadGuest(R32::kEax, in.rb);
        em.AddMemGuest(in.ra, R32::kEax);
        break;
      case Op::kSub:
        em.LoadGuest(R32::kEax, in.rb);
        em.SubMemGuest(in.ra, R32::kEax);
        break;
      case Op::kMul:
        em.LoadGuest(R32::kEax, in.ra);
        em.ImulEaxGuest(in.rb);
        em.StoreGuest(in.ra, R32::kEax);
        break;
      case Op::kDivu: {
        // ra = rb == 0 ? 0xffffffff : ra / rb (edx:eax unsigned divide).
        em.LoadGuest(R32::kEcx, in.rb);
        em.TestEcxEcx();
        const size_t zero = em.Jcc(Cc::kE);
        em.LoadGuest(R32::kEax, in.ra);
        em.XorEdxEdx();
        em.DivEcx();
        em.StoreGuest(in.ra, R32::kEax);
        const size_t done = em.Jmp();
        em.Bind(zero);
        em.MovGuestImm(in.ra, 0xffffffffu);
        em.Bind(done);
        break;
      }
      case Op::kRemu: {
        // ra = rb == 0 ? ra : ra % rb (remainder lands in edx).
        em.LoadGuest(R32::kEcx, in.rb);
        em.TestEcxEcx();
        const size_t done = em.Jcc(Cc::kE);
        em.LoadGuest(R32::kEax, in.ra);
        em.XorEdxEdx();
        em.DivEcx();
        em.StoreGuest(in.ra, R32::kEdx);
        em.Bind(done);
        break;
      }
      case Op::kAnd:
        em.LoadGuest(R32::kEax, in.rb);
        em.AndMemGuest(in.ra, R32::kEax);
        break;
      case Op::kOr:
        em.LoadGuest(R32::kEax, in.rb);
        em.OrMemGuest(in.ra, R32::kEax);
        break;
      case Op::kXor:
        em.LoadGuest(R32::kEax, in.rb);
        em.XorMemGuest(in.ra, R32::kEax);
        break;
      case Op::kShl:
        // x86 masks cl to 5 bits for 32-bit shifts, matching the ISA.
        em.LoadGuest(R32::kEcx, in.rb);
        em.ShlGuestCl(in.ra);
        break;
      case Op::kShr:
        em.LoadGuest(R32::kEcx, in.rb);
        em.ShrGuestCl(in.ra);
        break;
      case Op::kSra:
        em.LoadGuest(R32::kEcx, in.rb);
        em.SraGuestCl(in.ra);
        break;
      case Op::kAddi:
        em.AddGuestImm(in.ra, simm);
        break;
      case Op::kSlt:
      case Op::kSltu:
        em.LoadGuest(R32::kEax, in.ra);
        em.CmpEaxGuest(in.rb);
        em.SetccEax(in.op == Op::kSlt ? Cc::kL : Cc::kB);
        em.StoreGuest(in.ra, R32::kEax);
        break;
      case Op::kLw:
        em.LoadGuest(R32::kEax, in.rb);
        em.AddEaxImm(simm);
        em.TestEaxImm(3);
        falls.push_back({em.Jcc(Cc::kNe), p, n - committed});
        em.CmpEaxImm(static_cast<uint32_t>(mem_size_ - 4));
        falls.push_back({em.Jcc(Cc::kA), p, n - committed});
        em.LoadMem32(R32::kEcx);
        em.StoreGuest(in.ra, R32::kEcx);
        break;
      case Op::kLb:
        em.LoadGuest(R32::kEax, in.rb);
        em.AddEaxImm(simm);
        em.CmpEaxImm(static_cast<uint32_t>(mem_size_));
        falls.push_back({em.Jcc(Cc::kAe), p, n - committed});
        em.LoadMem8(R32::kEcx);
        em.StoreGuest(in.ra, R32::kEcx);
        break;
      case Op::kSw:
      case Op::kSb: {
        const bool word_op = in.op == Op::kSw;
        em.LoadGuest(R32::kEax, in.rb);
        em.AddEaxImm(simm);
        if (word_op) {
          em.TestEaxImm(3);
          falls.push_back({em.Jcc(Cc::kNe), p, n - committed});
          em.CmpEaxImm(static_cast<uint32_t>(mem_size_ - 4));
          falls.push_back({em.Jcc(Cc::kA), p, n - committed});
        } else {
          em.CmpEaxImm(static_cast<uint32_t>(mem_size_));
          falls.push_back({em.Jcc(Cc::kAe), p, n - committed});
        }
        em.LoadGuest(R32::kEcx, in.ra);
        if (word_op) {
          em.StoreMem32(R32::kEcx);
        } else {
          em.StoreMem8(R32::kEcx);
        }
        // Page bookkeeping, mirroring Step()'s store tails:
        // dirty[page] = 1, and a side-exit when the page holds
        // translations so the runtime can drop them (the store itself
        // has retired by then).
        em.MovEdxEax();
        em.ShrEdxImm(12);
        em.LoadCtxPtrRcx(kCtxDirty);
        em.StoreByteRcxRdx(1);
        em.LoadCtxPtrRcx(kCtxCodePages);
        em.CmpByteRcxRdxZero();
        selfmods.push_back({em.Jcc(Cc::kNe), p + 4, n + 1 - committed});
        break;
      }
      case Op::kBeq:
      case Op::kBne:
      case Op::kBlt:
      case Op::kBge:
      case Op::kBltu:
      case Op::kBgeu: {
        Cc cc = Cc::kE;
        switch (in.op) {
          case Op::kBeq: cc = Cc::kE; break;
          case Op::kBne: cc = Cc::kNe; break;
          case Op::kBlt: cc = Cc::kL; break;
          case Op::kBge: cc = Cc::kGe; break;
          case Op::kBltu: cc = Cc::kB; break;
          default: cc = Cc::kAe; break;
        }
        em.LoadGuest(R32::kEax, in.ra);
        em.CmpEaxGuest(in.rb);
        const size_t taken = em.Jcc(cc);
        chain_to(p + 4, n + 1);  // Fall-through successor.
        em.Bind(taken);
        chain_to(p + 4 + simm * 4, n + 1);
        total = n + 1;
        p += 4;  // Condition/targets are baked in: the terminator is
        open = false;  // part of the span so its page tracks this block.
        break;
      }
      case Op::kJmp: {
        const uint32_t target = p + 4 + simm * 4;
        if (can_fuse(target)) {
          fuse_to(target);
          continue;
        }
        chain_to(target, n + 1);
        total = n + 1;
        p += 4;
        open = false;
        break;
      }
      case Op::kJal: {
        const uint32_t target = p + 4 + simm * 4;
        em.MovGuestImm(in.ra, p + 4);
        if (can_fuse(target)) {
          fuse_to(target);
          continue;
        }
        chain_to(target, n + 1);
        total = n + 1;
        p += 4;
        open = false;
        break;
      }
      case Op::kJr:
      case Op::kJalr:
        if (in.op == Op::kJr) {
          em.LoadGuest(R32::kEax, in.ra);
        } else {
          em.LoadGuest(R32::kEax, in.rb);  // Target before the link write:
          em.MovGuestImm(in.ra, p + 4);    // ra may alias rb.
        }
        em.StoreCtx32Eax(kCtxPc);
        em.AddR13Imm(n + 1 - committed);
        write_back();
        em.ExitEpilogue(kExitDynamic, kCtxIcount);
        total = n + 1;
        p += 4;
        open = false;
        break;
      case Op::kIn:
      case Op::kOut:
        // The helper retires the instruction through Step(); icount and
        // pc are committed first so the backend sees the exact landmark.
        // The helper returns nonzero when native code must not continue.
        out->has_io = true;
        em.AddR13Imm(n - committed);
        committed = n;
        em.StoreCtxR13(kCtxIcount);
        em.StoreCtx32Imm(kCtxPc, p);
        em.CallCtxHelper(kCtxIoFn);
        io_exits.push_back(em.Jcc(Cc::kNe));
        break;
      case Op::kDi:
        em.LoadCtxPtrRax(kCtxCpu);
        em.StoreByteRaxDisp(static_cast<uint8_t>(offsetof(CpuState, int_enabled)), 0);
        break;
      default:
        // HALT/EI/IRET/illegal: defer to the interpreter, which owns
        // interrupt boundaries and fault messages.
        if (n == 0) {
          return false;
        }
        em.AddR13Imm(n - committed);
        write_back();
        em.StoreCtx32Imm(kCtxPc, p);
        em.ExitEpilogue(kExitFallback, kCtxIcount);
        total = n;
        open = false;
        break;
    }
    if (open) {
      n++;
      p += 4;
    }
  }

  em.Bind(budget_fix);
  em.StoreCtx32Imm(kCtxPc, head);
  em.ExitEpilogue(kExitNoBudget, kCtxIcount);

  for (const PendingStub& s : falls) {
    em.Bind(s.fix_at);
    em.AddR13Imm(s.retired);
    write_back();
    em.StoreCtx32Imm(kCtxPc, s.pc);
    em.ExitEpilogue(kExitFallback, kCtxIcount);
  }
  for (const PendingStub& s : selfmods) {
    em.Bind(s.fix_at);
    em.StoreCtx32Eax(kCtxModAddr);  // eax still holds the store address.
    em.AddR13Imm(s.retired);
    write_back();
    em.StoreCtx32Imm(kCtxPc, s.pc);
    em.ExitEpilogue(kExitSelfMod, kCtxIcount);
  }
  for (size_t fix : io_exits) {
    // The helper left the post-instruction icount/pc in ctx.
    em.Bind(fix);
    em.LoadR13Ctx(kCtxIcount);
    em.ExitEpilogue(kExitIo, kCtxIcount);
  }

  for (size_t site : count_sites) {
    em.PatchU32(site, total);
  }
  out->insn_count = total;
  // Fallback/cap terminators are re-fetched by the interpreter and stay
  // outside the spans; translated terminators were counted above.
  if (p > span_start) {
    out->spans.emplace_back(span_start, p);
  }
  return true;
}

TranslatedBlock* JitEngine::Compile(uint32_t pc) {
  for (int attempt = 0; attempt < 2; attempt++) {
    Emitter em;
    Emitted out;
    if (!EmitBlock(pc, /*hold_loop_regs=*/false, &em, &out)) {
      return nullptr;
    }
    const bool loop_regs = out.self_loop && !out.has_io;
    if (loop_regs) {
      // A self-loop: translate again with its most-used guest registers
      // held in host registers (the first pass counted the uses).
      Emitter loop_em;
      int order[kNumRegs];
      for (int g = 0; g < kNumRegs; g++) {
        order[g] = g;
      }
      std::stable_sort(order, order + kNumRegs, [&](int a, int b) {
        return em.GuestUses(a) > em.GuestUses(b);
      });
      for (size_t i = 0; i < std::size(kGuestHostRegs) && em.GuestUses(order[i]) != 0; i++) {
        loop_em.MapGuest(order[i], kGuestHostRegs[i]);
      }
      Emitted loop_out;
      EmitBlock(pc, /*hold_loop_regs=*/true, &loop_em, &loop_out);
      em = std::move(loop_em);
      out = std::move(loop_out);
    }
    cache_.MakeWritable();
    uint8_t* dst = cache_.Alloc(em.size());
    if (dst == nullptr) {
      cache_.MakeExecutable();
      if (attempt == 0) {
        Flush();  // Retry once against an empty cache (slot ids re-base).
        continue;
      }
      return nullptr;  // Block larger than the whole cache.
    }
    std::memcpy(dst, em.bytes().data(), em.size());
    cache_.MakeExecutable();

    for (size_t site : out.slot_sites) {
      chain_slots_.push_back(ChainSlot{dst + site});
    }
    block_storage_.push_back(
        TranslatedBlock{pc, out.insn_count, dst, false, std::move(out.spans), 0});
    TranslatedBlock* b = &block_storage_.back();
    blocks_by_pc_[pc] = b;
    for (const auto& [s, e] : b->spans) {
      const size_t first = s / kPageSize;
      const size_t last = (e - 1) / kPageSize;
      for (size_t pg = first; pg <= last && pg < page_count_; pg++) {
        // A page can host several spans of one region; InvalidatePage
        // tolerates the duplicate registration via b->invalidated.
        page_blocks_[pg].push_back(b);
        code_pages_[pg] = 1;
      }
    }
    stats_.translations++;
    stats_.code_bytes += em.size();
    c_translations_->Inc();
    c_code_bytes_->Inc(em.size());
    stats_.regions_fused += out.blocks_fused;
    c_regions_fused_->Inc(out.blocks_fused);
    stats_.dead_writes_skipped += out.dead_writes;
    c_dead_writes_->Inc(out.dead_writes);
    if (loop_regs) {
      stats_.loop_regions++;
      c_loop_regions_->Inc();
    }
    h_region_insns_->Record(out.insn_count);
    h_region_blocks_->Record(out.blocks_fused + 1);
    return b;
  }
  return nullptr;
}

TranslatedBlock* JitEngine::MaybeCompile(uint32_t pc) {
  auto it = blocks_by_pc_.find(pc);
  if (it != blocks_by_pc_.end()) {
    return it->second;
  }
  if (!cache_.ok() || pc % 4 != 0 || pc > mem_size_ - 4) {
    return nullptr;
  }
  // A head only the interpreter can retire (EI, IRET, HALT, illegal)
  // never translates: skip the heat count and the throwaway Compile.
  // Decoding live memory keeps this right when the guest rewrites it.
  uint32_t word;
  std::memcpy(&word, mem_ + pc, 4);
  if (IsRuntimeDeferred(static_cast<uint8_t>(word >> 24))) {
    return nullptr;
  }
  if (++heat_[pc] < cfg_.hot_threshold) {
    return nullptr;
  }
  TranslatedBlock* b = Compile(pc);  // May Flush(), which clears heat_.
  heat_.erase(pc);
  return b;
}

uint32_t JitEngine::Execute(TranslatedBlock* b) {
  stats_.native_enters++;
  c_native_enters_->Inc();
  b->exec_count++;
  using EnterFn = uint32_t (*)(JitContext*, const void*);
  EnterFn fn = reinterpret_cast<EnterFn>(const_cast<void*>(cache_.enter_fn()));
  return fn(&ctx_, b->entry);
}

void JitEngine::PatchChain(uint32_t slot_id, TranslatedBlock* target) {
  if (slot_id >= chain_slots_.size() || target == nullptr || target->invalidated) {
    return;
  }
  cache_.MakeWritable();
  uint8_t* rel_at = chain_slots_[slot_id].patch_at;
  const int64_t rel = target->entry - (rel_at + 4);
  const uint32_t enc = static_cast<uint32_t>(static_cast<int32_t>(rel));
  std::memcpy(rel_at, &enc, 4);
  cache_.MakeExecutable();
  stats_.chain_patches++;
  c_chain_patches_->Inc();
}

void JitEngine::PatchJmp(uint8_t* at, const uint8_t* target) {
  at[0] = 0xE9;
  const int64_t rel = target - (at + 5);
  const uint32_t enc = static_cast<uint32_t>(static_cast<int32_t>(rel));
  std::memcpy(at + 1, &enc, 4);
}

void JitEngine::InvalidatePage(size_t page) {
  if (page >= page_count_) {
    return;
  }
  invalidation_epoch_++;
  std::vector<TranslatedBlock*>& list = page_blocks_[page];
  if (!list.empty()) {
    cache_.MakeWritable();
    for (TranslatedBlock* b : list) {
      if (b->invalidated) {
        continue;  // Already dropped via another page it spans.
      }
      // Entry patched to the invalid thunk: direct dispatch AND stale
      // chain edges from live predecessors both turn into chain misses.
      b->invalidated = true;
      RetireExecCount(b);
      PatchJmp(b->entry, cache_.invalid_thunk());
      blocks_by_pc_.erase(b->guest_pc);
      stats_.blocks_invalidated++;
      c_blocks_invalidated_->Inc();
    }
    cache_.MakeExecutable();
    list.clear();
  }
  // Statically-detected self-modifying pages stay armed (see
  // SetAnalysisHints); everything else disarms until recompiled.
  code_pages_[page] = IsStaticSelfmodPage(page) ? 1 : 0;
  stats_.pages_invalidated++;
  c_pages_invalidated_->Inc();
}

void JitEngine::Flush() {
  invalidation_epoch_++;
  for (TranslatedBlock& b : block_storage_) {
    if (!b.invalidated) {
      RetireExecCount(&b);
    }
  }
  cache_.Reset();
  blocks_by_pc_.clear();
  block_storage_.clear();
  for (std::vector<TranslatedBlock*>& list : page_blocks_) {
    list.clear();
  }
  if (page_count_ != 0) {
    std::memset(code_pages_, 0, page_count_);
    // Statically-detected self-modifying pages stay armed forever: the
    // seam must catch the next store even with no translations left.
    for (size_t pg = 0; pg < page_count_; pg++) {
      if (IsStaticSelfmodPage(pg)) {
        code_pages_[pg] = 1;
      }
    }
  }
  chain_slots_.clear();
  heat_.clear();
  generation_++;
  stats_.flushes++;
  c_flushes_->Inc();
}

}  // namespace jit
}  // namespace avm
