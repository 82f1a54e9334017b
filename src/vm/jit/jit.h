// Dynamic binary translation for AVM-32 replay: hot guest basic blocks
// are compiled to x86-64 and chained together, with the interpreter as
// the bit-for-bit reference oracle for everything the generated code
// does not handle natively.
//
// Shape (Valgrind's translation pipeline / QEMU's TB chaining):
//
//   * A block is a straight-line run of guest instructions ending at a
//     control transfer (branch/JMP/JAL/JR/JALR), an instruction that
//     needs the interpreter (EI/IRET/HALT/illegal), or the length cap.
//     Translation reads guest memory through the same Decode() the
//     interpreter uses.
//   * Every block entry re-checks the icount budget: the block runs
//     only when `icount + insn_count <= target_icount`, so RunUntilIcount
//     stops exactly at any trace landmark — the dispatcher single-steps
//     the reference interpreter across the boundary instead.
//   * Direct branches chain: each exit owns a patchable `jmp rel32`
//     that initially falls into a miss stub (returns to the dispatcher
//     with the successor pc + slot id); once the successor is compiled
//     the slot jumps straight to its entry, whose budget check keeps
//     landmark stops exact.
//   * IN/OUT stay inside the block as a call through JitContext::io_fn
//     with icount and pc committed first. The Machine's helper retires
//     the instruction with the reference Step(), so backend calls, §6.5
//     clock stalls and divergence reasons live in one place, and native
//     code continues only when the instruction retired plainly (icount
//     +1, pc +4, no deliverable interrupt, no invalidated translation,
//     no halt or fault). Otherwise the block leaves with kExitIo. The
//     helper catches backend exceptions, so none unwinds through
//     generated code; the dispatcher rethrows them.
//   * Anything else hard side-exits with pc/icount synced to just
//     BEFORE the difficult instruction and lets Machine::Step() execute
//     it: memory ops that would fault and EI/IRET/HALT (interrupt-
//     boundary re-checks). Fault behaviour is therefore inherited from
//     the interpreter, not re-implemented.
//   * Self-loops: a region without IN/OUT whose chain successor is its
//     own head holds up to seven of the guest registers it touches in
//     host registers. They are loaded after the entry budget check and
//     written back before every exit; the back edge adds the region
//     length to icount, re-checks the budget and jumps back inside the
//     region instead of re-entering through the dispatcher or a chain.
//   * Self-modifying writes: stores check a per-page "has translations"
//     byte map (the same map Machine's write paths consult) and
//     side-exit so the runtime can drop the affected translations —
//     including the currently running block.
//     Invalidated entries are patched to a thunk, which also neutralizes
//     stale chain edges pointing at them.
//
// One JitEngine per Machine: caches are thread-private, so fleet audits
// replaying many logs concurrently never contend or cross-patch.
#ifndef SRC_VM_JIT_JIT_H_
#define SRC_VM_JIT_JIT_H_

// Build gate: CMake defines AVM_JIT_X86 (option AVM_JIT, forced off on
// non-x86-64 hosts); builds without it autodetect from the compiler.
#if !defined(AVM_JIT_X86)
#if defined(__x86_64__) && (defined(__unix__) || defined(__APPLE__))
#define AVM_JIT_X86 1
#else
#define AVM_JIT_X86 0
#endif
#endif

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "src/vm/jit/translation_cache.h"

namespace avm {

struct CpuState;

namespace analysis {
struct ImageAnalysis;
}  // namespace analysis

namespace obs {
class Counter;
class Histogram;
}  // namespace obs

namespace jit {

class Emitter;  // src/vm/jit/emitter.h; only jit.cc needs the definition.

// Fixed layout shared with the generated code (all offsets disp8).
struct JitContext {
  uint32_t* regs = nullptr;       // +0   &cpu.regs[0]
  uint8_t* mem = nullptr;         // +8   guest memory base
  uint64_t icount = 0;            // +16  live icount (in/out)
  uint64_t target = 0;            // +24  RunUntilIcount target
  uint32_t pc = 0;                // +32  entry/exit pc (in/out)
  uint32_t exit_slot = 0;         // +36  chain slot id on kExitChainMiss
  uint8_t* dirty = nullptr;       // +40  per-page dirty bytes
  uint8_t* code_pages = nullptr;  // +48  per-page "has translations" bytes
  CpuState* cpu = nullptr;        // +56  for int_enabled writes (DI)
  uint32_t mod_addr = 0;          // +64  self-modifying store address
  uint32_t pad_ = 0;
  // +72  IN/OUT helper: retires the instruction at ctx.pc (icount in
  // ctx.icount) and returns 0 when native code may continue; otherwise
  // it leaves the post-instruction icount/pc in ctx and the block exits
  // with kExitIo.
  uint32_t (*io_fn)(JitContext*) = nullptr;
  void* host = nullptr;           // +80  the Machine, for io_fn
};

inline constexpr uint8_t kCtxRegs = 0;
inline constexpr uint8_t kCtxMem = 8;
inline constexpr uint8_t kCtxIcount = 16;
inline constexpr uint8_t kCtxTarget = 24;
inline constexpr uint8_t kCtxPc = 32;
inline constexpr uint8_t kCtxExitSlot = 36;
inline constexpr uint8_t kCtxDirty = 40;
inline constexpr uint8_t kCtxCodePages = 48;
inline constexpr uint8_t kCtxCpu = 56;
inline constexpr uint8_t kCtxModAddr = 64;
inline constexpr uint8_t kCtxIoFn = 72;

// Exit codes returned in eax by the generated code.
enum JitExit : uint32_t {
  // A chain slot (or an invalidated entry) has no compiled successor:
  // ctx.pc is the wanted guest pc, ctx.exit_slot the slot to patch
  // (~0u when there is nothing to patch).
  kExitChainMiss = 0,
  // Entry budget check failed: completing this block would overshoot
  // target_icount. The interpreter single-steps to the exact boundary.
  kExitNoBudget = 1,
  // Register-indirect transfer (JR/JALR): ctx.pc holds the runtime
  // target; the dispatcher re-enters through the interrupt-checking
  // boundary that Step() passes before every instruction.
  kExitDynamic = 2,
  // ctx.pc points at an instruction the JIT defers to the interpreter
  // (EI/IRET/HALT/illegal, or a memory op whose bounds check failed);
  // icount counts only the instructions retired before it.
  kExitFallback = 3,
  // A store landed on a page holding translations; the store itself has
  // retired (icount/pc include it, dirty updated). ctx.mod_addr
  // is the written address; the runtime invalidates and resumes.
  kExitSelfMod = 4,
  // The IN/OUT helper retired its instruction (or threw) but native code
  // may not continue; ctx holds the post-instruction icount/pc.
  kExitIo = 5,
};

// Why an IN/OUT helper call left native code (avm.jit.io_exits labels).
enum class IoExit : uint8_t {
  kIrq,         // A deliverable interrupt is pending.
  kIcount,      // icount moved by other than 1 (a §6.5 clock stall),
                // or pc did not move to the next word.
  kInvalidate,  // The instruction invalidated or flushed translations.
  kHaltFault,   // The machine halted or faulted.
  kException,   // The backend threw; the dispatcher rethrows.
};
inline constexpr int kNumIoExits = 5;

struct TranslatedBlock {
  uint32_t guest_pc = 0;     // First instruction.
  uint32_t insn_count = 0;   // Retired when the block runs to its tail.
  uint8_t* entry = nullptr;  // Native entry (budget check first).
  bool invalidated = false;
  // Guest byte ranges [start, end) covered by translated instructions.
  // A plain block has one span; an analysis-guided region has one per
  // fused basic block (page registration covers them all).
  std::vector<std::pair<uint32_t, uint32_t>> spans;
  // Dispatcher entries into this translation (chained tail entries are
  // not counted). Recorded into avm.jit.block_exec on invalidate/flush.
  uint64_t exec_count = 0;
};

// Plain single-threaded counters; mirrored into the obs registry
// (avm.jit.*) so §6.6 attribution covers the translation layer.
struct JitStats {
  uint64_t translations = 0;
  uint64_t code_bytes = 0;
  uint64_t flushes = 0;
  uint64_t blocks_invalidated = 0;
  uint64_t pages_invalidated = 0;
  uint64_t chain_patches = 0;
  uint64_t interp_fallbacks = 0;
  uint64_t selfmod_exits = 0;
  uint64_t native_enters = 0;
  uint64_t regions_fused = 0;        // Extra basic blocks merged into regions.
  uint64_t dead_writes_skipped = 0;  // Writebacks proven dead by a local scan.
  uint64_t io_calls = 0;             // IN/OUT retired through the helper.
  uint64_t io_exits[kNumIoExits] = {0};  // Helper calls that left native code.
  uint64_t loop_regions = 0;         // Self-loops translated with host registers.
};

struct JitConfig {
  size_t cache_bytes = 1u << 20;
  uint32_t hot_threshold = 2;     // Compile a pc on its Nth dispatcher visit.
  uint32_t max_block_insns = 64;  // Also bounds the budget granularity.
  // Cap for analysis-guided regions (straight-line fusion across
  // JMP/JAL); only effective when SetAnalysisHints provided a CFG.
  uint32_t max_region_insns = 128;
  bool harden_wx = false;         // W^X (RW<->RX) instead of one RWX map.
};

// True when this build can emit native code for this host (x86-64 with
// AVM_JIT compiled in). The Machine additionally requires a successful
// executable mapping at first use.
bool JitSupported();

// True for opcodes that terminate a translated block (control transfers
// and everything the JIT defers to the interpreter). The dispatcher's
// cold path interprets up to the next such instruction so compile-heat
// anchors land on real block heads.
bool EndsTraceBlock(uint8_t opcode);

class JitEngine {
 public:
  // mem/mem_size: guest RAM. page_count bytes behind code_pages must
  // stay valid for the engine's lifetime (the Machine owns them so its
  // write paths can check "does this page hold translations" inline).
  JitEngine(const JitConfig& cfg, uint8_t* mem, size_t mem_size, uint8_t* code_pages,
            size_t page_count);
  ~JitEngine();

  // Installs (or clears, with nullptr) static-analysis hints for the
  // currently loaded image. Enables region fusion across direct
  // JMP/JAL onto the CFG's block heads, dead-writeback elimination (a
  // local use/def scan of the instructions after each write), and
  // pre-arms the self-modification seam for statically-detected
  // self-modifying pages. Hints are advisory: emission always decodes
  // live guest memory, so stale hints cost performance, never
  // correctness. A machine started from a snapshot loads no image and
  // translates without hints, one basic block at a time. Flushes
  // existing translations. `hints` must outlive the engine or the next
  // SetAnalysisHints call.
  void SetAnalysisHints(const analysis::ImageAnalysis* hints);

  // False when executable memory is unavailable; the Machine falls back
  // to the reference Step() loop permanently.
  bool ok() const { return cache_.ok(); }

  JitContext& ctx() { return ctx_; }

  TranslatedBlock* Lookup(uint32_t pc) {
    auto it = blocks_by_pc_.find(pc);
    return it == blocks_by_pc_.end() ? nullptr : it->second;
  }

  // Heat-counts pc and compiles once it crosses the threshold. Returns
  // the block, or nullptr when pc is still cold or untranslatable (out
  // of range, or its live word is EI/IRET/HALT/illegal, which is never
  // heat-counted). May flush the whole cache when full.
  TranslatedBlock* MaybeCompile(uint32_t pc);

  // Runs native code starting at `b` (chains run inside). The caller
  // loads ctx (icount/target/pc) before and syncs cpu state after.
  uint32_t Execute(TranslatedBlock* b);

  // Points chain slot `slot_id` (from ctx.exit_slot) at `target`.
  void PatchChain(uint32_t slot_id, TranslatedBlock* target);

  // Drops every translation intersecting `page` (entry patched to the
  // invalidated thunk, so stale chain edges die too).
  void InvalidatePage(size_t page);
  void InvalidateWrite(uint32_t addr) { InvalidatePage(addr / 4096); }

  // Drops everything (image reload, cache full).
  void Flush();

  // Dispatcher-side stat hooks for exits the native code cannot count.
  void CountFallback();
  void CountSelfMod();
  // IN/OUT helper hooks.
  void CountIoCall();
  void CountIoExit(IoExit why);

  // Bumped by every InvalidatePage and Flush: the IN/OUT helper compares
  // it across the instruction to see whether the running translation
  // may have been dropped.
  uint64_t invalidation_epoch() const { return invalidation_epoch_; }

  // Cache generation, bumped by Flush: the dispatcher uses it to detect
  // that a chain slot id from before a compile-triggered flush is stale.
  uint64_t generation() const { return generation_; }

  const JitStats& stats() const { return stats_; }
  size_t code_bytes_used() const { return cache_.used(); }

 private:
  struct ChainSlot {
    uint8_t* patch_at = nullptr;  // The 5-byte jmp rel32 to rewrite.
  };

  struct Emitted;  // EmitBlock's results; defined in jit.cc.

  TranslatedBlock* Compile(uint32_t pc);
  bool EmitBlock(uint32_t head, bool hold_loop_regs, Emitter* em, Emitted* out);
  void PatchJmp(uint8_t* at, const uint8_t* target);
  bool IsStaticSelfmodPage(size_t page) const {
    return page < static_selfmod_pages_.size() && static_selfmod_pages_[page] != 0;
  }
  void RetireExecCount(TranslatedBlock* b);

  JitConfig cfg_;
  uint8_t* mem_;
  size_t mem_size_;
  uint8_t* code_pages_;
  size_t page_count_;

  TranslationCache cache_;
  JitContext ctx_;
  std::deque<TranslatedBlock> block_storage_;
  std::unordered_map<uint32_t, TranslatedBlock*> blocks_by_pc_;
  std::vector<std::vector<TranslatedBlock*>> page_blocks_;
  std::unordered_map<uint32_t, uint32_t> heat_;
  std::vector<ChainSlot> chain_slots_;
  uint64_t generation_ = 0;
  uint64_t invalidation_epoch_ = 0;

  // Static-analysis hints (optional; see SetAnalysisHints).
  const analysis::ImageAnalysis* hints_ = nullptr;
  std::vector<uint8_t> static_selfmod_pages_;

  JitStats stats_;
  obs::Counter* c_translations_;
  obs::Counter* c_code_bytes_;
  obs::Counter* c_flushes_;
  obs::Counter* c_blocks_invalidated_;
  obs::Counter* c_pages_invalidated_;
  obs::Counter* c_chain_patches_;
  obs::Counter* c_fallbacks_;
  obs::Counter* c_selfmod_;
  obs::Counter* c_regions_fused_;
  obs::Counter* c_dead_writes_;
  obs::Counter* c_native_enters_;
  obs::Counter* c_io_calls_;
  obs::Counter* c_io_exits_[kNumIoExits];
  obs::Counter* c_loop_regions_;
  obs::Histogram* h_region_insns_;   // Insns per translation unit.
  obs::Histogram* h_region_blocks_;  // Basic blocks per translation unit.
  obs::Histogram* h_block_exec_;     // Dispatcher entries per translation.
};

}  // namespace jit
}  // namespace avm

#endif  // SRC_VM_JIT_JIT_H_
