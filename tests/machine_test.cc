#include <gtest/gtest.h>

#include <stdexcept>

#include "src/util/prng.h"
#include "src/vm/assembler.h"
#include "src/vm/jit/jit.h"
#include "src/vm/machine.h"

namespace avm {
namespace {

constexpr size_t kMem = 64 * 1024;

// Runs an assembly snippet until HALT and returns the machine for
// inspection. The snippet must set up its own registers.
struct RunResult {
  CpuState cpu;
  bool faulted;
  std::string fault_reason;
};

RunResult RunAsm(const std::string& body, uint64_t max_instr = 100000) {
  NullBackend backend;
  Machine m(kMem, &backend);
  m.LoadImage(Assemble(body));
  m.Run(max_instr);
  return {m.cpu(), m.faulted(), m.fault_reason()};
}

uint32_t Reg(const RunResult& r, int i) { return r.cpu.regs[i]; }

TEST(Machine, MoviSignExtends) {
  auto r = RunAsm("movi r1, -5\n movi r2, 42\n halt");
  EXPECT_EQ(Reg(r, 1), 0xfffffffbu);
  EXPECT_EQ(Reg(r, 2), 42u);
}

TEST(Machine, MovhiOriBuild32Bit) {
  auto r = RunAsm("movhi r1, 0xdead\n ori r1, 0xbeef\n halt");
  EXPECT_EQ(Reg(r, 1), 0xdeadbeefu);
}

TEST(Machine, LaPseudoLoadsFullWord) {
  auto r = RunAsm("la r1, 0x12345678\n halt");
  EXPECT_EQ(Reg(r, 1), 0x12345678u);
}

TEST(Machine, AluOps) {
  auto r = RunAsm(R"(
    movi r1, 21
    movi r2, 2
    mul r1, r2        ; r1 = 42
    movi r3, 100
    movi r4, 7
    divu r3, r4       ; r3 = 14
    movi r5, 100
    remu r5, r4       ; r5 = 2
    movi r6, 0xf0
    movi r7, 0x0f
    or r6, r7         ; r6 = 0xff
    movi r8, 0xff
    movi r9, 0x0f
    and r8, r9        ; r8 = 0x0f
    movi r10, 0xff
    xor r10, r9       ; r10 = 0xf0
    halt
  )");
  EXPECT_EQ(Reg(r, 1), 42u);
  EXPECT_EQ(Reg(r, 3), 14u);
  EXPECT_EQ(Reg(r, 5), 2u);
  EXPECT_EQ(Reg(r, 6), 0xffu);
  EXPECT_EQ(Reg(r, 8), 0x0fu);
  EXPECT_EQ(Reg(r, 10), 0xf0u);
}

TEST(Machine, DivRemByZeroDefined) {
  auto r = RunAsm(R"(
    movi r1, 7
    movi r2, 0
    divu r1, r2       ; -> 0xffffffff
    movi r3, 9
    remu r3, r2       ; -> 9 (dividend)
    halt
  )");
  EXPECT_EQ(Reg(r, 1), 0xffffffffu);
  EXPECT_EQ(Reg(r, 3), 9u);
}

TEST(Machine, ShiftsMaskAmount) {
  auto r = RunAsm(R"(
    movi r1, 1
    movi r2, 33       ; 33 & 31 == 1
    shl r1, r2        ; r1 = 2
    movi r3, -8
    movi r4, 2
    sra r3, r4        ; r3 = -2
    movi r5, -8
    shr r5, r4        ; logical
    halt
  )");
  EXPECT_EQ(Reg(r, 1), 2u);
  EXPECT_EQ(Reg(r, 3), 0xfffffffeu);
  EXPECT_EQ(Reg(r, 5), 0x3ffffffeu);
}

TEST(Machine, SltSignedVsUnsigned) {
  auto r = RunAsm(R"(
    movi r1, -1
    movi r2, 1
    mov r3, r1
    slt r3, r2        ; signed: -1 < 1 -> 1
    mov r4, r1
    sltu r4, r2       ; unsigned: 0xffffffff < 1 -> 0
    halt
  )");
  EXPECT_EQ(Reg(r, 3), 1u);
  EXPECT_EQ(Reg(r, 4), 0u);
}

TEST(Machine, LoadStoreWordAndByte) {
  auto r = RunAsm(R"(
    la r1, 0x1000
    movi r2, 0x1234
    sw r2, [r1+4]
    lw r3, [r1+4]
    movi r4, 0xab
    sb r4, [r1+9]
    lb r5, [r1+9]
    lw r6, [r1+8]     ; word containing the byte
    halt
  )");
  EXPECT_EQ(Reg(r, 3), 0x1234u);
  EXPECT_EQ(Reg(r, 5), 0xabu);
  EXPECT_EQ(Reg(r, 6), 0xab00u);
}

TEST(Machine, BranchesTakenAndNotTaken) {
  auto r = RunAsm(R"(
    movi r1, 5
    movi r2, 5
    movi r3, 0
    beq r1, r2, eq_taken
    movi r3, 99
eq_taken:
    movi r4, 3
    movi r5, 4
    blt r4, r5, lt_taken
    movi r3, 98
lt_taken:
    movi r6, -1
    movi r7, 1
    bltu r7, r6, ltu_taken    ; 1 < 0xffffffff unsigned
    movi r3, 97
ltu_taken:
    halt
  )");
  EXPECT_EQ(Reg(r, 3), 0u);
}

TEST(Machine, BackwardBranchLoop) {
  auto r = RunAsm(R"(
    movi r1, 0
    movi r2, 10
loop:
    addi r1, 1
    bne r1, r2, loop
    halt
  )");
  EXPECT_EQ(Reg(r, 1), 10u);
  EXPECT_EQ(r.cpu.icount, 2 + 10 * 2 + 1u);  // 2 setup + 10*(addi,bne) + halt
}

TEST(Machine, CallRetLinkage) {
  auto r = RunAsm(R"(
    movi r1, 0
    call func
    addi r1, 100
    halt
func:
    addi r1, 1
    ret
  )");
  EXPECT_EQ(Reg(r, 1), 101u);
}

TEST(Machine, JalrIndirectCall) {
  auto r = RunAsm(R"(
    la r2, func
    movi r1, 0
    jalr lr, r2
    addi r1, 10
    halt
func:
    addi r1, 1
    jr lr
  )");
  EXPECT_EQ(Reg(r, 1), 11u);
}

TEST(Machine, HaltStopsExecution) {
  auto r = RunAsm("movi r1, 1\n halt\n movi r1, 2\n halt");
  EXPECT_EQ(Reg(r, 1), 1u);
  EXPECT_TRUE(r.cpu.halted);
  EXPECT_FALSE(r.faulted);
}

TEST(Machine, IllegalOpcodeFaults) {
  NullBackend backend;
  Machine m(kMem, &backend);
  Bytes image;
  PutU32(image, 0xee000000u);  // No such opcode.
  m.LoadImage(image);
  EXPECT_EQ(m.Run(10), RunExit::kFault);
  EXPECT_TRUE(m.faulted());
}

TEST(Machine, OutOfBoundsLoadFaults) {
  auto r = RunAsm("la r1, 0xFFFFFF0\n lw r2, [r1]\n halt");
  EXPECT_TRUE(r.faulted);
  EXPECT_NE(r.fault_reason.find("LW"), std::string::npos);
}

TEST(Machine, MisalignedLoadFaults) {
  auto r = RunAsm("movi r1, 0x1002\n lw r2, [r1+1]\n halt");
  EXPECT_TRUE(r.faulted);
}

TEST(Machine, RunUntilIcountStopsExactly) {
  NullBackend backend;
  Machine m(kMem, &backend);
  m.LoadImage(Assemble("loop: jmp loop"));
  EXPECT_EQ(m.RunUntilIcount(1000), RunExit::kIcountReached);
  EXPECT_EQ(m.cpu().icount, 1000u);
  EXPECT_EQ(m.RunUntilIcount(1001), RunExit::kIcountReached);
  EXPECT_EQ(m.cpu().icount, 1001u);
}

TEST(Machine, DirtyPageTracking) {
  NullBackend backend;
  Machine m(kMem, &backend);
  m.LoadImage(Assemble(R"(
    la r1, 0x5000
    movi r2, 1
    sw r2, [r1]
    halt
  )"));
  m.ClearDirtyPages();  // Loading marked everything dirty.
  m.Run(10);
  auto dirty = m.CollectDirtyPages();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], 0x5000u / kPageSize);
}

TEST(Machine, HostMemoryAccessMarksDirty) {
  NullBackend backend;
  Machine m(kMem, &backend);
  m.ClearDirtyPages();
  m.WriteMem32(0x2000, 7);
  m.WriteMem8(0x3000, 8);
  m.WriteMemRange(0x4ffc, Bytes{1, 2, 3, 4, 5, 6, 7, 8});  // Spans two pages.
  auto dirty = m.CollectDirtyPages();
  EXPECT_EQ(dirty.size(), 4u);
  EXPECT_EQ(m.ReadMem32(0x2000), 7u);
  EXPECT_EQ(m.ReadMem8(0x3000), 8u);
}

TEST(Machine, CpuStateSerializationRoundTrip) {
  CpuState s;
  s.regs[3] = 42;
  s.pc = 0x100;
  s.saved_pc = 0x8;
  s.irq_cause = 2;
  s.pending_irqs = 0x6;
  s.int_enabled = true;
  s.icount = 123456789;
  CpuState restored = CpuState::Deserialize(s.Serialize());
  EXPECT_TRUE(restored == s);
}

TEST(Machine, InterruptDelivery) {
  NullBackend backend;
  Machine m(kMem, &backend);
  // Vector layout: reset jmp -> main; irq vector at 0x4.
  m.LoadImage(Assemble(R"(
    jmp main
    jmp irqh
irqh:
    in r5, IRQ_CAUSE
    addi r6, 1
    iret
main:
    movi r0, 0
    movi r6, 0
    ei
loop:
    addi r7, 1
    jmp loop
  )"));
  m.Run(10);
  m.RaiseIrq(kIrqNetRx);
  m.Run(100);
  EXPECT_EQ(m.cpu().regs[6], 1u);  // Handler ran once.
  EXPECT_EQ(m.pending_irqs(), 0u);
}

TEST(Machine, InterruptDeferredWhileDisabled) {
  NullBackend backend;
  Machine m(kMem, &backend);
  m.LoadImage(Assemble(R"(
    jmp main
    jmp irqh
irqh:
    addi r6, 1
    iret
main:
    movi r6, 0
    di
    addi r7, 1
    addi r7, 1
    ei
loop:
    addi r7, 1
    jmp loop
  )"));
  m.Run(3);  // Still before EI.
  m.RaiseIrq(kIrqInput);
  EXPECT_EQ(m.pending_irqs(), 1u << kIrqInput);
  m.Run(2);  // Executes the remaining pre-EI instructions.
  m.Run(50);
  EXPECT_EQ(m.cpu().regs[6], 1u);  // Taken only after EI.
}

TEST(Machine, NestedIrqMaskedUntilIret) {
  NullBackend backend;
  Machine m(kMem, &backend);
  m.LoadImage(Assemble(R"(
    jmp main
    jmp irqh
irqh:
    addi r6, 1
    iret
main:
    movi r6, 0
    ei
loop:
    addi r7, 1
    jmp loop
  )"));
  m.Run(10);
  m.RaiseIrq(kIrqNetRx);
  m.Run(1);  // Takes the IRQ; handler starts, interrupts now disabled.
  m.RaiseIrq(kIrqInput);
  EXPECT_NE(m.pending_irqs(), 0u);  // Second IRQ stays pending.
  m.Run(100);                       // Handler finishes; pending IRQ taken.
  EXPECT_EQ(m.cpu().regs[6], 2u);
  EXPECT_EQ(m.pending_irqs(), 0u);
}

TEST(Machine, PortInOutReachBackend) {
  class Recorder : public DeviceBackend {
   public:
    uint32_t PortIn(Machine&, uint16_t port) override {
      ins.push_back(port);
      return 77;
    }
    void PortOut(Machine&, uint16_t port, uint32_t value) override {
      outs.emplace_back(port, value);
    }
    std::vector<uint16_t> ins;
    std::vector<std::pair<uint16_t, uint32_t>> outs;
  };
  Recorder backend;
  Machine m(kMem, &backend);
  m.LoadImage(Assemble(R"(
    in r1, CLOCK_LO
    out r1, DEBUG
    halt
  )"));
  m.Run(10);
  ASSERT_EQ(backend.ins.size(), 1u);
  EXPECT_EQ(backend.ins[0], kPortClockLo);
  ASSERT_EQ(backend.outs.size(), 1u);
  EXPECT_EQ(backend.outs[0], std::make_pair(kPortDebug, 77u));
}

TEST(Machine, BadMemSizeRejected) {
  NullBackend backend;
  EXPECT_THROW(Machine(1000, &backend), std::invalid_argument);       // Not page aligned.
  EXPECT_THROW(Machine(2 * kPageSize, &backend), std::invalid_argument);  // Too small for NIC.
}

TEST(Machine, EncodeDecodeRoundTrip) {
  for (Op op : {Op::kAdd, Op::kLw, Op::kBeq, Op::kIn, Op::kJal}) {
    uint32_t w = Encode(op, 3, 12, 0xbeef);
    Insn in = Decode(w);
    EXPECT_EQ(in.op, op);
    EXPECT_EQ(in.ra, 3);
    EXPECT_EQ(in.rb, 12);
    EXPECT_EQ(in.imm, 0xbeef);
  }
}

TEST(Machine, SImmSignExtension) {
  Insn in = Decode(Encode(Op::kAddi, 1, 0, 0xffff));
  EXPECT_EQ(in.SImm(), -1);
}

// Regression: the bounds checks used `addr + 4 > mem_.size()`, which
// wraps for addr >= 0xFFFFFFFC and waved the access through into an
// out-of-bounds memcpy.
TEST(Machine, HostMem32BoundsCheckDoesNotWrap) {
  NullBackend backend;
  Machine m(kMem, &backend);
  EXPECT_THROW(m.ReadMem32(0xFFFFFFFCu), std::out_of_range);
  EXPECT_THROW(m.WriteMem32(0xFFFFFFFCu, 1), std::out_of_range);
  EXPECT_THROW(m.ReadMem32(0xFFFFFFF8u), std::out_of_range);
}

TEST(Machine, GuestMem32AtTopOfAddressSpaceFaults) {
  for (const char* op : {"lw r2, [r1]", "sw r2, [r1]"}) {
    for (bool jit : {false, true}) {
      NullBackend backend;
      Machine m(kMem, &backend);
      m.set_jit_enabled(jit);
      m.LoadImage(Assemble(std::string("la r1, 0xFFFFFFFC\n ") + op + "\n halt"));
      EXPECT_EQ(m.Run(10), RunExit::kFault) << op << " jit=" << jit;
      EXPECT_TRUE(m.faulted());
    }
  }
}

// --- Fast path vs reference equivalence --------------------------------
//
// The fast path (the JIT, guided by the image analysis) must retire
// bit-for-bit the architectural state of the reference Step() loop,
// which runs with set_jit_enabled(false). On builds without the JIT both
// machines run the reference loop and the sweeps check determinism.

// How a sweep puts the guest into memory. kImage is LoadImage, which the
// JIT analyzes; kSnapshot writes the same bytes as a snapshot restore
// does, so the JIT translates without analysis hints.
enum class Load { kImage, kSnapshot };

// Runs the same image on both paths in lockstep quanta and compares the
// full architectural state, fault status and memory.
void ExpectBothPathsAgree(const Bytes& image, const std::vector<uint64_t>& quanta,
                          const std::vector<std::pair<int, uint32_t>>& irqs_at_quantum = {},
                          bool harden_wx = false, Load load = Load::kImage) {
  NullBackend b0, b1;
  Machine fast(kMem, &b0), slow(kMem, &b1);
  fast.set_jit_harden_wx(harden_wx);
  slow.set_jit_enabled(false);
  for (Machine* m : {&fast, &slow}) {
    if (load == Load::kImage) {
      m->LoadImage(image);
    } else {
      m->WriteMemRange(0, image);
    }
  }
  for (size_t q = 0; q < quanta.size(); q++) {
    for (const auto& [at, cause] : irqs_at_quantum) {
      if (static_cast<size_t>(at) == q) {
        fast.RaiseIrq(cause);
        slow.RaiseIrq(cause);
      }
    }
    RunExit ef = fast.Run(quanta[q]);
    RunExit es = slow.Run(quanta[q]);
    ASSERT_EQ(ef, es) << "exit differs at quantum " << q;
    ASSERT_TRUE(fast.cpu() == slow.cpu()) << "cpu state differs at quantum " << q;
    ASSERT_EQ(fast.faulted(), slow.faulted());
    ASSERT_EQ(fast.fault_reason(), slow.fault_reason());
    ASSERT_EQ(fast.ReadMemRange(0, kMem), slow.ReadMemRange(0, kMem))
        << "memory differs at quantum " << q;
  }
}

TEST(MachineEquivalence, SelfModifyingCodeAgrees) {
  // The guest overwrites the instruction at `patch:` (addi r1, 1 ->
  // addi r1, 5) after 3 loop iterations, then keeps running it; a stale
  // translation would keep executing the old increment.
  Bytes image = Assemble(R"(
    movi r1, 0
    movi r2, 0
    la r3, patch
    la r4, 10
loop:
patch:
    addi r1, 1
    addi r2, 1
    movi r5, 3
    bne r2, r5, cont
    la r6, 0x2b100005   ; addi r1, 5 (opcode 0x2b, ra=1, imm=5)
    sw r6, [r3]
cont:
    bne r2, r4, loop
    halt
  )");
  ExpectBothPathsAgree(image, {5, 7, 200});
  // And the final value proves the rewrite took effect: 3 iterations of
  // +1, then 7 of +5.
  NullBackend b;
  Machine m(kMem, &b);
  m.LoadImage(image);
  m.Run(1000);
  EXPECT_EQ(m.cpu().regs[1], 3u + 7u * 5u);
}

TEST(MachineEquivalence, IrqHeavyExecutionAgrees) {
  Bytes image = Assemble(R"(
    jmp main
    jmp irqh
irqh:
    in r5, IRQ_CAUSE
    add r6, r5
    iret
main:
    movi r6, 0
    ei
loop:
    addi r7, 1
    jmp loop
  )");
  std::vector<uint64_t> quanta(40, 13);  // Odd quantum: IRQs land mid-loop.
  std::vector<std::pair<int, uint32_t>> irqs;
  for (int q = 0; q < 40; q += 3) {
    irqs.emplace_back(q, q % 2 == 0 ? kIrqNetRx : kIrqInput);
  }
  ExpectBothPathsAgree(image, quanta, irqs);
}

TEST(MachineEquivalence, RandomProgramSweepAgrees) {
  // Random instruction soup: mostly valid opcodes (including stores that
  // hit the program's own pages), some garbage. Every program must
  // retire identically on both paths, faults and all.
  constexpr uint8_t kOps[] = {0x00, 0x01, 0x10, 0x11, 0x12, 0x13, 0x20, 0x21, 0x22, 0x23,
                              0x24, 0x25, 0x26, 0x27, 0x28, 0x29, 0x2a, 0x2b, 0x2c, 0x2d,
                              0x30, 0x31, 0x32, 0x33, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45,
                              0x46, 0x47, 0x48, 0x49, 0x60, 0x61, 0x62, 0xee};
  Prng rng(20260726);
  for (int prog = 0; prog < 40; prog++) {
    Bytes image;
    for (int i = 0; i < 1024; i++) {
      uint8_t op = kOps[rng.Next() % (sizeof(kOps) - (prog % 2 ? 0 : 1))];
      uint16_t imm = static_cast<uint16_t>(rng.Next());
      if (op == 0x31 || op == 0x33) {
        imm &= 0x0fff;  // Keep most stores in-range so they actually land.
      }
      PutU32(image, Encode(static_cast<Op>(op), static_cast<uint8_t>(rng.Next() % 16),
                           static_cast<uint8_t>(rng.Next() % 16), imm));
    }
    ExpectBothPathsAgree(image, {257, 1000, 1});
  }
}

// --- JIT tier edges ----------------------------------------------------
//
// The translator's own edges, each checked against the reference loop
// with ExpectBothPathsAgree: icount landmarks inside a translated block,
// page invalidation, the unhinted translator and the W^X cache mode.

constexpr char kJitHotLoop[] = R"(
    movi r1, 0
    movi r2, 2000
loop:
    addi r1, 1
    add r3, r1
    xor r4, r3
    slt r5, r4
    bne r1, r2, loop
    halt
)";

TEST(MachineJit, HotLoopMatchesInterpreterAtOddQuanta) {
  if (!Machine::JitCompiledIn()) GTEST_SKIP() << "JIT not compiled in";
  // Quanta chosen so landmarks land at every offset inside the 5-insn
  // translated block, including repeated single-step stops.
  std::vector<uint64_t> quanta = {1, 3, 257, 64, 1000, 1, 1, 1, 2, 5000, 7, 4000};
  ExpectBothPathsAgree(Assemble(kJitHotLoop), quanta);
}

TEST(MachineJit, MidBlockIcountStopIsExact) {
  if (!Machine::JitCompiledIn()) GTEST_SKIP() << "JIT not compiled in";
  // A long straight-line block: RunUntilIcount must stop exactly at
  // every interior landmark, never retiring past it.
  std::string body = "movi r1, 0\nloop:\n";
  for (int i = 0; i < 30; i++) {
    body += "addi r1, 1\n";
  }
  body += "jmp loop\n";
  NullBackend b;
  Machine m(kMem, &b);
  m.LoadImage(Assemble(body));
  for (uint64_t step = 1; m.cpu().icount < 400; step = step % 7 + 1) {
    uint64_t target = m.cpu().icount + step;
    ASSERT_EQ(m.RunUntilIcount(target), RunExit::kIcountReached);
    ASSERT_EQ(m.cpu().icount, target);
  }
  ExpectBothPathsAgree(Assemble(body), std::vector<uint64_t>(100, 1));
}

TEST(MachineJit, SelfModifyingCodeInvalidatesTranslations) {
  if (!Machine::JitCompiledIn()) GTEST_SKIP() << "JIT not compiled in";
  // The guest rewrites its own hot loop after it has been translated;
  // the write must drop the stale native code via the per-page seam.
  Bytes image = Assemble(R"(
    movi r1, 0
    movi r2, 0
    la r3, patch
    la r4, 200
loop:
patch:
    addi r1, 1
    addi r2, 1
    movi r5, 100
    bne r2, r5, cont
    la r6, 0x2b100005   ; addi r1, 5
    sw r6, [r3]
cont:
    bne r2, r4, loop
    halt
  )");
  ExpectBothPathsAgree(image, {50, 301, 99, 2000});

  NullBackend b;
  Machine m(kMem, &b);
  m.LoadImage(image);
  m.Run(10000);
  EXPECT_EQ(m.cpu().regs[1], 100u + 100u * 5u);
  const jit::JitStats* stats = m.jit_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->translations, 0u);
  EXPECT_GT(stats->pages_invalidated, 0u);
  EXPECT_GT(stats->blocks_invalidated, 0u);
}

TEST(MachineJit, PageStraddlingTerminatorInvalidates) {
  if (!Machine::JitCompiledIn()) GTEST_SKIP() << "JIT not compiled in";
  // The hot loop's body ends just before a page boundary, so the
  // terminating bne is the *first word of the next page* while the
  // block head sits on the previous one. The branch condition/target
  // are baked into the translation, so the block's span must cover the
  // terminator's page: the guest overwrites the bne (loop-to-100 via
  // r4 becomes loop-to-10 via r5) and the stale block must be dropped.
  const uint32_t patched = Encode(Op::kBne, 2, 5, 0xfffd);  // bne r2, r5, loop
  const std::string src =
      "    movi r1, 0\n"
      "    movi r2, 0\n"
      "    movi r5, 10\n"
      "    movi r8, 0\n"
      "    la r3, patch\n"
      "    la r4, 100\n"
      "    la r7, " + std::to_string(patched) + "\n"
      "    jmp loop\n"
      "    .org 0x0ff8\n"
      "loop:\n"
      "    addi r1, 1\n"
      "    addi r2, 1\n"
      "patch:\n"                    // patch == 0x1000, page-aligned.
      "    bne r2, r4, loop\n"
      "    bne r8, r9, done\n"
      "    movi r8, 1\n"
      "    sw r7, [r3]\n"
      "    movi r2, 0\n"
      "    jmp loop\n"
      "done:\n"
      "    halt\n";
  Bytes image = Assemble(src);
  ExpectBothPathsAgree(image, {50, 120, 57, 1000, 1000});

  NullBackend b;
  Machine m(kMem, &b);
  m.LoadImage(image);
  m.Run(10000);
  EXPECT_EQ(m.cpu().regs[1], 110u);  // 100 iterations, then 10 patched ones.
  const jit::JitStats* stats = m.jit_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->translations, 0u);
  EXPECT_GT(stats->blocks_invalidated, 0u);
}

TEST(MachineJit, PageAlignedSingleJumpBlockInvalidates) {
  if (!Machine::JitCompiledIn()) GTEST_SKIP() << "JIT not compiled in";
  // A block that is nothing but one jmp at a page-aligned pc: its span
  // is exactly the terminator, so a zero span would register it on no
  // page at all. The guest retargets the trampoline after it is hot;
  // the stale translation would bounce to the old loop forever.
  const uint32_t retarget =
      Encode(Op::kJmp, 0, 0, (0x2200 - 0x2004) / 4);  // jmp done, from tramp
  const std::string src =
      "    movi r1, 0\n"
      "    movi r2, 0\n"
      "    la r3, tramp\n"
      "    la r4, 100\n"
      "    la r7, " + std::to_string(retarget) + "\n"
      "    jmp loop\n"
      "    .org 0x2000\n"
      "tramp:\n"
      "    jmp loop\n"
      "    .org 0x2100\n"
      "loop:\n"
      "    addi r1, 1\n"
      "    addi r2, 1\n"
      "    bne r2, r4, tramp\n"
      "    sw r7, [r3]\n"
      "    movi r2, 0\n"
      "    jmp tramp\n"
      "    .org 0x2200\n"
      "done:\n"
      "    halt\n";
  Bytes image = Assemble(src);
  ExpectBothPathsAgree(image, {150, 77, 1000, 1000});

  NullBackend b;
  Machine m(kMem, &b);
  m.LoadImage(image);
  m.Run(10000);
  EXPECT_EQ(m.cpu().regs[1], 100u);
  EXPECT_FALSE(m.faulted());
  const jit::JitStats* stats = m.jit_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->blocks_invalidated, 0u);
}

TEST(MachineJit, RandomProgramSweepUnhintedAgrees) {
  if (!Machine::JitCompiledIn()) GTEST_SKIP() << "JIT not compiled in";
  // The same soup written into memory as a snapshot restore does: no
  // image is loaded, so the JIT translates without analysis hints, the
  // way it does for every replay started from a snapshot.
  constexpr uint8_t kOps[] = {0x00, 0x01, 0x10, 0x11, 0x12, 0x13, 0x20, 0x21, 0x22, 0x23,
                              0x24, 0x25, 0x26, 0x27, 0x28, 0x29, 0x2a, 0x2b, 0x2c, 0x2d,
                              0x30, 0x31, 0x32, 0x33, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45,
                              0x46, 0x47, 0x48, 0x49, 0x60, 0x61, 0x62, 0xee};
  Prng rng(20260807);
  for (int prog = 0; prog < 16; prog++) {
    Bytes image;
    for (int i = 0; i < 1024; i++) {
      uint8_t op = kOps[rng.Next() % (sizeof(kOps) - (prog % 2 ? 0 : 1))];
      uint16_t imm = static_cast<uint16_t>(rng.Next());
      if (op == 0x31 || op == 0x33) {
        imm &= 0x0fff;
      }
      PutU32(image, Encode(static_cast<Op>(op), static_cast<uint8_t>(rng.Next() % 16),
                           static_cast<uint8_t>(rng.Next() % 16), imm));
    }
    ExpectBothPathsAgree(image, {257, 1000, 1, 3}, {}, false, Load::kSnapshot);
  }
}

TEST(MachineJit, HardenedWxModeAgrees) {
  if (!Machine::JitCompiledIn()) GTEST_SKIP() << "JIT not compiled in";
  ExpectBothPathsAgree(Assemble(kJitHotLoop), {257, 5000, 1, 4000},
                              /*irqs_at_quantum=*/{}, /*harden_wx=*/true);
}

TEST(MachineJit, IretHeadedHandlerAgrees) {
  // The handler's first instruction is IRET, a head the JIT can never
  // translate: the dispatcher must keep interpreting it (without a
  // compile attempt per visit) and agree with the reference 1000 times.
  Bytes image = Assemble(R"(
    jmp main
    jmp irqh
irqh:
    iret
main:
    movi r6, 0
    ei
loop:
    addi r7, 1
    add r6, r7
    jmp loop
  )");
  std::vector<uint64_t> quanta(1000, 13);
  std::vector<std::pair<int, uint32_t>> irqs;
  for (int q = 0; q < 1000; q++) {
    irqs.emplace_back(q, q % 2 == 0 ? kIrqNetRx : kIrqTimer);
  }
  ExpectBothPathsAgree(image, quanta, irqs);
}

// --- IN/OUT helper calls ----------------------------------------------
//
// IN/OUT run inside translated code as helper calls. This backend gives
// each IN port a side effect that must send native code back to the
// dispatcher, and logs every call with the machine state it saw.

struct PortCall {
  bool in;
  uint16_t port;
  uint32_t value;
  uint64_t icount;
  uint32_t pc;
  bool operator==(const PortCall& o) const {
    return in == o.in && port == o.port && value == o.value && icount == o.icount && pc == o.pc;
  }
};

constexpr uint32_t kScriptedData = 0x0800;  // A data word on the code's page.

class ScriptedBackend : public DeviceBackend {
 public:
  uint32_t PortIn(Machine& m, uint16_t port) override {
    calls.push_back({true, port, 0, m.cpu().icount, m.cpu().pc});
    const uint32_t n = static_cast<uint32_t>(calls.size());
    switch (port) {
      case kPortClockLo:
        m.mutable_cpu().icount += 37;  // A §6.5 stall inside the IN.
        break;
      case kPortInput:
        if (++input_reads % 2 == 0) {
          m.RaiseIrq(kIrqInput);  // Deliverable: the guest runs with EI.
        }
        break;
      case kPortRand:
        m.WriteMem32(kScriptedData, n);  // The running region's page.
        break;
      case kPortNetRxLen:
        if (++rxlen_reads % 17 == 0) {
          throw std::runtime_error("backend crash");
        }
        break;
      default:
        break;
    }
    return n * 2654435761u;
  }
  void PortOut(Machine& m, uint16_t port, uint32_t value) override {
    calls.push_back({false, port, value, m.cpu().icount, m.cpu().pc});
    if (port == kPortFrame && calls.size() > 600) {
      m.mutable_cpu().halted = true;
    }
  }

  std::vector<PortCall> calls;
  int input_reads = 0;
  int rxlen_reads = 0;
};

TEST(MachineJit, ScriptedBackendInAgrees) {
  Bytes image = Assemble(R"(
    jmp main
    jmp irqh
irqh:
    in r5, IRQ_CAUSE
    add r6, r5
    iret
main:
    movi r0, 0
    movi r6, 0
    la r9, 0x0800
    ei
loop:
    addi r7, 1
    in r1, CLOCK_LO     ; Stalls: icount jumps inside the IN.
    add r2, r1
    in r3, INPUT        ; Raises a deliverable IRQ every second read.
    add r2, r3
    out r2, DEBUG
    in r4, RAND         ; Writes a word on this code page.
    lw r8, [r9]
    add r2, r8
    in r10, NET_RXLEN   ; Throws on every 17th read.
    movi r11, 20
spin:
    addi r11, -1
    bne r11, r0, spin
    out r2, FRAME       ; Halts the machine eventually.
    jmp loop
    .org 0x0800
    .word 0
  )");
  ScriptedBackend b0, b1;
  Machine fast(kMem, &b0), slow(kMem, &b1);
  slow.set_jit_enabled(false);
  fast.LoadImage(image);
  slow.LoadImage(image);
  constexpr uint64_t kQuanta[] = {7, 64, 301, 1, 1000, 13};
  int throws = 0;
  for (int q = 0; q < 5000 && !slow.cpu().halted; q++) {
    bool threw[2] = {false, false};
    Machine* ms[2] = {&fast, &slow};
    RunExit ex[2] = {RunExit::kIcountReached, RunExit::kIcountReached};
    for (int i = 0; i < 2; i++) {
      try {
        ex[i] = ms[i]->Run(kQuanta[q % 6]);
      } catch (const std::runtime_error&) {
        threw[i] = true;
      }
    }
    ASSERT_EQ(threw[0], threw[1]) << "quantum " << q;
    throws += threw[1] ? 1 : 0;
    if (!threw[1]) {
      ASSERT_EQ(ex[0], ex[1]) << "quantum " << q;
    }
    ASSERT_TRUE(fast.cpu() == slow.cpu()) << "cpu state differs at quantum " << q;
    ASSERT_EQ(fast.ReadMemRange(0, kMem), slow.ReadMemRange(0, kMem)) << "quantum " << q;
    ASSERT_TRUE(b0.calls == b1.calls) << "backend calls differ at quantum " << q;
  }
  EXPECT_TRUE(slow.cpu().halted);
  EXPECT_GE(throws, 3);
  if (Machine::JitCompiledIn()) {
    const jit::JitStats* st = fast.jit_stats();
    ASSERT_NE(st, nullptr);
    EXPECT_GT(st->io_calls, 0u);
    for (jit::IoExit why : {jit::IoExit::kIrq, jit::IoExit::kIcount, jit::IoExit::kInvalidate,
                            jit::IoExit::kHaltFault, jit::IoExit::kException}) {
      EXPECT_GT(st->io_exits[static_cast<int>(why)], 0u) << static_cast<int>(why);
    }
  }
}

// --- Self-loops held in host registers ---------------------------------
//
// A region whose chain successor is its own head runs its back edge in
// place with guest registers in host registers. Every way out must
// write them back: the back edge's budget failure (checked by stopping
// at every offset), fault and self-modification exits.

// Runs fresh machine pairs to warmup + k for every k across three loop
// iterations (one RunUntilIcount each, so the native loop itself meets
// the landmark), then on to completion, comparing at both stops.
void ExpectLoopAgreesAtEveryOffset(const Bytes& image, uint64_t warmup, uint64_t body_len) {
  for (uint64_t k = 0; k <= 3 * body_len; k++) {
    NullBackend b0, b1;
    Machine fast(kMem, &b0), slow(kMem, &b1);
    slow.set_jit_enabled(false);
    fast.LoadImage(image);
    slow.LoadImage(image);
    for (uint64_t target : {warmup + k, warmup + k + 200000}) {
      ASSERT_EQ(fast.RunUntilIcount(target), slow.RunUntilIcount(target)) << "offset " << k;
      ASSERT_TRUE(fast.cpu() == slow.cpu()) << "offset " << k << " target " << target;
      ASSERT_EQ(fast.faulted(), slow.faulted());
      ASSERT_EQ(fast.fault_reason(), slow.fault_reason());
      ASSERT_EQ(fast.ReadMemRange(0, kMem), slow.ReadMemRange(0, kMem)) << "offset " << k;
    }
    if (k == 0 && Machine::JitCompiledIn()) {
      ASSERT_NE(fast.jit_stats(), nullptr);
      EXPECT_GT(fast.jit_stats()->loop_regions, 0u) << "the loop never ran in registers";
    }
  }
}

TEST(MachineJit, SelfLoopStopsExactlyAtEveryOffset) {
  Bytes image = Assemble(R"(
    movi r1, 0
    movi r2, 300
    movi r3, 7
loop:
    addi r1, 1
    add r3, r1
    xor r4, r3
    mul r4, r3
    sub r5, r4
    bne r1, r2, loop
    halt
  )");
  ExpectLoopAgreesAtEveryOffset(image, 40, 6);
  std::vector<uint64_t> quanta = {40, 1, 1, 1, 2, 3, 5, 7, 11, 6, 6, 100, 1, 1000};
  ExpectBothPathsAgree(image, quanta);
  ExpectBothPathsAgree(image, quanta, {}, false, Load::kSnapshot);
}

TEST(MachineJit, SelfLoopLoadFaultsOnIterationK) {
  // r3 walks up to the end of memory: the LW faults on iteration 12,
  // after the loop is running natively with r3 in a host register.
  Bytes image = Assemble(R"(
    movi r1, 0
    movi r2, 0
    la r3, 0xFFD0
loop:
    lw r4, [r3]
    add r2, r4
    addi r3, 4
    addi r1, 1
    jmp loop
  )");
  ExpectLoopAgreesAtEveryOffset(image, 20, 5);
  NullBackend b;
  Machine m(kMem, &b);
  m.LoadImage(image);
  EXPECT_EQ(m.Run(10000), RunExit::kFault);
  EXPECT_EQ(m.cpu().regs[1], 12u);
  EXPECT_EQ(m.cpu().regs[3], 0x10000u);
}

TEST(MachineJit, SelfLoopStoresIntoItsOwnPage) {
  Bytes image = Assemble(R"(
    movi r1, 0
    movi r2, 50
    la r6, 0x0200
loop:
    addi r1, 1
    sw r1, [r6]
    add r7, r1
    bne r1, r2, loop
    halt
    .org 0x0200
    .word 0
  )");
  ExpectLoopAgreesAtEveryOffset(image, 20, 4);
  ExpectBothPathsAgree(image, {20, 1, 3, 7, 1000});
}

TEST(MachineJit, SelfLoopTouchingElevenRegisters) {
  // More guest registers than host registers: seven are held, the rest
  // stay in the register file, and both kinds must come out right.
  Bytes image = Assemble(R"(
    movi r1, 0
    la r11, 500
loop:
    addi r1, 1
    add r2, r1
    add r3, r2
    add r4, r3
    add r5, r4
    add r6, r5
    add r7, r6
    add r8, r7
    add r9, r8
    add r10, r9
    bne r1, r11, loop
    halt
  )");
  ExpectLoopAgreesAtEveryOffset(image, 40, 11);
  ExpectBothPathsAgree(image, {40, 1, 2, 10, 11, 12, 5000});
}

TEST(MachineJit, SelfLoopDivideByZeroAndShifts) {
  // DIVU/REMU by zero every fourth iteration and shift amounts past 31,
  // with the operands in host registers.
  Bytes image = Assemble(R"(
    movi r1, 0
    la r2, 400
    la r3, 0x12345678
loop:
    addi r1, 1
    mov r4, r3
    movi r5, 3
    and r5, r1
    divu r4, r5
    mov r6, r3
    remu r6, r5
    mov r7, r1
    shl r3, r7
    shr r4, r7
    sra r6, r7
    xor r3, r4
    xor r3, r6
    addi r3, 1
    bne r1, r2, loop
    halt
  )");
  ExpectLoopAgreesAtEveryOffset(image, 60, 15);
  ExpectBothPathsAgree(image, {60, 1, 14, 15, 16, 10000});
}

TEST(MachineJit, DisableMidRunStaysEquivalent) {
  if (!Machine::JitCompiledIn()) GTEST_SKIP() << "JIT not compiled in";
  // Translations stay live while the JIT is off, so the reference loop's
  // stores must drop the ones they overwrite: the patching guest rewrites
  // its hot loop during an off quantum.
  const Bytes patching = Assemble(R"(
    movi r1, 0
    movi r2, 0
    la r3, patch
    la r4, 3000
loop:
patch:
    addi r1, 1
    addi r2, 1
    movi r5, 760        ; Patched inside the off quantum [3505, 4206).
    bne r2, r5, cont
    la r6, 0x2b100005   ; addi r1, 5
    sw r6, [r3]
cont:
    bne r2, r4, loop
    halt
  )");
  for (const Bytes& image : {Assemble(kJitHotLoop), patching}) {
    NullBackend b0, b1;
    Machine toggled(kMem, &b0), interp(kMem, &b1);
    interp.set_jit_enabled(false);
    toggled.LoadImage(image);
    interp.LoadImage(image);
    for (int q = 0; q < 12; q++) {
      toggled.set_jit_enabled(q % 3 != 2);  // On, on, off, on, on, off...
      toggled.Run(701);
      interp.Run(701);
      ASSERT_TRUE(toggled.cpu() == interp.cpu()) << "quantum " << q;
      ASSERT_EQ(toggled.ReadMemRange(0, kMem), interp.ReadMemRange(0, kMem));
    }
    EXPECT_FALSE(toggled.faulted());
  }
}

}  // namespace
}  // namespace avm
