// Tests for the static binary analysis layer (src/vm/analysis): CFG
// recovery, the image verifier, and the consumers that ride on it —
// analysis-guided JIT translation (bit-identical to the interpreter by
// construction) and the AuditConfig::verify_image pre-audit pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/apps/game.h"
#include "src/audit/replayer.h"
#include "src/obs/metrics.h"
#include "src/sim/scenario.h"
#include "src/util/prng.h"
#include "src/vm/analysis/analysis.h"
#include "src/vm/assembler.h"
#include "src/vm/jit/jit.h"
#include "src/vm/machine.h"

namespace avm {
namespace {

using analysis::BasicBlock;
using analysis::BlockEnd;
using analysis::Cfg;
using analysis::FindingKind;
using analysis::Severity;

constexpr size_t kMem = 64 * 1024;

bool HasFinding(const analysis::VerifyReport& rep, FindingKind kind) {
  for (const analysis::Finding& f : rep.findings) {
    if (f.kind == kind) {
      return true;
    }
  }
  return false;
}

// --- CFG recovery ------------------------------------------------------

TEST(CfgRecovery, DiamondBlocksAndEdges) {
  // Conventional vector header: word 0 is the reset vector, word 4 the
  // IRQ vector (BuildCfg always seeds both as entry-like heads).
  Bytes image = Assemble(R"(
    jmp main
    jmp main
main:
    movi r1, 3
    beq r1, r2, equal
    add r3, r1
    jmp join
equal:
    add r3, r2
join:
    halt
  )");
  Cfg cfg = analysis::BuildCfg(image);
  ASSERT_EQ(cfg.blocks.size(), 6u);

  const BasicBlock* reset = cfg.BlockAt(0x00);
  const BasicBlock* irq = cfg.BlockAt(0x04);
  const BasicBlock* main_bb = cfg.BlockAt(0x08);
  const BasicBlock* then_bb = cfg.BlockAt(0x10);
  const BasicBlock* else_bb = cfg.BlockAt(0x18);
  const BasicBlock* join = cfg.BlockAt(0x1c);
  ASSERT_NE(reset, nullptr);
  ASSERT_NE(irq, nullptr);
  ASSERT_NE(main_bb, nullptr);
  ASSERT_NE(then_bb, nullptr);
  ASSERT_NE(else_bb, nullptr);
  ASSERT_NE(join, nullptr);

  EXPECT_TRUE(reset->entry_like);
  EXPECT_TRUE(irq->entry_like);
  EXPECT_FALSE(main_bb->entry_like);

  EXPECT_EQ(main_bb->terminator, BlockEnd::kBranch);
  EXPECT_EQ(main_bb->insn_count(), 2u);
  EXPECT_EQ(then_bb->terminator, BlockEnd::kJump);
  EXPECT_EQ(else_bb->terminator, BlockEnd::kSplit);  // Falls into join.
  EXPECT_EQ(join->terminator, BlockEnd::kHalt);

  EXPECT_EQ(main_bb->preds, (std::vector<uint32_t>{reset->id, irq->id}));  // Both stubs.
  EXPECT_EQ(then_bb->preds, std::vector<uint32_t>{main_bb->id});
  EXPECT_EQ(else_bb->preds, std::vector<uint32_t>{main_bb->id});
  EXPECT_EQ(join->preds, (std::vector<uint32_t>{then_bb->id, else_bb->id}));
  EXPECT_TRUE(reset->preds.empty());

  // Every word is reachable code.
  for (uint32_t a = 0; a < image.size(); a += 4) {
    EXPECT_TRUE(cfg.IsCodeWord(a)) << "word at " << a;
  }
}

TEST(CfgRecovery, CallReturnSitesAreEntryLike) {
  Bytes image = Assemble(R"(
    jal r15, fn
    halt
fn:
    addi r1, 1
    jr r15
  )");
  Cfg cfg = analysis::BuildCfg(image);
  // The word after the JAL must be a block head, marked entry-like
  // (its JR is indirect and cannot be resolved statically).
  const BasicBlock* ret_site = cfg.BlockAt(0x04);
  ASSERT_NE(ret_site, nullptr);
  EXPECT_TRUE(ret_site->entry_like);
  // The callee's JR ends an indirect block with no known successors.
  const BasicBlock* callee = cfg.BlockAt(0x08);
  ASSERT_NE(callee, nullptr);
  EXPECT_EQ(callee->terminator, BlockEnd::kIndirect);
  for (const BasicBlock& b : cfg.blocks) {
    EXPECT_EQ(std::count(b.preds.begin(), b.preds.end(), callee->id), 0) << "block " << b.id;
  }
}

TEST(CfgRecovery, DataWordsAfterHaltAreNotCode) {
  Bytes image = Assemble(R"(
    movi r1, 1
    halt
  )");
  PutU32(image, 0xdeadbeef);  // Data tail: unreachable, not code.
  PutU32(image, 0x00000000);
  Cfg cfg = analysis::BuildCfg(image);
  EXPECT_TRUE(cfg.IsCodeWord(0x00));
  EXPECT_TRUE(cfg.IsCodeWord(0x04));
  EXPECT_FALSE(cfg.IsCodeWord(0x08));
  EXPECT_FALSE(cfg.IsCodeWord(0x0c));
}

// --- Image verifier ----------------------------------------------------

TEST(Verifier, CleanProgramHasNoFindings) {
  Bytes image = Assemble(R"(
    movi r1, 0
    movi r2, 10
loop:
    addi r1, 1
    bne r1, r2, loop
    halt
  )");
  analysis::VerifyReport rep = analysis::AnalyzeImage(image, kMem).report;
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.errors, 0);
  EXPECT_EQ(rep.warnings, 0);
  EXPECT_TRUE(rep.findings.empty());
}

TEST(Verifier, ReachableIllegalOpcodeIsAnError) {
  Bytes image = Assemble("movi r1, 1\nmovi r2, 2\n");
  PutU32(image, 0xee000000);  // Undecodable opcode on the only path.
  analysis::VerifyReport rep = analysis::AnalyzeImage(image, kMem).report;
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(HasFinding(rep, FindingKind::kIllegalOpcode));
}

TEST(Verifier, JumpOutOfImageIsAnError) {
  Bytes image;
  PutU32(image, Encode(Op::kJmp, 0, 0, 4096));  // Way past the image end.
  analysis::VerifyReport rep = analysis::AnalyzeImage(image, kMem).report;
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(HasFinding(rep, FindingKind::kJumpOutOfImage));
}

TEST(Verifier, FallthroughOffImageIsAnError) {
  Bytes image = Assemble("movi r1, 1\naddi r1, 2\n");  // No terminator.
  analysis::VerifyReport rep = analysis::AnalyzeImage(image, kMem).report;
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(HasFinding(rep, FindingKind::kFallthroughOffImage));
}

TEST(Verifier, StaticallyOobStoreIsAnError) {
  Bytes image = Assemble(R"(
    jmp main
    jmp main
main:
    la r1, 0x40000000
    sw r2, [r1]
    halt
  )");
  analysis::VerifyReport rep = analysis::AnalyzeImage(image, kMem).report;
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(HasFinding(rep, FindingKind::kOobStaticAccess));
}

TEST(Verifier, StoreToCodeIsAWarningAndArmsSelfmodPage) {
  Bytes image = Assemble(R"(
    jmp main
    jmp main
main:
    la r3, patch
    la r6, 0x2b100005
    sw r6, [r3]
patch:
    addi r1, 1
    halt
  )");
  analysis::VerifyReport rep = analysis::AnalyzeImage(image, kMem).report;
  EXPECT_TRUE(rep.ok()) << "self-modifying code is legal: a warning, not an error";
  EXPECT_GT(rep.warnings, 0);
  EXPECT_TRUE(HasFinding(rep, FindingKind::kStoreToCode));
  ASSERT_FALSE(rep.selfmod_pages.empty());
  EXPECT_EQ(rep.selfmod_pages[0], 0u);  // patch lives on page 0.
}

TEST(Verifier, UnreachableCodeShapedRunIsAWarning) {
  Bytes image = Assemble(R"(
    movi r1, 1
    halt
    movi r2, 2
    movi r3, 3
    add r2, r3
    halt
  )");
  analysis::VerifyReport rep = analysis::AnalyzeImage(image, kMem).report;
  EXPECT_TRUE(rep.ok());
  EXPECT_TRUE(HasFinding(rep, FindingKind::kUnreachableCode));
  // Classified as unreachable code, not data.
  EXPECT_EQ(rep.words[3], analysis::WordClass::kUnreachableCode);
}

TEST(Verifier, ShippedGuestImagesAreClean) {
  // The same gate CI applies via avm-lint: every builder image must
  // verify with zero errors.
  GameClientParams gc;
  GameServerParams gs;
  for (const Bytes& image : {BuildGameClientImage(gc), BuildGameServerImage(gs)}) {
    analysis::ImageAnalysis ia = analysis::AnalyzeImage(image, 256 * 1024);
    EXPECT_TRUE(ia.report.ok());
    EXPECT_EQ(ia.report.errors, 0);
  }
}

// --- Analysis-guided JIT equivalence -----------------------------------
//
// Lockstep: the analysis-guided JIT vs the reference Step() loop.
// Architectural state must be bit-identical at every quantum boundary
// regardless of fusion/dead-write decisions.

void ExpectGuidedJitAgrees(const Bytes& image, const std::vector<uint64_t>& quanta,
                           const std::vector<std::pair<int, uint32_t>>& irqs_at_quantum = {}) {
  NullBackend b0, b1;
  Machine guided(kMem, &b0), interp(kMem, &b1);
  interp.set_jit_enabled(false);
  guided.LoadImage(image);
  interp.LoadImage(image);
  for (size_t q = 0; q < quanta.size(); q++) {
    for (const auto& [at, cause] : irqs_at_quantum) {
      if (static_cast<size_t>(at) == q) {
        guided.RaiseIrq(cause);
        interp.RaiseIrq(cause);
      }
    }
    RunExit eg = guided.Run(quanta[q]);
    RunExit ei = interp.Run(quanta[q]);
    ASSERT_EQ(eg, ei) << "guided exit differs at quantum " << q;
    ASSERT_TRUE(guided.cpu() == interp.cpu()) << "guided cpu differs at quantum " << q;
    ASSERT_EQ(guided.faulted(), interp.faulted());
    ASSERT_EQ(guided.fault_reason(), interp.fault_reason());
    ASSERT_EQ(guided.ReadMemRange(0, kMem), interp.ReadMemRange(0, kMem))
        << "guided memory differs at quantum " << q;
  }
}

// A hot trampoline: straight-line blocks linked by direct jumps, the
// shape region fusion turns into one translated unit.
constexpr char kTrampolineLoop[] = R"(
    movi r1, 0
    movi r2, 1500
loop:
    addi r1, 1
    jmp a
a:
    add r3, r1
    jmp b
b:
    xor r4, r3
    bne r1, r2, loop
    halt
)";

TEST(AnalysisJit, TrampolineFusionMatchesInterpreter) {
  if (!Machine::JitCompiledIn()) GTEST_SKIP() << "JIT not compiled in";
  // Odd quanta park landmarks at every offset inside the fused region.
  ExpectGuidedJitAgrees(Assemble(kTrampolineLoop), {1, 3, 257, 64, 1000, 1, 1, 2, 5000, 7});
}

TEST(AnalysisJit, FusionHappensOnlyForALoadedImage) {
  if (!Machine::JitCompiledIn()) GTEST_SKIP() << "JIT not compiled in";
  // `unhinted` gets the same bytes the way a snapshot restore writes
  // them: no image is loaded, so nothing is analyzed or fused.
  Bytes image = Assemble(kTrampolineLoop);
  NullBackend b0, b1;
  Machine guided(kMem, &b0), unhinted(kMem, &b1);
  guided.LoadImage(image);
  unhinted.WriteMemRange(0, image);
  guided.Run(20000);
  unhinted.Run(20000);
  ASSERT_NE(guided.jit_stats(), nullptr);
  ASSERT_NE(unhinted.jit_stats(), nullptr);
  EXPECT_GE(guided.jit_stats()->regions_fused, 2u)
      << "loop->a->b should fuse across both direct jumps";
  EXPECT_EQ(unhinted.jit_stats()->regions_fused, 0u);
  EXPECT_TRUE(guided.cpu() == unhinted.cpu());
}

TEST(AnalysisJit, DeadWritebackEliminationKeepsStateExact) {
  if (!Machine::JitCompiledIn()) GTEST_SKIP() << "JIT not compiled in";
  // r1 is written twice back-to-back: the first writeback is provably
  // dead (redefined before any possible exit) and gets elided.
  Bytes image = Assemble(R"(
    movi r2, 1200
loop:
    movi r1, 7
    movi r1, 8
    addi r3, 1
    bne r3, r2, loop
    halt
  )");
  ExpectGuidedJitAgrees(image, {1, 2, 3, 500, 1, 1000, 4, 2500});

  NullBackend b;
  Machine m(kMem, &b);
  m.LoadImage(image);
  m.Run(20000);
  ASSERT_NE(m.jit_stats(), nullptr);
  EXPECT_GT(m.jit_stats()->dead_writes_skipped, 0u);
  EXPECT_EQ(m.cpu().regs[1], 8u);
}

TEST(AnalysisJit, StaticSelfModifyingGuestAgrees) {
  if (!Machine::JitCompiledIn()) GTEST_SKIP() << "JIT not compiled in";
  // The statically-visible patch (la + sw into code) pre-arms the
  // self-mod page, and execution stays bit-identical through the
  // rewrite. Same guest shape as machine_test's self-modifying case.
  Bytes image = Assemble(R"(
    movi r1, 0
    movi r2, 0
    la r3, patch
    la r4, 400
loop:
patch:
    addi r1, 1
    addi r2, 1
    movi r5, 3
    bne r2, r5, cont
    la r6, 0x2b100005   ; addi r1, 5
    sw r6, [r3]
cont:
    bne r2, r4, loop
    halt
  )");
  // The verifier must see the store statically.
  analysis::ImageAnalysis ia = analysis::AnalyzeImage(image, kMem);
  EXPECT_FALSE(ia.report.selfmod_pages.empty());
  ExpectGuidedJitAgrees(image, {5, 7, 200, 1, 3, 5000});
}

TEST(AnalysisJit, IrqHeavyExecutionAgrees) {
  if (!Machine::JitCompiledIn()) GTEST_SKIP() << "JIT not compiled in";
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
    jmp tramp
tramp:
    xor r8, r7
    jmp loop
  )");
  std::vector<uint64_t> quanta(40, 13);
  std::vector<std::pair<int, uint32_t>> irqs;
  for (int q = 0; q < 40; q += 3) {
    irqs.emplace_back(q, q % 2 == 0 ? kIrqNetRx : kIrqInput);
  }
  ExpectGuidedJitAgrees(image, quanta, irqs);
}

TEST(AnalysisJit, RandomProgramSweepAgrees) {
  if (!Machine::JitCompiledIn()) GTEST_SKIP() << "JIT not compiled in";
  // Random instruction soup, including stores into the program's own
  // pages and undecodable opcodes: the guided JIT and the reference
  // loop must retire identically, faults and all.
  constexpr uint8_t kOps[] = {0x00, 0x01, 0x10, 0x11, 0x12, 0x13, 0x20, 0x21, 0x22, 0x23,
                              0x24, 0x25, 0x26, 0x27, 0x28, 0x29, 0x2a, 0x2b, 0x2c, 0x2d,
                              0x30, 0x31, 0x32, 0x33, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45,
                              0x46, 0x47, 0x48, 0x49, 0x60, 0x61, 0x62, 0xee};
  Prng rng(20260807);
  for (int prog = 0; prog < 25; prog++) {
    Bytes image;
    for (int i = 0; i < 1024; i++) {
      uint8_t op = kOps[rng.Next() % (sizeof(kOps) - (prog % 2 ? 0 : 1))];
      uint16_t imm = static_cast<uint16_t>(rng.Next());
      if (op == 0x31 || op == 0x33) {
        imm &= 0x0fff;  // Keep most stores in-range so they land.
      }
      PutU32(image, Encode(static_cast<Op>(op), static_cast<uint8_t>(rng.Next() % 16),
                           static_cast<uint8_t>(rng.Next() % 16), imm));
    }
    ExpectGuidedJitAgrees(image, {257, 1000, 1});
  }
}

// A hot loop closed by JR: every iteration leaves native code through
// a dynamic exit and re-enters its translation through the dispatcher.
constexpr char kJrClosedLoop[] = R"(
    movi r1, 0
    movi r2, 1500
    la r5, loop
loop:
    addi r1, 1
    jmp a
a:
    add r3, r1
    xor r4, r3
    beq r1, r2, done
    jr r5
done:
    halt
)";

TEST(AnalysisJit, CoverageCountersPopulate) {
  if (!Machine::JitCompiledIn()) GTEST_SKIP() << "JIT not compiled in";
  // The avm.jit.* coverage instrumentation that feeds hot_threshold
  // tuning: region-shape histograms at translation time, per-block
  // execution counts retired on invalidation/flush/teardown.
  obs::Registry& reg = obs::Registry::Global();
  obs::Histogram* exec = reg.GetHistogram("avm.jit.block_exec");
  obs::Histogram* insns = reg.GetHistogram("avm.jit.region_insns");
  obs::Histogram* blocks = reg.GetHistogram("avm.jit.region_blocks");
  obs::Counter* loops = reg.GetCounter("avm.jit.loop_regions");
  const uint64_t exec0 = exec->Count();
  const uint64_t exec_sum0 = exec->Sum();
  const uint64_t insns0 = insns->Count();
  const uint64_t blocks0 = blocks->Count();
  {
    NullBackend b;
    Machine m(kMem, &b);
    m.LoadImage(Assemble(kJrClosedLoop));
    m.Run(20000);
  }  // Teardown retires the live blocks' execution counts.
  EXPECT_GT(insns->Count(), insns0);
  EXPECT_GT(blocks->Count(), blocks0);
  EXPECT_GT(exec->Count(), exec0);
  // The hot loop re-enters its translation many times, so the retired
  // execution total far exceeds the number of blocks.
  EXPECT_GT(exec->Sum() - exec_sum0, exec->Count() - exec0);

  // The trampoline loop's fused region chains back to its own head, so
  // it runs as one self-loop in host registers and never re-enters.
  const uint64_t loops0 = loops->Value();
  {
    NullBackend b;
    Machine m(kMem, &b);
    m.LoadImage(Assemble(kTrampolineLoop));
    m.Run(20000);
    ASSERT_NE(m.jit_stats(), nullptr);
    EXPECT_EQ(m.jit_stats()->loop_regions, loops->Value() - loops0);
  }
  EXPECT_GT(loops->Value(), loops0);
}

// --- JIT hint pin --------------------------------------------------------
//
// The analysis hints decide which translations the JIT makes: region
// fusion follows the CFG's block heads, dead writebacks follow the
// local use/def scan, and the verifier's self-modifying pages pre-arm
// the seam. These constants were recorded from fixed-seed replays of
// shipped guests, so an analysis change that alters what the JIT is
// told shows up here even when every lockstep sweep still agrees. None
// of these guests has a dead writeback or a static self-modifying
// store; DeadWritebackEliminationKeepsStateExact and
// StaticSelfModifyingGuestAgrees cover those hints.

struct HintShape {
  uint64_t translations;
  uint64_t regions_fused;
  uint64_t dead_writes_skipped;
  uint64_t loop_regions;
  uint64_t interp_fallbacks;
  uint64_t selfmod_exits;
};

void ExpectReplayHintShape(const Avmm& node, const Bytes& image, const HintShape& want) {
  StreamingReplayer r(image, node.config().mem_size);
  LogSegment seg = node.log().Extract(1, node.log().LastSeq());
  r.Feed(seg.entries);
  ReplayResult res = r.Finish();
  ASSERT_TRUE(res.ok) << node.id() << ": " << res.reason;
  const jit::JitStats* st = r.machine().jit_stats();
  ASSERT_NE(st, nullptr) << node.id();
  EXPECT_EQ(st->translations, want.translations) << node.id();
  EXPECT_EQ(st->regions_fused, want.regions_fused) << node.id();
  EXPECT_EQ(st->dead_writes_skipped, want.dead_writes_skipped) << node.id();
  EXPECT_EQ(st->loop_regions, want.loop_regions) << node.id();
  EXPECT_EQ(st->interp_fallbacks, want.interp_fallbacks) << node.id();
  EXPECT_EQ(st->selfmod_exits, want.selfmod_exits) << node.id();
}

TEST(AnalysisJit, ReplayedGuestsKeepTheirHintShape) {
  if (!Machine::JitCompiledIn()) GTEST_SKIP() << "JIT not compiled in";
  GameScenarioConfig gcfg;
  gcfg.run = RunConfig::AvmmNoSig();
  gcfg.num_players = 2;
  gcfg.seed = 31;
  GameScenario game(gcfg);
  game.Start();
  game.RunFor(kMicrosPerSecond);
  game.Finish();
  ExpectReplayHintShape(game.server(), game.reference_server_image(), {15, 5, 0, 1, 0, 0});
  ExpectReplayHintShape(game.player(0), game.reference_client_image(), {24, 9, 0, 2, 0, 0});

  KvScenarioConfig kcfg;
  kcfg.run = RunConfig::AvmmNoSig();
  kcfg.seed = 31;
  KvScenario kv(kcfg);
  kv.Start();
  kv.RunFor(kMicrosPerSecond);
  kv.Finish();
  ExpectReplayHintShape(kv.server(), kv.reference_server_image(), {10, 5, 0, 1, 497, 0});
}

// --- Auditor pre-audit pass (AuditConfig::verify_image) ----------------

TEST(VerifyImageAudit, CleanImagePassesAndCorruptImageFailsBeforeReplay) {
  GameScenarioConfig gcfg;
  gcfg.run = RunConfig::AvmmNoSig();
  gcfg.num_players = 2;
  gcfg.seed = 77;
  gcfg.client.render_iters = 300;
  GameScenario game(gcfg);
  game.Start();
  game.RunFor(kMicrosPerSecond);
  game.Finish();

  std::vector<Authenticator> auths = game.CollectAuths("server");
  AuditConfig acfg;
  acfg.mem_size = game.config().run.mem_size;
  acfg.verify_image = true;
  Auditor auditor("third-party", &game.registry(), acfg);

  // Genuine reference image: the pre-audit pass finds no errors and the
  // audit proceeds to a normal PASS.
  AuditOutcome good = auditor.AuditFull(game.server(), InMemorySegmentSource(game.server().log()),
                                        game.reference_server_image(), auths);
  EXPECT_TRUE(good.ok) << good.Describe();
  EXPECT_EQ(good.image_errors, 0);
  EXPECT_GT(good.semantic.instructions_replayed, 0u);

  // Corrupt the reference image (illegal opcode in the middle of the
  // largest reachable block): the audit fails up front, replaying
  // nothing.
  Bytes bad_image = game.reference_server_image();
  Cfg cfg = analysis::BuildCfg(bad_image);
  const BasicBlock* biggest = nullptr;
  for (const BasicBlock& b : cfg.blocks) {
    if (biggest == nullptr || b.insn_count() > biggest->insn_count()) {
      biggest = &b;
    }
  }
  ASSERT_NE(biggest, nullptr);
  uint32_t victim = biggest->start + (biggest->insn_count() / 2) * 4;
  bad_image[victim] = 0x00;
  bad_image[victim + 1] = 0x00;
  bad_image[victim + 2] = 0x00;
  bad_image[victim + 3] = 0xee;  // Little-endian word 0xee000000.

  AuditOutcome bad = auditor.AuditFull(game.server(), InMemorySegmentSource(game.server().log()),
                                       bad_image, auths);
  EXPECT_FALSE(bad.ok);
  EXPECT_GT(bad.image_errors, 0);
  EXPECT_FALSE(bad.image_findings.empty());
  EXPECT_EQ(bad.semantic.instructions_replayed, 0u) << "must fail before replay starts";
  EXPECT_NE(bad.Describe().find("FAIL (image)"), std::string::npos) << bad.Describe();
}

}  // namespace
}  // namespace avm
