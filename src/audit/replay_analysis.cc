#include "src/audit/replay_analysis.h"

namespace avm {

void WriteWatchpointPass::OnInstruction(const Machine& m, const CpuState& before,
                                        const Insn& insn) {
  if (insn.op != Op::kSw && insn.op != Op::kSb) {
    return;
  }
  uint32_t addr = before.regs[insn.rb] + static_cast<uint32_t>(insn.SImm());
  uint32_t width = insn.op == Op::kSw ? 4 : 1;
  if (addr + width <= lo_ || addr >= hi_) {
    return;
  }
  AnalysisFinding f;
  f.pass = Name();
  f.detail = "guest store into watched region [" + std::to_string(lo_) + ", " +
             std::to_string(hi_) + ")";
  f.icount = m.cpu().icount;
  f.pc = before.pc;
  f.addr = addr;
  findings_.push_back(std::move(f));
}

void ExecRangePass::OnInstruction(const Machine& m, const CpuState& before, const Insn& insn) {
  (void)insn;
  if (before.pc >= lo_ && before.pc < hi_) {
    return;
  }
  // Report each escape once per target address to keep reports small.
  for (const AnalysisFinding& f : findings_) {
    if (f.pc == before.pc) {
      return;
    }
  }
  AnalysisFinding f;
  f.pass = Name();
  f.detail = "control flow escaped the code region (corrupted return address or function pointer?)";
  f.icount = m.cpu().icount;
  f.pc = before.pc;
  findings_.push_back(std::move(f));
}

namespace {

// Fans one Machine callback out to every pass.
class PassMux : public InstructionObserver {
 public:
  explicit PassMux(std::vector<std::unique_ptr<AnalysisPass>>* passes) : passes_(passes) {}
  void OnRetired(const Machine& m, const CpuState& before, const Insn& insn) override {
    retired_++;
    for (auto& p : *passes_) {
      p->OnInstruction(m, before, insn);
    }
  }
  uint64_t retired() const { return retired_; }

 private:
  std::vector<std::unique_ptr<AnalysisPass>>* passes_;
  uint64_t retired_ = 0;
};

}  // namespace

AnalysisReport AnalyzeSegment(const LogSegment& segment, ByteView reference_image, size_t mem_size,
                              std::vector<std::unique_ptr<AnalysisPass>> passes) {
  PassMux mux(&passes);
  AnalysisReport report;
  report.replay = ReplaySegment(segment, reference_image, mem_size, &mux);
  report.instructions_analyzed = mux.retired();
  for (auto& p : passes) {
    for (AnalysisFinding& f : p->TakeFindings()) {
      report.findings.push_back(std::move(f));
    }
  }
  return report;
}

}  // namespace avm
