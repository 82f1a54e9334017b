// Facade over the static-analysis pipeline: one call recovers the CFG
// and the verifier report for a guest image. Every consumer goes
// through it: the JIT's hints, avm-lint and AuditConfig::verify_image.
#ifndef SRC_VM_ANALYSIS_ANALYSIS_H_
#define SRC_VM_ANALYSIS_ANALYSIS_H_

#include <cstddef>

#include "src/vm/analysis/cfg.h"
#include "src/vm/analysis/verifier.h"

namespace avm {
namespace analysis {

struct ImageAnalysis {
  Cfg cfg;
  VerifyReport report;
};

// Analyzes `image` as loaded at guest address 0 into `mem_size` bytes
// of RAM.
ImageAnalysis AnalyzeImage(ByteView image, size_t mem_size);

}  // namespace analysis
}  // namespace avm

#endif  // SRC_VM_ANALYSIS_ANALYSIS_H_
