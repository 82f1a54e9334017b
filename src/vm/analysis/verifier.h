// Guest-image verifier: classifies every word of an AVM-32 image and
// reports structural problems before the image is ever executed or
// replayed (the AuditConfig::verify_image pre-audit pass, and the
// avm-lint CLI).
//
// The checks are deliberately conservative: a finding of kError means
// the reachable part of the program, as recovered by BuildCfg, can
// fault or leave the agreed-upon image; warnings flag constructs that
// are legal but weaken static reasoning (self-modifying stores,
// unreachable code-shaped regions).
#ifndef SRC_VM_ANALYSIS_VERIFIER_H_
#define SRC_VM_ANALYSIS_VERIFIER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/vm/analysis/cfg.h"

namespace avm {
namespace analysis {

enum class FindingKind : uint8_t {
  kIllegalOpcode,       // Reachable word whose opcode the decoder rejects.
  kJumpOutOfImage,      // Direct branch/jump target outside the image.
  kFallthroughOffImage, // Reachable straight-line path runs past the image.
  kStoreToCode,         // Store with statically-known address into a
                        // decoded code range (self-modifying code).
  kOobStaticAccess,     // Load/store with statically-known address
                        // outside guest memory.
  kUnreachableCode,     // Code-shaped run of words no path reaches.
};

enum class Severity : uint8_t { kWarning, kError };

struct Finding {
  FindingKind kind;
  Severity severity;
  uint32_t addr = 0;    // Offending instruction address.
  uint32_t target = 0;  // Jump target / effective address, if meaningful.
  std::string detail;
};

// Classification of each image word.
enum class WordClass : uint8_t { kData, kCode, kUnreachableCode };

struct VerifyReport {
  std::vector<Finding> findings;
  std::vector<WordClass> words;  // One entry per image word.
  // Page indices (addr / kPageSize) containing code that a reachable,
  // statically-resolved store can write to. The JIT pre-arms its
  // self-modification seam for these pages.
  std::vector<uint32_t> selfmod_pages;
  int errors = 0;
  int warnings = 0;

  bool ok() const { return errors == 0; }
};

const char* FindingKindName(FindingKind kind);

// Verifies `image` against a guest with `mem_size` bytes of RAM.
// `cfg` must come from the same image (AnalyzeImage bundles the two).
VerifyReport VerifyImage(ByteView image, size_t mem_size, const Cfg& cfg);

}  // namespace analysis
}  // namespace avm

#endif  // SRC_VM_ANALYSIS_VERIFIER_H_
