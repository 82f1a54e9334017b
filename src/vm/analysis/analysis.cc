#include "src/vm/analysis/analysis.h"

namespace avm {
namespace analysis {

ImageAnalysis AnalyzeImage(ByteView image, size_t mem_size) {
  ImageAnalysis a;
  a.cfg = BuildCfg(image);
  a.report = VerifyImage(image, mem_size, a.cfg);
  return a;
}

}  // namespace analysis
}  // namespace avm
