// Per-instruction register effects: the registers each AVM-32
// instruction reads and writes, and the pure register-to-register
// compute subset. The JIT scans these locally to elide *intra-region*
// register writebacks that are provably re-defined before any possible
// exit; it never changes the architectural state observable at an exit
// or icount landmark.
#ifndef SRC_VM_ANALYSIS_DATAFLOW_H_
#define SRC_VM_ANALYSIS_DATAFLOW_H_

#include <cstdint>

#include "src/vm/isa.h"

namespace avm {
namespace analysis {

// Bit i set = guest register ri.
using RegMask = uint16_t;

// Registers read / written by one instruction. Conservative: an opcode
// the decoder rejects uses and defines nothing (execution faults there).
RegMask InsnUses(const Insn& in);
RegMask InsnDefs(const Insn& in);

// True for opcodes that can neither fault, touch memory, perform I/O,
// nor transfer control: the pure register-to-register compute subset.
// Inside a run of pure ops the only way to leave JIT-compiled code is
// at the block entry, which is what makes dead-writeback elimination
// across such a run sound.
bool IsPureComputeOp(uint8_t opcode);

}  // namespace analysis
}  // namespace avm

#endif  // SRC_VM_ANALYSIS_DATAFLOW_H_
