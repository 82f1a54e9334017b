// Static basic-block discovery and control-flow-graph recovery for
// AVM-32 guest images (the "agreed-upon VM image" of §4.5 / §5.2).
//
// The auditor's semantic check is only as strong as its knowledge of the
// program both sides agreed to run; this module gives every consumer —
// the avm-lint image verifier, the analysis-guided JIT (src/vm/jit) and
// the optional pre-audit pass (AuditConfig::verify_image) — one shared,
// ahead-of-time view of that program instead of re-deriving structure
// one hot block at a time during replay.
//
// Discovery is a conservative reachability traversal from the
// architectural entry points (the reset vector and, when the image is
// large enough, the IRQ vector), using the same Decode() the
// interpreter and the JIT use:
//
//  * direct branches/jumps contribute both edges (taken + fall-through);
//  * JAL/JALR mark their return site (pc+4) as an entry-like head,
//    because the matching JR is indirect and cannot be resolved
//    statically — return sites are therefore reachable by construction;
//  * JR/JALR/IRET end a block with *unknown* successors
//    (BlockEnd::kIndirect); the verifier's constant propagation knows
//    nothing at the entry-like heads such exits may reach.
//
// Words never reached by this traversal are data as far as the CFG is
// concerned; the verifier (src/vm/analysis/verifier.h) refines that
// classification and reports findings.
#ifndef SRC_VM_ANALYSIS_CFG_H_
#define SRC_VM_ANALYSIS_CFG_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/util/bytes.h"
#include "src/vm/isa.h"

namespace avm {
namespace analysis {

// Why a basic block stopped consuming instructions.
enum class BlockEnd : uint8_t {
  kBranch,    // Conditional branch: taken + fall-through successors.
  kJump,      // JMP/JAL: single direct successor.
  kIndirect,  // JR/JALR/IRET: successors unknown.
  kHalt,      // HALT: no successors.
  kIllegal,   // Undecodable opcode: execution would fault here.
  kSplit,     // Fell into the head of another block (fall-through edge).
  kOffImage,  // Ran past the end of the image (fetch would fault or
              // continue into zeroed memory, which the verifier flags).
};

struct BasicBlock {
  uint32_t id = 0;
  uint32_t start = 0;  // Byte address of the first instruction.
  uint32_t end = 0;    // One past the last instruction (start + 4*n).
  BlockEnd terminator = BlockEnd::kSplit;
  // True when this head is reachable only conservatively: the reset /
  // IRQ vectors, and every JAL/JALR return site (its JR is indirect).
  bool entry_like = false;
  // Ids of the blocks with a direct edge into this one, deduplicated.
  std::vector<uint32_t> preds;
  // Direct branch/jump target that lies outside the image, if any
  // (reported by the verifier as a jump-out-of-image finding).
  bool has_oob_target = false;
  uint32_t oob_target = 0;

  uint32_t insn_count() const { return (end - start) / 4; }
};

struct Cfg {
  std::vector<BasicBlock> blocks;  // Sorted by start address.
  // Head byte address -> block id.
  std::unordered_map<uint32_t, uint32_t> block_at;
  // One flag per image word: covered by a reachable block.
  std::vector<uint8_t> is_code;

  const BasicBlock* BlockAt(uint32_t head) const {
    auto it = block_at.find(head);
    return it == block_at.end() ? nullptr : &blocks[it->second];
  }
  bool IsCodeWord(uint32_t addr) const {
    return addr % 4 == 0 && addr / 4 < is_code.size() && is_code[addr / 4] != 0;
  }
};

// True for opcodes that end a basic block (any control transfer, HALT,
// or an undecodable opcode byte).
bool IsBlockTerminator(uint8_t opcode);

// True for the opcode bytes the interpreter can decode at all.
bool IsValidOpcode(uint8_t opcode);

// Direct target of a branch/JMP/JAL at `pc` (targets are word offsets
// relative to the next instruction).
inline uint32_t DirectTarget(uint32_t pc, const Insn& in) {
  return pc + 4 + static_cast<uint32_t>(in.SImm() * 4);
}

// Recovers the CFG of `image` (loaded at guest address 0).
Cfg BuildCfg(ByteView image);

}  // namespace analysis
}  // namespace avm

#endif  // SRC_VM_ANALYSIS_CFG_H_
