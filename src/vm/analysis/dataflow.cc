#include "src/vm/analysis/dataflow.h"

namespace avm {
namespace analysis {

namespace {

RegMask Bit(uint8_t reg) { return static_cast<RegMask>(1u << (reg & 0xf)); }

}  // namespace

RegMask InsnUses(const Insn& in) {
  switch (in.op) {
    case Op::kMovi:
    case Op::kMovhi:
    case Op::kJal:
    case Op::kIn:
      return 0;
    case Op::kOri:
    case Op::kAddi:
      return Bit(in.ra);
    case Op::kMov:
      return Bit(in.rb);
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
    case Op::kSlt:
    case Op::kSltu:
      return Bit(in.ra) | Bit(in.rb);
    case Op::kLw:
    case Op::kLb:
      return Bit(in.rb);
    case Op::kSw:
    case Op::kSb:
      return Bit(in.ra) | Bit(in.rb);
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu:
      return Bit(in.ra) | Bit(in.rb);
    case Op::kJr:
      return Bit(in.ra);
    case Op::kJalr:
      return Bit(in.rb);
    case Op::kOut:
      return Bit(in.ra);
    case Op::kNop:
    case Op::kHalt:
    case Op::kJmp:
    case Op::kEi:
    case Op::kDi:
    case Op::kIret:
      return 0;
    default:
      return 0;
  }
}

RegMask InsnDefs(const Insn& in) {
  switch (in.op) {
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
    case Op::kLb:
    case Op::kJal:
    case Op::kJalr:
    case Op::kIn:
      return Bit(in.ra);
    default:
      return 0;
  }
}

bool IsPureComputeOp(uint8_t opcode) {
  switch (static_cast<Op>(opcode)) {
    case Op::kMovi:
    case Op::kMovhi:
    case Op::kOri:
    case Op::kMov:
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDivu:  // Division by zero is defined (0xffffffff), no fault.
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
      return true;
    default:
      return false;
  }
}

}  // namespace analysis
}  // namespace avm
