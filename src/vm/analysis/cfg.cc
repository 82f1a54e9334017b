#include "src/vm/analysis/cfg.h"

#include <algorithm>
#include <cstring>
#include <deque>

namespace avm {
namespace analysis {

namespace {

uint32_t WordAt(ByteView image, uint32_t addr) {
  uint32_t w;
  std::memcpy(&w, image.data() + addr, 4);
  return w;
}

bool InImage(ByteView image, uint32_t addr) {
  return addr % 4 == 0 && image.size() >= 4 && addr <= image.size() - 4;
}

}  // namespace

bool IsValidOpcode(uint8_t opcode) {
  switch (static_cast<Op>(opcode)) {
    case Op::kNop:
    case Op::kHalt:
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
    case Op::kSw:
    case Op::kLb:
    case Op::kSb:
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu:
    case Op::kJmp:
    case Op::kJal:
    case Op::kJr:
    case Op::kJalr:
    case Op::kIn:
    case Op::kOut:
    case Op::kEi:
    case Op::kDi:
    case Op::kIret:
      return true;
    default:
      return false;
  }
}

bool IsBlockTerminator(uint8_t opcode) {
  switch (static_cast<Op>(opcode)) {
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu:
    case Op::kJmp:
    case Op::kJal:
    case Op::kJr:
    case Op::kJalr:
    case Op::kHalt:
    case Op::kIret:
      return true;
    default:
      return !IsValidOpcode(opcode);
  }
}

Cfg BuildCfg(ByteView image) {
  Cfg cfg;
  cfg.is_code.assign(image.size() / 4, 0);
  if (image.size() < 4) {
    return cfg;
  }

  // Phase 1: reachability sweep. `heads` collects every block-head
  // address; `entry_like` the subset reachable only conservatively.
  std::vector<uint8_t> visited(image.size() / 4, 0);  // Word scanned.
  std::vector<uint8_t> is_head(image.size() / 4, 0);
  std::vector<uint8_t> head_entry_like(image.size() / 4, 0);
  std::deque<uint32_t> work;

  auto add_head = [&](uint32_t addr, bool entry_like) {
    if (!InImage(image, addr)) {
      return;  // Out-of-image target; recorded per block below.
    }
    if (entry_like) {
      head_entry_like[addr / 4] = 1;
    }
    if (is_head[addr / 4]) {
      return;
    }
    is_head[addr / 4] = 1;
    work.push_back(addr);
  };

  add_head(kResetVector, true);
  if (InImage(image, kIrqVector)) {
    add_head(kIrqVector, true);
  }

  while (!work.empty()) {
    uint32_t pc = work.front();
    work.pop_front();
    // Scan forward from this head until a terminator or a word we have
    // already scanned (its continuation is covered by that earlier scan).
    while (InImage(image, pc) && !visited[pc / 4]) {
      visited[pc / 4] = 1;
      const Insn in = Decode(WordAt(image, pc));
      const uint8_t op_byte = static_cast<uint8_t>(WordAt(image, pc) >> 24);
      if (!IsValidOpcode(op_byte)) {
        break;  // Fault point; nothing follows.
      }
      switch (in.op) {
        case Op::kBeq:
        case Op::kBne:
        case Op::kBlt:
        case Op::kBge:
        case Op::kBltu:
        case Op::kBgeu:
          add_head(DirectTarget(pc, in), false);
          add_head(pc + 4, false);
          break;
        case Op::kJmp:
          add_head(DirectTarget(pc, in), false);
          break;
        case Op::kJal:
          add_head(DirectTarget(pc, in), false);
          // The matching return (JR) is indirect: the return site is
          // reachable, but from a statically unknown predecessor.
          add_head(pc + 4, true);
          break;
        case Op::kJalr:
          add_head(pc + 4, true);
          break;
        default:
          break;
      }
      if (IsBlockTerminator(op_byte)) {
        break;
      }
      pc += 4;
    }
  }

  // Phase 2: materialize blocks between heads over the visited words.
  std::vector<uint32_t> head_addrs;
  for (size_t w = 0; w < is_head.size(); w++) {
    if (is_head[w] && visited[w]) {
      head_addrs.push_back(static_cast<uint32_t>(w * 4));
    }
  }
  std::sort(head_addrs.begin(), head_addrs.end());

  for (uint32_t head : head_addrs) {
    BasicBlock b;
    b.id = static_cast<uint32_t>(cfg.blocks.size());
    b.start = head;
    b.entry_like = head_entry_like[head / 4] != 0;
    uint32_t pc = head;
    while (true) {
      if (!InImage(image, pc)) {
        b.terminator = BlockEnd::kOffImage;
        break;
      }
      if (pc != head && is_head[pc / 4]) {
        b.terminator = BlockEnd::kSplit;  // Fall-through into the next head.
        break;
      }
      const uint32_t word = WordAt(image, pc);
      const uint8_t op_byte = static_cast<uint8_t>(word >> 24);
      cfg.is_code[pc / 4] = 1;
      pc += 4;
      if (IsBlockTerminator(op_byte)) {
        if (!IsValidOpcode(op_byte)) {
          b.terminator = BlockEnd::kIllegal;
        } else {
          switch (static_cast<Op>(op_byte)) {
            case Op::kHalt:
              b.terminator = BlockEnd::kHalt;
              break;
            case Op::kJmp:
            case Op::kJal:
              b.terminator = BlockEnd::kJump;
              break;
            case Op::kJr:
            case Op::kJalr:
            case Op::kIret:
              b.terminator = BlockEnd::kIndirect;
              break;
            default:
              b.terminator = BlockEnd::kBranch;
              break;
          }
        }
        break;
      }
    }
    b.end = pc;
    cfg.block_at[head] = b.id;
    cfg.blocks.push_back(std::move(b));
  }

  // Phase 3: edges.
  auto link = [&](BasicBlock& from, uint32_t target) {
    if (!InImage(image, target) || !cfg.block_at.count(target)) {
      from.has_oob_target = true;
      from.oob_target = target;
      return;
    }
    std::vector<uint32_t>& preds = cfg.blocks[cfg.block_at.at(target)].preds;
    if (std::find(preds.begin(), preds.end(), from.id) == preds.end()) {
      preds.push_back(from.id);
    }
  };
  for (BasicBlock& b : cfg.blocks) {
    const uint32_t last = b.end - 4;
    const Insn in =
        b.insn_count() > 0 ? Decode(WordAt(image, last)) : Insn{Op::kNop, 0, 0, 0};
    switch (b.terminator) {
      case BlockEnd::kBranch:
        link(b, DirectTarget(last, in));
        link(b, b.end);
        break;
      case BlockEnd::kJump:
        link(b, DirectTarget(last, in));
        break;
      case BlockEnd::kSplit:
        link(b, b.end);
        break;
      case BlockEnd::kIndirect:
      case BlockEnd::kHalt:
      case BlockEnd::kIllegal:
      case BlockEnd::kOffImage:
        break;
    }
  }
  return cfg;
}

}  // namespace analysis
}  // namespace avm
