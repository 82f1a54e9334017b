#include "src/vm/analysis/verifier.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>

#include "src/util/bytes.h"

namespace avm {
namespace analysis {

namespace {

uint32_t WordAt(ByteView image, uint32_t addr) {
  uint32_t w;
  std::memcpy(&w, image.data() + addr, 4);
  return w;
}

// Three-point constant lattice per register.
struct RegVal {
  enum Kind : uint8_t { kTop, kConst, kVaries } kind = kTop;
  uint32_t value = 0;

  static RegVal Top() { return RegVal{}; }
  static RegVal Const(uint32_t v) { return RegVal{kConst, v}; }
  static RegVal Varies() { return RegVal{kVaries, 0}; }

  bool operator==(const RegVal& o) const {
    return kind == o.kind && (kind != kConst || value == o.value);
  }
};

RegVal Meet(const RegVal& a, const RegVal& b) {
  if (a.kind == RegVal::kTop) {
    return b;
  }
  if (b.kind == RegVal::kTop) {
    return a;
  }
  if (a.kind == RegVal::kConst && b.kind == RegVal::kConst && a.value == b.value) {
    return a;
  }
  return RegVal::Varies();
}

using RegState = std::array<RegVal, kNumRegs>;

RegState AllVaries() {
  RegState s;
  s.fill(RegVal::Varies());
  return s;
}

RegState AllConstZero() {
  RegState s;
  s.fill(RegVal::Const(0));
  return s;
}

// Transfer function for one instruction (register effects only).
void Apply(const Insn& in, RegState& s) {
  auto ra = [&]() -> RegVal& { return s[in.ra & 0xf]; };
  auto rb = [&]() -> const RegVal& { return s[in.rb & 0xf]; };
  auto binop = [&](auto f) {
    if (ra().kind == RegVal::kConst && rb().kind == RegVal::kConst) {
      ra() = RegVal::Const(f(ra().value, rb().value));
    } else {
      ra() = RegVal::Varies();
    }
  };
  switch (in.op) {
    case Op::kMovi:
      ra() = RegVal::Const(static_cast<uint32_t>(in.SImm()));
      break;
    case Op::kMovhi:
      ra() = RegVal::Const(static_cast<uint32_t>(in.imm) << 16);
      break;
    case Op::kOri:
      if (ra().kind == RegVal::kConst) {
        ra() = RegVal::Const(ra().value | in.imm);
      } else {
        ra() = RegVal::Varies();
      }
      break;
    case Op::kAddi:
      if (ra().kind == RegVal::kConst) {
        ra() = RegVal::Const(ra().value + static_cast<uint32_t>(in.SImm()));
      } else {
        ra() = RegVal::Varies();
      }
      break;
    case Op::kMov:
      ra() = rb();
      break;
    case Op::kAdd:
      binop([](uint32_t a, uint32_t b) { return a + b; });
      break;
    case Op::kSub:
      binop([](uint32_t a, uint32_t b) { return a - b; });
      break;
    case Op::kMul:
      binop([](uint32_t a, uint32_t b) { return a * b; });
      break;
    case Op::kDivu:
      binop([](uint32_t a, uint32_t b) { return b == 0 ? 0xffffffffu : a / b; });
      break;
    case Op::kRemu:
      binop([](uint32_t a, uint32_t b) { return b == 0 ? a : a % b; });
      break;
    case Op::kAnd:
      binop([](uint32_t a, uint32_t b) { return a & b; });
      break;
    case Op::kOr:
      binop([](uint32_t a, uint32_t b) { return a | b; });
      break;
    case Op::kXor:
      binop([](uint32_t a, uint32_t b) { return a ^ b; });
      break;
    case Op::kShl:
      binop([](uint32_t a, uint32_t b) { return a << (b & 31); });
      break;
    case Op::kShr:
      binop([](uint32_t a, uint32_t b) { return a >> (b & 31); });
      break;
    case Op::kSra:
      binop([](uint32_t a, uint32_t b) {
        return static_cast<uint32_t>(static_cast<int32_t>(a) >> (b & 31));
      });
      break;
    case Op::kSlt:
      binop([](uint32_t a, uint32_t b) {
        return static_cast<int32_t>(a) < static_cast<int32_t>(b) ? 1u : 0u;
      });
      break;
    case Op::kSltu:
      binop([](uint32_t a, uint32_t b) { return a < b ? 1u : 0u; });
      break;
    case Op::kJal:
    case Op::kJalr:
      // Link value is a known constant, but leaving it Varies keeps the
      // verifier from treating return-address arithmetic as resolved.
      ra() = RegVal::Varies();
      break;
    case Op::kLw:
    case Op::kLb:
    case Op::kIn:
      ra() = RegVal::Varies();
      break;
    default:
      break;  // No register effects.
  }
}

}  // namespace

const char* FindingKindName(FindingKind kind) {
  switch (kind) {
    case FindingKind::kIllegalOpcode:
      return "illegal-opcode";
    case FindingKind::kJumpOutOfImage:
      return "jump-out-of-image";
    case FindingKind::kFallthroughOffImage:
      return "fallthrough-off-image";
    case FindingKind::kStoreToCode:
      return "store-to-code";
    case FindingKind::kOobStaticAccess:
      return "oob-static-access";
    case FindingKind::kUnreachableCode:
      return "unreachable-code";
  }
  return "unknown";
}

VerifyReport VerifyImage(ByteView image, size_t mem_size, const Cfg& cfg) {
  VerifyReport rep;
  const size_t n_words = image.size() / 4;
  rep.words.assign(n_words, WordClass::kData);
  for (size_t w = 0; w < n_words && w < cfg.is_code.size(); w++) {
    if (cfg.is_code[w]) {
      rep.words[w] = WordClass::kCode;
    }
  }

  auto add = [&](FindingKind kind, Severity sev, uint32_t addr, uint32_t target,
                 std::string detail) {
    rep.findings.push_back(Finding{kind, sev, addr, target, std::move(detail)});
    if (sev == Severity::kError) {
      rep.errors++;
    } else {
      rep.warnings++;
    }
  };

  // --- Structural findings straight off the CFG. ---
  for (const BasicBlock& b : cfg.blocks) {
    if (b.terminator == BlockEnd::kIllegal && b.insn_count() > 0) {
      const uint32_t addr = b.end - 4;
      char buf[64];
      std::snprintf(buf, sizeof buf, "opcode 0x%02x is not decodable",
                    static_cast<unsigned>(WordAt(image, addr) >> 24));
      add(FindingKind::kIllegalOpcode, Severity::kError, addr, 0, buf);
    }
    if (b.terminator == BlockEnd::kOffImage) {
      add(FindingKind::kFallthroughOffImage, Severity::kError, b.end - 4, b.end,
          "reachable code falls off the end of the image");
    }
    if (b.has_oob_target) {
      add(FindingKind::kJumpOutOfImage, Severity::kError, b.end - 4, b.oob_target,
          "direct branch/jump target lies outside the image");
    }
  }

  // --- Forward constant propagation for statically-known addresses. ---
  const size_t nb = cfg.blocks.size();
  std::vector<RegState> in_state(nb);
  std::vector<RegState> out_state(nb);
  std::vector<uint8_t> seeded(nb, 0);
  // Entry injections: reset vector starts from the architectural all-
  // zero register file; the IRQ vector and JAL/JALR return sites can be
  // entered with anything.
  for (const BasicBlock& b : cfg.blocks) {
    if (b.entry_like) {
      in_state[b.id] = b.start == kResetVector ? AllConstZero() : AllVaries();
      seeded[b.id] = 1;
    }
  }

  auto transfer_block = [&](uint32_t id, RegState s) {
    const BasicBlock& b = cfg.blocks[id];
    for (uint32_t pc = b.start; pc < b.end; pc += 4) {
      Apply(Decode(WordAt(image, pc)), s);
    }
    return s;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (uint32_t id = 0; id < nb; id++) {
      RegState in = seeded[id] ? in_state[id] : RegState{};
      bool any = seeded[id] != 0;
      for (uint32_t p : cfg.blocks[id].preds) {
        for (int r = 0; r < kNumRegs; r++) {
          in[r] = Meet(in[r], out_state[p][r]);
        }
        any = true;
      }
      if (!any) {
        continue;  // Unreachable in the constant-prop sense; skip.
      }
      if (!(in == in_state[id]) || !seeded[id]) {
        in_state[id] = in;
      }
      RegState out = transfer_block(id, in);
      for (int r = 0; r < kNumRegs; r++) {
        if (!(out[r] == out_state[id][r])) {
          out_state[id] = out;
          changed = true;
          break;
        }
      }
    }
  }

  // --- Final pass: memory ops with resolved addresses. ---
  std::vector<uint8_t> selfmod_page_set((mem_size + kPageSize - 1) / kPageSize, 0);
  for (uint32_t id = 0; id < nb; id++) {
    const BasicBlock& b = cfg.blocks[id];
    RegState s = in_state[id];
    for (uint32_t pc = b.start; pc < b.end; pc += 4) {
      const Insn in = Decode(WordAt(image, pc));
      const bool is_store = in.op == Op::kSw || in.op == Op::kSb;
      const bool is_load = in.op == Op::kLw || in.op == Op::kLb;
      if ((is_store || is_load) && s[in.rb & 0xf].kind == RegVal::kConst) {
        const uint32_t addr =
            s[in.rb & 0xf].value + static_cast<uint32_t>(in.SImm());
        const uint32_t width = (in.op == Op::kLw || in.op == Op::kSw) ? 4 : 1;
        if (addr > mem_size || mem_size - addr < width) {
          add(FindingKind::kOobStaticAccess, Severity::kError, pc, addr,
              is_store ? "store with statically-known out-of-bounds address"
                       : "load with statically-known out-of-bounds address");
        } else if (is_store) {
          // Overlap with any decoded code word?
          bool hits_code = false;
          for (uint32_t a = addr & ~3u; a < addr + width; a += 4) {
            if (cfg.IsCodeWord(a)) {
              hits_code = true;
            }
          }
          if (hits_code) {
            add(FindingKind::kStoreToCode, Severity::kWarning, pc, addr,
                "store with statically-known address writes a code word "
                "(self-modifying)");
            if (addr / kPageSize < selfmod_page_set.size()) {
              selfmod_page_set[addr / kPageSize] = 1;
            }
          }
        }
      }
      Apply(in, s);
    }
  }
  for (uint32_t pg = 0; pg < selfmod_page_set.size(); pg++) {
    if (selfmod_page_set[pg]) {
      rep.selfmod_pages.push_back(pg);
    }
  }

  // --- Unreachable code-shaped regions. ---
  // A maximal run of >= 3 decodable words ending in a genuine terminator
  // (so constant pools full of small integers, which decode as NOPs,
  // are not flagged).
  size_t w = 0;
  while (w < n_words) {
    if (rep.words[w] != WordClass::kData) {
      w++;
      continue;
    }
    size_t run_end = w;
    bool saw_terminator = false;
    while (run_end < n_words && rep.words[run_end] == WordClass::kData &&
           IsValidOpcode(static_cast<uint8_t>(WordAt(image, run_end * 4) >> 24))) {
      const uint8_t op = static_cast<uint8_t>(WordAt(image, run_end * 4) >> 24);
      run_end++;
      if (IsBlockTerminator(op)) {
        saw_terminator = true;
        break;
      }
    }
    if (saw_terminator && run_end - w >= 3) {
      for (size_t k = w; k < run_end; k++) {
        rep.words[k] = WordClass::kUnreachableCode;
      }
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "%zu code-shaped words at 0x%04zx are unreachable",
                    run_end - w, w * 4);
      add(FindingKind::kUnreachableCode, Severity::kWarning,
          static_cast<uint32_t>(w * 4), 0, buf);
    }
    w = std::max(run_end, w + 1);
  }

  return rep;
}

}  // namespace analysis
}  // namespace avm
