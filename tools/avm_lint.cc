// avm-lint: static verifier for AVM-32 guest images.
//
// Classifies every word of an image as code/data/unreachable-code and
// reports structural problems (illegal opcodes, direct jumps out of the
// image, statically-resolved stores into code ranges, statically
// out-of-bounds accesses) before the image is ever executed, recorded,
// or replayed — the ahead-of-time half of the auditor's "is this the
// agreed-upon image?" question.
//
// Usage:
//   avm-lint [options] <image.bin | program.asm | --builtin NAME>...
// Options:
//   --builtin NAME     lint a built-in guest (game-client,
//                      game-client-aimbot, game-client-wallhack,
//                      game-server, kv-server, kv-client, or `all`)
//   --json             machine-readable report on stdout
//   --mem-size BYTES   guest RAM size (default 262144)
//   --seed-corruption K  corrupt the image before linting; K is one of
//                      illegal, wildjump, codestore (CI negative tests)
//   --werror           exit nonzero on warnings too (self-modifying
//                      stores are legal, hence normally only warnings)
//   -q                 suppress per-finding output, print summary only
//
// Exit status: 0 = clean (warnings allowed), 2 = errors found,
// 3 = usage or I/O failure.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/game.h"
#include "src/apps/kvstore.h"
#include "src/util/bytes.h"
#include "src/vm/analysis/analysis.h"
#include "src/vm/assembler.h"

namespace {

using avm::Bytes;
using avm::analysis::Finding;
using avm::analysis::FindingKindName;
using avm::analysis::Severity;
using avm::analysis::VerifyReport;
using avm::analysis::WordClass;

struct Target {
  std::string name;
  Bytes image;
};

Bytes BuildBuiltin(const std::string& name, bool* ok) {
  *ok = true;
  if (name == "game-client") {
    return avm::BuildGameClientImage({});
  }
  if (name == "game-client-aimbot") {
    avm::GameClientParams p;
    p.variant = avm::GameClientParams::Variant::kAimbot;
    return avm::BuildGameClientImage(p);
  }
  if (name == "game-client-wallhack") {
    avm::GameClientParams p;
    p.variant = avm::GameClientParams::Variant::kWallhack;
    return avm::BuildGameClientImage(p);
  }
  if (name == "game-server") {
    return avm::BuildGameServerImage({});
  }
  if (name == "kv-server") {
    return avm::BuildKvServerImage({});
  }
  if (name == "kv-client") {
    return avm::BuildKvClientImage({});
  }
  *ok = false;
  return {};
}

const char* kAllBuiltins[] = {"game-client",   "game-client-aimbot",
                              "game-client-wallhack", "game-server",
                              "kv-server",     "kv-client"};

// Deliberately plant one defect so CI can assert avm-lint catches it.
bool Corrupt(Bytes& image, const std::string& kind) {
  if (image.size() < 16) {
    return false;
  }
  // Find a reachable code word to replace: lint the pristine image and
  // pick the middle of the largest block.
  avm::analysis::Cfg cfg = avm::analysis::BuildCfg(image);
  const avm::analysis::BasicBlock* victim = nullptr;
  for (const auto& b : cfg.blocks) {
    if (!victim || b.insn_count() > victim->insn_count()) {
      victim = &b;
    }
  }
  if (!victim || victim->insn_count() == 0) {
    return false;
  }
  const uint32_t at = victim->start + 4 * (victim->insn_count() / 2);
  uint32_t word = 0;
  if (kind == "illegal") {
    word = 0xee000000u;  // Undecodable opcode.
  } else if (kind == "wildjump") {
    // JMP forward past the end of the image.
    word = avm::Encode(avm::Op::kJmp, 0, 0,
                       static_cast<uint16_t>(image.size() / 4 + 64));
  } else if (kind == "codestore") {
    // SW r0, [r0 + reset-vector]: statically-known store over code.
    word = avm::Encode(avm::Op::kSw, 0, 0, 0);
  } else {
    return false;
  }
  std::memcpy(image.data() + at, &word, 4);
  return true;
}

void PrintHuman(const Target& t, const VerifyReport& rep, bool quiet) {
  size_t code = 0;
  size_t unreachable = 0;
  for (WordClass w : rep.words) {
    code += w == WordClass::kCode;
    unreachable += w == WordClass::kUnreachableCode;
  }
  std::printf("%s: %zu words (%zu code, %zu unreachable-code, %zu data)\n",
              t.name.c_str(), rep.words.size(), code, unreachable,
              rep.words.size() - code - unreachable);
  if (!quiet) {
    for (const Finding& f : rep.findings) {
      std::printf("  %s: %s at 0x%04x", f.severity == Severity::kError ? "error" : "warning",
                  FindingKindName(f.kind), f.addr);
      if (f.target != 0) {
        std::printf(" (target 0x%04x)", f.target);
      }
      std::printf(": %s\n", f.detail.c_str());
    }
  }
  std::printf("  %d error(s), %d warning(s)\n", rep.errors, rep.warnings);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

void PrintJson(const std::vector<std::pair<Target, VerifyReport>>& results) {
  std::printf("{\"images\":[");
  for (size_t i = 0; i < results.size(); i++) {
    const auto& [t, rep] = results[i];
    std::printf("%s{\"name\":\"%s\",\"errors\":%d,\"warnings\":%d,\"findings\":[",
                i ? "," : "", JsonEscape(t.name).c_str(), rep.errors, rep.warnings);
    for (size_t j = 0; j < rep.findings.size(); j++) {
      const Finding& f = rep.findings[j];
      std::printf("%s{\"kind\":\"%s\",\"severity\":\"%s\",\"addr\":%u,"
                  "\"target\":%u,\"detail\":\"%s\"}",
                  j ? "," : "", FindingKindName(f.kind),
                  f.severity == Severity::kError ? "error" : "warning", f.addr,
                  f.target, JsonEscape(f.detail).c_str());
    }
    std::printf("]}");
  }
  std::printf("]}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: avm-lint [--json] [--werror] [--mem-size N] [--seed-corruption "
               "illegal|wildjump|codestore] [-q]\n"
               "                (<image.bin>|<program.asm>|--builtin NAME|--builtin all)...\n");
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool quiet = false;
  bool werror = false;
  size_t mem_size = 256 * 1024;
  std::string corruption;
  std::vector<Target> targets;

  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--werror") {
      werror = true;
    } else if (arg == "-q") {
      quiet = true;
    } else if (arg == "--mem-size" && i + 1 < argc) {
      mem_size = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 0));
    } else if (arg == "--seed-corruption" && i + 1 < argc) {
      corruption = argv[++i];
    } else if (arg == "--builtin" && i + 1 < argc) {
      const std::string name = argv[++i];
      if (name == "all") {
        for (const char* b : kAllBuiltins) {
          bool ok;
          targets.push_back(Target{b, BuildBuiltin(b, &ok)});
        }
      } else {
        bool ok;
        Bytes image = BuildBuiltin(name, &ok);
        if (!ok) {
          std::fprintf(stderr, "avm-lint: unknown builtin '%s'\n", name.c_str());
          return 3;
        }
        targets.push_back(Target{name, std::move(image)});
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      std::ifstream in(arg, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "avm-lint: cannot open %s\n", arg.c_str());
        return 3;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      const std::string data = ss.str();
      Bytes image;
      if (arg.size() > 4 && arg.compare(arg.size() - 4, 4, ".asm") == 0) {
        try {
          image = avm::Assemble(data);
        } catch (const avm::AsmError& e) {
          std::fprintf(stderr, "avm-lint: %s: %s\n", arg.c_str(), e.what());
          return 3;
        }
      } else {
        image.assign(data.begin(), data.end());
      }
      targets.push_back(Target{arg, std::move(image)});
    }
  }
  if (targets.empty()) {
    return Usage();
  }

  int worst = 0;
  std::vector<std::pair<Target, VerifyReport>> results;
  for (Target& t : targets) {
    if (!corruption.empty() && !Corrupt(t.image, corruption)) {
      std::fprintf(stderr, "avm-lint: cannot seed corruption '%s' into %s\n",
                   corruption.c_str(), t.name.c_str());
      return 3;
    }
    avm::analysis::ImageAnalysis a = avm::analysis::AnalyzeImage(t.image, mem_size);
    if (!a.report.ok() || (werror && a.report.warnings > 0)) {
      worst = 2;
    }
    if (json) {
      results.emplace_back(std::move(t), std::move(a.report));
    } else {
      PrintHuman(t, a.report, quiet);
    }
  }
  if (json) {
    PrintJson(results);
  }
  return worst;
}
