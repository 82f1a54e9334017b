// Figure 6: CPU utilization split between game execution and the
// accountability machinery.
//
// Paper: the tamper-evident-logging daemon (pinned to one hyperthread)
// stays below 8% while the single-threaded game renders flat out; total
// CPU averages ~12.5% of the 8-hyperthread machine.
//
// Here the equivalent split is the wall time each AVMM spends in guest
// execution vs. trace recording vs. signing/verification vs. snapshots,
// per configuration. The "accountability share" column corresponds to
// the paper's daemon-hyperthread utilization.
#include <algorithm>
#include <vector>

#include "bench/bench_common.h"
#include "src/audit/replayer.h"
#include "src/sim/scenario.h"
#include "src/vm/assembler.h"

namespace avm {
namespace {

void Run() {
  std::printf("  %-14s %8s %8s %8s %8s %16s\n", "config", "exec(s)", "rec(s)", "crypto(s)",
              "snap(s)", "accountability%");
  for (const RunConfig& run : PaperConfigs()) {
    GameScenarioConfig cfg;
    cfg.run = run;
    cfg.num_players = 2;
    cfg.seed = 6;
    GameScenario game(cfg);
    game.Start();
    game.RunFor(8 * kMicrosPerSecond);
    game.Finish();

    const Avmm& p = game.player(0);
    double exec = p.exec_seconds();
    double rec = p.record_seconds();
    double crypto = p.crypto_seconds() + game.server().crypto_seconds() * 0;  // Player only.
    double snap = p.snapshot_seconds();
    double overhead = rec + crypto + snap;
    double share = 100.0 * overhead / (exec + overhead);
    std::printf("  %-14s %8.3f %8.3f %8.3f %8.3f %15.1f%%\n", run.Name(), exec, rec, crypto, snap,
                share);
  }
  PrintRule();
  std::printf("  shape check vs paper: guest execution dominates in every config;\n");
  std::printf("  the accountability machinery (the paper's logging daemon, <8%% of\n");
  std::printf("  one hyperthread) stays a small fraction of total CPU, largest in\n");
  std::printf("  avmm-rsa768 where per-packet signatures are added.\n");
}

// Beyond the paper: single-stream replay throughput, the semantic
// check's fundamental limit (§6.6: replay takes about as long as the
// original execution), raw and through the auditor's replayer on a
// recorded log. Two tiers: "reference" is the per-instruction
// Step() loop (set_jit_enabled(false)); "jit" is the fast path, the
// x86-64 dynamic binary translator (src/vm/jit) with direct block
// chaining, guided by the src/vm/analysis pass over the loaded image
// (region fusion across direct jumps, liveness-based dead-writeback
// elimination).
void RunReplaySpeed(BenchJson& json) {
  Bytes image = Assemble(R"(
    movi r1, 0
    movi r2, 7
    la r3, 0x5000
    movi r6, 100
loop:
    addi r1, 1
    mul r2, r1
    xor r2, r1
    sw r2, [r3+0]
    jmp body2          ; Direct-jump trampolines: the shape the
body2:                 ; analysis-guided JIT fuses into one region.
    lw r4, [r3+0]
    add r4, r2
    remu r4, r6
    jmp body3
body3:
    slt r5, r4
    bne r1, r0, loop
    halt
  )");
  constexpr uint64_t kInstructions = 40'000'000;
  struct Tier {
    const char* name;
    const char* audit_name;
    bool jit;
  };
  constexpr Tier kTiers[] = {{"reference", "audit replay (reference)", false},
                             {"jit", "audit replay (jit)", true}};
  constexpr int kNumTiers = 2;

  // The same comparison through the full record->replay loop: a real
  // recorded log, replayed by the auditor's StreamingReplayer.
  GameScenarioConfig cfg;
  cfg.run = RunConfig::AvmmNoSig();
  cfg.num_players = 2;
  cfg.seed = 6;
  GameScenario game(cfg);
  game.Start();
  game.RunFor(4 * kMicrosPerSecond);
  game.Finish();
  LogSegment seg = game.server().log().Extract(1, game.server().log().LastSeq());

  // Every row is the median of kRuns runs, interleaved across rows so
  // that host noise spreads over all of them alike.
  constexpr int kRuns = 5;
  std::vector<double> raw_mips[kNumTiers];
  std::vector<double> raw_s[kNumTiers];
  std::vector<double> audit_mips[kNumTiers];
  std::vector<double> audit_s[kNumTiers];
  bool audit_ok[kNumTiers] = {true, true};
  for (int run = 0; run < kRuns; run++) {
    for (int tier = 0; tier < kNumTiers; tier++) {
      NullBackend backend;
      Machine m(256 * 1024, &backend);
      m.LoadImage(image);
      m.set_jit_enabled(kTiers[tier].jit);
      WallTimer t;
      m.RunUntilIcount(kInstructions);
      const double s = t.ElapsedSeconds();
      raw_s[tier].push_back(s);
      raw_mips[tier].push_back(kInstructions / s / 1e6);

      StreamingReplayer r(game.reference_server_image(), cfg.run.mem_size);
      r.mutable_machine().set_jit_enabled(kTiers[tier].jit);
      WallTimer ta;
      r.Feed(seg.entries);
      ReplayResult res = r.Finish();
      const double sa = ta.ElapsedSeconds();
      audit_s[tier].push_back(sa);
      audit_mips[tier].push_back(res.instructions_replayed / sa / 1e6);
      audit_ok[tier] = audit_ok[tier] && res.ok;
    }
  }

  PrintRule();
  std::printf("  replayed-instructions/sec (single stream, %llu Minsn mixed ALU/mem/branch;\n"
              "  median of %d interleaved runs per row)\n",
              static_cast<unsigned long long>(kInstructions / 1'000'000), kRuns);
  std::printf("  %-22s %10s %10s\n", "tier", "MIPS", "seconds");
  double mips[kNumTiers] = {0};
  for (int tier = 0; tier < kNumTiers; tier++) {
    mips[tier] = Median(raw_mips[tier]);
    std::printf("  %-22s %10.1f %10.3f\n", kTiers[tier].name, mips[tier], Median(raw_s[tier]));
  }
  std::printf("  jit speedup: %.2fx vs reference (jit compiled in: %s)\n", mips[1] / mips[0],
              Machine::JitCompiledIn() ? "yes" : "no");
  json.Add("replay_mips_reference", mips[0], "Minsn/s");
  json.Add("replay_mips_jit", mips[1], "Minsn/s");
  json.Add("replay_jit_speedup", mips[1] / mips[0], "x");

  double replay_mips[kNumTiers] = {0};
  for (int tier = 0; tier < kNumTiers; tier++) {
    replay_mips[tier] = Median(audit_mips[tier]);
    std::printf("  %-22s %10.1f %10.3f  (recorded server log, %s)\n", kTiers[tier].audit_name,
                replay_mips[tier], Median(audit_s[tier]), audit_ok[tier] ? "PASS" : "FAIL");
  }
  std::printf("  audit replay speedup: jit %.2fx vs reference\n", replay_mips[1] / replay_mips[0]);
  std::printf("  audit replay / raw, jit: %.2f\n", replay_mips[1] / mips[1]);
  json.Add("audit_replay_mips_reference", replay_mips[0], "Minsn/s");
  json.Add("audit_replay_mips_jit", replay_mips[1], "Minsn/s");
  json.Add("audit_replay_jit_speedup", replay_mips[1] / replay_mips[0], "x");
}

// Telemetry must be free when off and near-free when on: the same
// recording run with obs disabled vs enabled must produce a
// bit-identical serialized log (verdict/wire equivalence) on every run
// and stay under the <2% overhead budget CI asserts on
// telemetry_overhead_pct (median over interleaved off/on pairs).
void RunTelemetryOverhead(BenchJson& json) {
  PrintRule();
  std::printf("  telemetry overhead: identical recording run, obs off vs on\n"
              "  (median of %d interleaved off/on pairs)\n",
              kTelemetryPairs);
  Bytes reference;
  bool identical = true;
  auto run_once = [&](bool on) {
    obs::SetEnabled(on);
    obs::ResetTrace();
    GameScenarioConfig cfg;
    cfg.run = RunConfig::AvmmRsa768();
    cfg.num_players = 2;
    cfg.seed = 6;
    GameScenario game(cfg);
    game.Start();
    WallTimer t;
    game.RunFor(4 * kMicrosPerSecond);
    double s = t.ElapsedSeconds();
    game.Finish();
    Bytes wire = game.server().log().Extract(1, game.server().log().LastSeq()).Serialize();
    if (reference.empty()) {
      reference = std::move(wire);
    } else if (wire != reference) {
      identical = false;
    }
    return s;
  };
  const PairedOverhead ab = MeasurePairedOverhead(kTelemetryPairs, run_once);
  obs::SetEnabled(false);
  std::printf("  %-26s %10.3f s\n", "obs off (median)", ab.off_s);
  std::printf("  %-26s %10.3f s\n", "obs on (median)", ab.on_s);
  std::printf("  %-26s %+10.2f%%  (%d pairs)\n", "median paired overhead", ab.median_pct,
              ab.pairs);
  std::printf("  serialized server log bit-identical on all %d runs: %s (%zu bytes)\n",
              2 * ab.pairs, identical ? "yes" : "NO (BUG)", reference.size());
  json.Add("telemetry_overhead_pct", ab.median_pct, "%");
  json.Add("telemetry_overhead_pairs", ab.pairs, "count");
  json.Add("telemetry_log_identical", identical ? 1 : 0, "bool");
}

}  // namespace
}  // namespace avm

int main() {
  avm::PrintHeader("Figure 6: CPU utilization split per configuration",
                   "logging daemon <8% of one HT; machine average ~12.5%");
  avm::PrintScaleNote();
  avm::Run();
  avm::BenchJson json("fig6_cpu");
  avm::RunReplaySpeed(json);
  avm::RunTelemetryOverhead(json);
  return 0;
}
