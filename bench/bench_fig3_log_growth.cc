// Figure 3: growth of the AVMM log, and the equivalent plain-VMM log,
// while playing the game.
//
// Paper: the log grows slowly while players join, then steadily during
// play (~8 MB/min); the AVMM log is larger than the equivalent VMware log
// by the tamper-evident overhead.
//
// Here a 3-player avmm-rsa768 game runs for 60 simulated seconds and both
// curves are sampled; the join phase is modeled by the players starting
// their input streams ~2s in.
#include "bench/bench_common.h"
#include "src/sim/scenario.h"

namespace avm {
namespace {

// Coefficient of determination of the least-squares line through
// (x[i], y[i]): 1 for exactly linear growth.
double LinearR2(const std::vector<double>& x, const std::vector<double>& y) {
  const double n = static_cast<double>(x.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (size_t i = 0; i < x.size(); i++) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  const double cov = n * sxy - sx * sy;
  return cov * cov / ((n * sxx - sx * sx) * (n * syy - sy * sy));
}

void Run() {
  BenchJson json("fig3_log_growth");
  GameScenarioConfig cfg;
  cfg.run = RunConfig::AvmmRsa768();
  cfg.num_players = 3;
  cfg.seed = 3;
  GameScenario game(cfg);
  game.Start();

  std::printf("  %-8s %14s %18s\n", "t (s)", "AVMM log (KB)", "plain-VMM log (KB)");
  const Avmm& p1 = game.player(0);
  SimTime step = 4 * kMicrosPerSecond;
  std::vector<double> t_s, avmm_kb, plain_kb;
  for (int i = 1; i <= 15; i++) {
    game.RunFor(step);
    t_s.push_back(static_cast<double>(game.now()) / kMicrosPerSecond);
    avmm_kb.push_back(p1.log().TotalWireSize() / 1024.0);
    plain_kb.push_back(p1.vmware_equiv_bytes() / 1024.0);
    std::printf("  %-8.0f %14.1f %18.1f\n", t_s.back(), avmm_kb.back(), plain_kb.back());
  }
  game.Finish();

  const double minutes = t_s.back() / 60.0;
  const double rate_avmm = avmm_kb.back() / minutes;
  const double rate_plain = plain_kb.back() / minutes;
  PrintRule();
  std::printf("  steady growth: AVMM %.1f KB/min, plain VMM %.1f KB/min\n", rate_avmm, rate_plain);
  std::printf("  tamper-evident overhead: %.1f%% larger than the plain log\n",
              100.0 * (rate_avmm - rate_plain) / rate_plain);
  json.Add("avmm_kb_per_min", rate_avmm, "KB/min");
  json.Add("plain_kb_per_min", rate_plain, "KB/min");

  // The shape, computed from the samples: the AVMM log lies above the
  // plain-VMM log at every sample, and both grow linearly (a straight
  // line explains at least 99% of each curve's variance).
  bool above = true;
  for (size_t i = 0; i < t_s.size(); i++) {
    above = above && avmm_kb[i] > plain_kb[i];
  }
  const double r2_avmm = LinearR2(t_s, avmm_kb);
  const double r2_plain = LinearR2(t_s, plain_kb);
  const bool linear = r2_avmm >= 0.99 && r2_plain >= 0.99;
  std::printf("  shape check: AVMM log > plain-VMM log at all %zu samples: %s\n", t_s.size(),
              above ? "PASS" : "FAIL");
  std::printf("  shape check: linear growth (R^2 AVMM %.4f, plain %.4f; >= 0.99): %s\n", r2_avmm,
              r2_plain, linear ? "PASS" : "FAIL");
  json.Add("r2_avmm", r2_avmm, "1");
  json.Add("r2_plain", r2_plain, "1");
  json.Add("shape_avmm_above_plain", above ? 1 : 0, "bool");
  json.Add("shape_linear_growth", linear ? 1 : 0, "bool");
}

}  // namespace
}  // namespace avm

int main() {
  avm::PrintHeader("Figure 3: log growth during a 3-player game (avmm-rsa768)",
                   "linear growth ~8 MB/min; AVMM log > equivalent VMware log");
  avm::PrintScaleNote();
  avm::Run();
  return 0;
}
