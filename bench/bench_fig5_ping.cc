// Figure 5: median ping round-trip times across the five configurations.
//
// Paper (two hosts on one switch): bare-hw 192us, +virtualization 525us,
// +recording 621us, +tamper-evident daemon >2ms, +RSA-768 ~5ms. Both the
// ping and the pong are acknowledged, so four signatures are generated
// and verified per RTT.
//
// Measurement here: the wire propagation is the simulated LAN's 2x96us;
// the per-message processing cost (logging, hash chaining, signing,
// verification, acks) is measured in real time by driving one message +
// ack through two real transports/logs, and the recording cost by
// appending the MAC-layer events a recording VMM logs for the same
// packet. RTT = propagation + 2 x (message processing) since a ping is
// two messages (ping + pong).
#include "bench/bench_common.h"
#include "src/avmm/transport.h"
#include "src/vm/trace.h"

namespace avm {
namespace {

constexpr size_t kPingBytes = 64;
constexpr int kRounds = 100;
constexpr double kPropagationUs = 192.0;  // The paper's bare-hw LAN RTT.

// Wall-time per message through the full accountable path (send + data
// verification + recv log + ack + ack verification). For batched mode
// the inline window signatures are inside the timed loop (their cost is
// amortized, not hidden); for async mode they run on the signer thread
// (off the critical path by design) and the final Flush barrier is
// excluded, matching "the caller returns after the SHA-256 append".
double MessageProcessingUs(const RunConfig& cfg, SignatureScheme scheme) {
  Prng rng(5);
  Signer alice("alice", scheme, rng), bob("bob", scheme, rng);
  KeyRegistry registry;
  registry.RegisterSigner(alice);
  registry.RegisterSigner(bob);
  SimNetwork net;
  net.SetDefaultLatency(0);
  TamperEvidentLog alog("alice"), blog("bob");
  AuthenticatorStore aa, ba;
  Transport ta("alice", &cfg, &alog, &alice, &net, &registry, &aa);
  Transport tb("bob", &cfg, &blog, &bob, &net, &registry, &ba);
  net.AttachHost("alice", &ta);
  net.AttachHost("bob", &tb);

  Bytes payload(kPingBytes, 0xab);
  // Warm-up round.
  ta.SendPacket(0, "bob", payload);
  net.DeliverUntil(0);

  WallTimer t;
  for (int i = 0; i < kRounds; i++) {
    ta.SendPacket(0, "bob", payload);
    net.DeliverUntil(0);  // Data delivered, ack delivered, synchronously.
  }
  double us = t.ElapsedSeconds() * 1e6 / kRounds;
  // Join the signer thread and settle the tail outside the timer.
  ta.Flush(0);
  tb.Flush(0);
  net.DeliverUntil(0);
  return us;
}

// Wall-time a recording VMM spends logging the MAC-layer events for one
// packet (TX event on the sender, DMA event on the receiver).
double RecordingProcessingUs(bool tamper_evident) {
  TamperEvidentLog log("x");
  uint64_t plain_bytes = 0;
  Bytes payload(kPingBytes, 0xcd);
  WallTimer t;
  for (int i = 0; i < kRounds; i++) {
    for (TraceKind kind : {TraceKind::kOutPacket, TraceKind::kDmaPacket}) {
      TraceEvent e;
      e.kind = kind;
      e.icount = static_cast<uint64_t>(i) * 100;
      e.data = payload;
      Bytes ser = e.Serialize();
      if (tamper_evident) {
        log.Append(ClassifyTraceEvent(e), std::move(ser));
      } else {
        plain_bytes += ser.size() + 13;
      }
    }
  }
  (void)plain_bytes;
  return t.ElapsedSeconds() * 1e6 / kRounds;
}

void Run() {
  BenchJson json("fig5_ping");
  std::printf("  %-22s %16s %14s\n", "config", "processing (us)", "ping RTT (us)");
  double proc_nosig = 0;
  double proc_rsa_sync = 0;
  double rtt_nosig = 0;
  double rtt_rsa_sync = 0;
  for (const RunConfig& cfg : PaperConfigs()) {
    double proc = MessageProcessingUs(cfg, cfg.scheme);
    if (cfg.RecordsTrace()) {
      proc += RecordingProcessingUs(cfg.TamperEvident());
    }
    // Ping + pong: the per-message path runs twice per RTT.
    double rtt = kPropagationUs + 2 * proc;
    std::printf("  %-22s %16.1f %14.1f\n", cfg.Name(), proc, rtt);
    json.Add(std::string(cfg.Name()) + "_processing", proc, "us");
    json.Add(std::string(cfg.Name()) + "_rtt", rtt, "us");
    if (cfg.TamperEvident() && cfg.scheme == SignatureScheme::kNone) {
      proc_nosig = proc;
      rtt_nosig = rtt;
    }
    if (cfg.TamperEvident() && cfg.scheme == SignatureScheme::kRsa768) {
      proc_rsa_sync = proc;
      rtt_rsa_sync = rtt;
    }
  }

  // The §6.8 remedy, implemented: amortize the RSA cost with batched
  // authenticators (one signature per k entries) or take it off the
  // critical path entirely (async signer thread).
  double sig_step_sync = proc_rsa_sync - proc_nosig;
  bool steps_below_sync = true;
  std::string step_labels;
  for (const RunConfig& cfg :
       {RunConfig::AvmmRsa768Batched(8), RunConfig::AvmmRsa768Batched(32),
        RunConfig::AvmmRsa768Async(8)}) {
    double proc = MessageProcessingUs(cfg, cfg.scheme) + RecordingProcessingUs(true);
    double rtt = kPropagationUs + 2 * proc;
    double sig_step = proc - proc_nosig;
    double speedup = sig_step > 0 ? sig_step_sync / sig_step : 0;
    std::string label = std::string(cfg.Name()) +
                        (cfg.sign_mode == SignMode::kBatched
                             ? "-k" + std::to_string(cfg.sign_batch_entries)
                             : "");
    std::printf("  %-22s %16.1f %14.1f   (sig step %.0fus, %.1fx vs sync)\n", label.c_str(),
                proc, rtt, sig_step, speedup);
    json.Add(label + "_processing", proc, "us");
    json.Add(label + "_rtt", rtt, "us");
    json.Add(label + "_sig_step", sig_step, "us");
    json.Add(label + "_sig_step_speedup_vs_sync", speedup, "x");
    steps_below_sync = steps_below_sync && sig_step < sig_step_sync;
    step_labels += (step_labels.empty() ? "" : ", ") + label;
  }
  json.Add("avmm-rsa768_sig_step_sync", sig_step_sync, "us");

  // Bonus point from §6.8's discussion: a stronger key for comparison.
  RunConfig rsa2048 = RunConfig::AvmmRsa2048();
  double proc2048 = MessageProcessingUs(rsa2048, SignatureScheme::kRsa2048) +
                    RecordingProcessingUs(true);
  std::printf("  %-22s %16.1f %14.1f   (key-strength sweep)\n", rsa2048.Name(), proc2048,
              kPropagationUs + 2 * proc2048);
  json.Add("avmm-rsa2048_processing", proc2048, "us");
  PrintRule();
  // The shape, computed from the rows above: per-packet RSA signatures
  // raise the RTT over the unsigned tamper-evident log, and each §6.8
  // remedy shrinks the signature step below the synchronous one.
  const bool nosig_below_rsa = rtt_nosig < rtt_rsa_sync;
  std::printf("  shape check: avmm-nosig RTT (%.1fus) < avmm-rsa768 RTT (%.1fus): %s\n",
              rtt_nosig, rtt_rsa_sync, nosig_below_rsa ? "PASS" : "FAIL");
  std::printf("  shape check: sig step of %s < sync (%.0fus): %s\n", step_labels.c_str(),
              sig_step_sync, steps_below_sync ? "PASS" : "FAIL");
  json.Add("shape_nosig_rtt_below_rsa768", nosig_below_rsa ? 1 : 0, "bool");
  json.Add("shape_sig_steps_below_sync", steps_below_sync ? 1 : 0, "bool");
  json.Write();
}

}  // namespace
}  // namespace avm

int main() {
  avm::PrintHeader("Figure 5: median ping round-trip time per configuration",
                   "192us bare -> 525us vm -> 621us rec -> >2ms nosig -> ~5ms rsa768");
  avm::Run();
  return 0;
}
