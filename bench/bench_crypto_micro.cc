// Crypto/substrate micro-benchmarks (google-benchmark).
//
// Supports §6.8's discussion of signature cost (the paper notes ESIGN
// could generate+verify a 2046-bit signature in <125us, vs RSA-768's
// ~ms) and sizes the per-entry cost of the hash chain and the per-
// snapshot cost of the Merkle tree.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>

#include "bench/bench_common.h"
#include "src/compress/lzss.h"
#include "src/crypto/keys.h"
#include "src/crypto/merkle.h"
#include "src/crypto/rsa.h"
#include "src/store/log_store.h"
#include "src/store/segment_file.h"
#include "src/tel/batch.h"
#include "src/tel/log.h"
#include "src/util/prng.h"
#include "src/vm/trace.h"

namespace fs = std::filesystem;

namespace avm {
namespace {

void BM_Sha256(benchmark::State& state) {
  Prng rng(1);
  Bytes data = rng.RandomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Digest(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(24)->Arg(64)->Arg(1024)->Arg(65536);

// The per-entry record path, one stage at a time: serialize a trace
// event, chain-hash it (content digest + the 73-byte link), and frame it
// for the store.
void BM_TraceEventSerialize(benchmark::State& state) {
  TraceEvent ev;
  ev.kind = TraceKind::kPortIn;
  ev.port = 3;
  ev.value = 5;
  for (auto _ : state) {
    ev.icount++;
    benchmark::DoNotOptimize(ev.Serialize());
  }
}
BENCHMARK(BM_TraceEventSerialize);

void BM_ChainHash(benchmark::State& state) {
  Prng rng(3);
  Bytes content = rng.RandomBytes(24);  // A serialized port-read event.
  Hash256 prev;
  uint64_t seq = 0;
  for (auto _ : state) {
    prev = ChainHash(prev, ++seq, EntryType::kTraceTime, content);
  }
  benchmark::DoNotOptimize(prev);
}
BENCHMARK(BM_ChainHash);

void BM_EncodeRecord(benchmark::State& state) {
  Prng rng(4);
  LogEntry e;
  e.type = EntryType::kTraceTime;
  e.content = rng.RandomBytes(24);
  Bytes frame;  // Reused, as LogStore::Append does.
  for (auto _ : state) {
    e.seq++;
    frame.clear();
    EncodeRecord(e, frame);
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_EncodeRecord);

void BM_ChainAppend(benchmark::State& state) {
  Prng rng(2);
  Bytes content = rng.RandomBytes(48);  // Typical trace-entry size.
  TamperEvidentLog log("bench");
  for (auto _ : state) {
    log.Append(EntryType::kTraceTime, content);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ChainAppend);

// The same appends into a log that spills into a LogStore (sync off, so
// the row measures the log and the store's append path, not the disk):
// the log keeps only its tip and a ring of chain links, and each entry is
// encoded once, into the store's append buffer.
void BM_ChainAppendSpilled(benchmark::State& state) {
  Prng rng(2);
  Bytes content = rng.RandomBytes(48);
  const std::string dir = (fs::temp_directory_path() / "avm_bench_chain_append").string();
  fs::remove_all(dir);
  LogStoreOptions opts;
  opts.sync = false;
  auto store = LogStore::Open(dir, "bench", opts);
  TamperEvidentLog log("bench");
  log.SetSink(store.get());
  for (auto _ : state) {
    log.Append(EntryType::kTraceTime, content);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  log.SetSink(nullptr);
  store.reset();
  fs::remove_all(dir);
}
BENCHMARK(BM_ChainAppendSpilled);

void BM_RsaSign(benchmark::State& state) {
  Prng rng(3);
  RsaKeypair kp = RsaKeypair::Generate(rng, static_cast<size_t>(state.range(0)));
  Bytes msg = rng.RandomBytes(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RsaSign(kp.priv, msg));
  }
}
BENCHMARK(BM_RsaSign)->Arg(768)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_RsaVerify(benchmark::State& state) {
  Prng rng(4);
  RsaKeypair kp = RsaKeypair::Generate(rng, static_cast<size_t>(state.range(0)));
  Bytes msg = rng.RandomBytes(64);
  Bytes sig = RsaSign(kp.priv, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RsaVerify(kp.pub, msg, sig));
  }
}
BENCHMARK(BM_RsaVerify)->Arg(768)->Arg(2048)->Unit(benchmark::kMicrosecond);

// A random odd `bits`-bit modulus, a base below it and a full-length
// exponent.
struct PowModInput {
  Bignum m, base, exp;
};

PowModInput RandomPowModInput(Prng& rng, size_t bits) {
  Bignum m = Bignum::RandomWithBits(rng, bits);
  if (!m.IsOdd()) {
    m = Bignum::Add(m, Bignum(1));
  }
  Bignum base = Bignum::Mod(Bignum::RandomWithBits(rng, bits), m);
  return {m, base, Bignum::RandomWithBits(rng, bits)};
}

// One full-length exponentiation on a cached context: the kernel at
// each width (384 bits is an RSA-768 CRT half, 768 its modulus).
void BM_MontgomeryPowMod(benchmark::State& state) {
  Prng rng(35);
  const PowModInput in = RandomPowModInput(rng, static_cast<size_t>(state.range(0)));
  const Montgomery ctx(in.m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.PowMod(in.base, in.exp));
  }
}
BENCHMARK(BM_MontgomeryPowMod)->Arg(384)->Arg(768)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

// Key generation (Miller-Rabin exponentiations on the CRT-half width),
// the set-up cost of every signing node. The same seed each iteration,
// so every iteration does the same work.
void BM_RsaKeygen(benchmark::State& state) {
  for (auto _ : state) {
    Prng rng(36);
    benchmark::DoNotOptimize(RsaKeypair::Generate(rng, static_cast<size_t>(state.range(0))));
  }
}
BENCHMARK(BM_RsaKeygen)->Arg(768)->Unit(benchmark::kMillisecond);

void BM_MerkleTreeBuild(benchmark::State& state) {
  // Pages of a 256 KiB AVM: 64 leaves + CPU leaf.
  Prng rng(5);
  std::vector<Hash256> leaves;
  for (int i = 0; i < state.range(0); i++) {
    leaves.push_back(Sha256::Digest(rng.RandomBytes(32)));
  }
  for (auto _ : state) {
    MerkleTree tree(leaves);
    benchmark::DoNotOptimize(tree.Root());
  }
}
BENCHMARK(BM_MerkleTreeBuild)->Arg(65)->Arg(257);

void BM_StateRootHash(benchmark::State& state) {
  // Hashing the full guest memory for a snapshot root: the dominant
  // snapshot cost (the paper's ~5 s per snapshot).
  Prng rng(6);
  Bytes page = rng.RandomBytes(4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerkleLeafHash(page));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_StateRootHash);

void BM_RsaSignUncachedMontgomery(benchmark::State& state) {
  // The pre-optimization path: rebuild the Montgomery context inside
  // every ModExp. Compare against BM_RsaSign (cached contexts).
  Prng rng(31);
  RsaKeypair kp = RsaKeypair::Generate(rng, static_cast<size_t>(state.range(0)));
  kp.priv.mont_p.reset();
  kp.priv.mont_q.reset();
  Bytes msg = rng.RandomBytes(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RsaSign(kp.priv, msg));
  }
}
BENCHMARK(BM_RsaSignUncachedMontgomery)->Arg(768)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_MontgomeryCtxBuild(benchmark::State& state) {
  // What the per-key cache saves on every exponentiation: one context
  // construction (a long division for R^2 mod m).
  Prng rng(32);
  RsaKeypair kp = RsaKeypair::Generate(rng, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Montgomery ctx(kp.pub.n);
    benchmark::DoNotOptimize(&ctx);
  }
}
BENCHMARK(BM_MontgomeryCtxBuild)->Arg(768)->Arg(2048)->Unit(benchmark::kMicrosecond);

// Per-entry cost of committing a k-entry window with one signature:
// k-1 chain appends plus one RSA sign, amortized. The record/send hot
// path in batched mode pays exactly this.
void BM_SignBatchAmortized(benchmark::State& state) {
  Prng rng(33);
  Signer signer("bench", SignatureScheme::kRsa768, rng);
  Bytes content = rng.RandomBytes(48);
  TamperEvidentLog log("bench");
  uint64_t k = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    for (uint64_t i = 0; i < k; i++) {
      log.Append(EntryType::kTraceTime, content);
    }
    benchmark::DoNotOptimize(log.Authenticate(signer));
  }
  // Per-entry cost = 1 / items_per_second; BENCH_crypto_micro.json
  // reports it directly in microseconds.
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SignBatchAmortized)->Arg(1)->Arg(8)->Arg(32)->Unit(benchmark::kMicrosecond);

void BM_BatchVerifyAmortized(benchmark::State& state) {
  // The receiver/auditor side: walk k links + one RSA verify.
  Prng rng(34);
  Signer signer("bench", SignatureScheme::kRsa768, rng);
  KeyRegistry registry;
  registry.RegisterSigner(signer);
  Bytes content = rng.RandomBytes(48);
  TamperEvidentLog log("bench");
  uint64_t k = static_cast<uint64_t>(state.range(0));
  for (uint64_t i = 0; i < k; i++) {
    log.Append(EntryType::kTraceTime, content);
  }
  BatchAuthenticator batch = BatchAuthenticator::FromLog(log, signer, 1, k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(batch.Verify(registry).ok);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_BatchVerifyAmortized)->Arg(1)->Arg(8)->Arg(32)->Unit(benchmark::kMicrosecond);

void BM_LzssCompress(benchmark::State& state) {
  // Log-like input: repetitive structure with varying values.
  Bytes data;
  Prng rng(7);
  for (int i = 0; i < 2000; i++) {
    Append(data, ToBytes("TIMETRACKER"));
    PutU64(data, 1000000 + static_cast<uint64_t>(i) * 997);
    PutU32(data, static_cast<uint32_t>(rng.Next()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(LzssCompress(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_LzssCompress);

// Hand-timed counterparts of the headline numbers, emitted as
// BENCH_crypto_micro.json so the perf trajectory is tracked PR-over-PR
// without parsing google-benchmark's output.
void EmitJson() {
  BenchJson json("crypto_micro");
  Prng rng(41);
  Signer signer("bench", SignatureScheme::kRsa768, rng);
  KeyRegistry registry;
  registry.RegisterSigner(signer);
  Bytes content = rng.RandomBytes(48);

  {
    // One RSA-768 sign, cached Montgomery contexts.
    Bytes msg = rng.RandomBytes(64);
    constexpr int kIters = 50;
    Bytes sig = signer.Sign(msg);  // Warm.
    WallTimer t;
    for (int i = 0; i < kIters; i++) {
      sig = signer.Sign(msg);
    }
    json.Add("rsa768_sign", t.ElapsedSeconds() * 1e6 / kIters, "us");
  }
  for (uint64_t k : {1u, 8u, 32u}) {
    TamperEvidentLog log("bench");
    constexpr int kWindows = 20;
    WallTimer t;
    for (int w = 0; w < kWindows; w++) {
      for (uint64_t i = 0; i < k; i++) {
        log.Append(EntryType::kTraceTime, content);
      }
      Authenticator a = log.Authenticate(signer);
      (void)a;
    }
    json.Add("sign_batch_k" + std::to_string(k) + "_per_entry",
             t.ElapsedSeconds() * 1e6 / (kWindows * static_cast<double>(k)), "us");
  }
  {
    // RSA-768 key generation, averaged over eight seeds: the number of
    // prime candidates, and so the cost, varies from key to key.
    constexpr int kKeys = 8;
    WallTimer t;
    for (int i = 0; i < kKeys; i++) {
      Prng r2(100 + i);
      benchmark::DoNotOptimize(RsaKeypair::Generate(r2, 768));
    }
    json.Add("rsa768_keygen", t.ElapsedSeconds() * 1e3 / kKeys, "ms");
  }
  {
    // RSA-768 verify (e = 65537 on the 12-limb modulus).
    Bytes msg = rng.RandomBytes(64);
    const Bytes sig = signer.Sign(msg);
    constexpr int kIters = 500;
    bool ok = true;
    WallTimer t;
    for (int i = 0; i < kIters; i++) {
      ok &= RsaVerify(*signer.public_key(), msg, sig);
    }
    json.Add("rsa768_verify", t.ElapsedSeconds() * 1e6 / kIters, "us");
    if (!ok) {
      std::fprintf(stderr, "rsa768_verify: signature rejected\n");
    }
  }
  for (size_t bits : {384u, 768u, 1024u, 2048u}) {
    // One full-length exponentiation per width, cached context.
    Prng r2(43);
    const PowModInput in = RandomPowModInput(r2, bits);
    const Montgomery ctx(in.m);
    const int iters = bits <= 768 ? 200 : 20;
    uint64_t sink = 0;
    WallTimer t;
    for (int i = 0; i < iters; i++) {
      sink ^= ctx.PowMod(in.base, in.exp).LowU64();
    }
    benchmark::DoNotOptimize(sink);
    json.Add("montgomery_powmod_" + std::to_string(bits), t.ElapsedSeconds() * 1e6 / iters, "us");
  }
  {
    // The cost the per-key cache removes from every ModExp.
    Prng r2(42);
    RsaKeypair kp = RsaKeypair::Generate(r2, 768);
    constexpr int kIters = 200;
    WallTimer t;
    for (int i = 0; i < kIters; i++) {
      Montgomery ctx(kp.pub.n);
      (void)ctx;
    }
    json.Add("montgomery_ctx_build_768", t.ElapsedSeconds() * 1e6 / kIters, "us");
  }
  json.Write();
}

}  // namespace
}  // namespace avm

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  avm::EmitJson();
  return 0;
}
