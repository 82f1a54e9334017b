#include "src/crypto/sha256.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRYPTO)
#include <arm_neon.h>
#endif

namespace avm {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

constexpr uint32_t kInitState[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

// Blocks in the padded message: the data, 0x80, then the 8-byte length.
constexpr size_t PaddedBlocks(size_t len) { return (len + 8) / 64 + 1; }

// Builds the padded message's blocks from block `in_place` on (the
// bytes of `in` past the first in_place * 64, then 0x80, zeros and the
// bit length) in `tail`, and returns how many blocks it wrote. The
// caller keeps that at two or fewer: in_place is len / 64, or 0 for a
// message of at most two padded blocks.
size_t PadTail(ByteView in, size_t in_place, uint8_t (&tail)[128]) {
  const size_t len = in.size();
  const size_t start = in_place * 64;
  const size_t rest = len - start;
  const size_t tail_len = PaddedBlocks(len) * 64 - start;
  if (rest > 0) {
    std::memcpy(tail, in.data() + start, rest);
  }
  tail[rest] = 0x80;
  std::memset(tail + rest + 1, 0, tail_len - rest - 1 - 8);
  StoreBe(tail + tail_len - 8, static_cast<uint64_t>(len) * 8);
  return tail_len / 64;
}

Hash256 StateDigest(const uint32_t state[8]) {
  Hash256 out;
  for (int j = 0; j < 8; j++) {
    StoreBe(out.v.data() + 4 * j, state[j]);
  }
  return out;
}

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// Portable FIPS 180-4 compression over `blocks` consecutive 64-byte
// blocks. This is the reference the hardware paths must agree with.
void CompressPortableBlocks(uint32_t state[8], const uint8_t* data, size_t blocks) {
  for (; blocks > 0; blocks--, data += 64) {
    const uint8_t* block = data;
    uint32_t w[64];
    for (int i = 0; i < 16; i++) {
      w[i] = static_cast<uint32_t>(block[4 * i]) << 24 |
             static_cast<uint32_t>(block[4 * i + 1]) << 16 |
             static_cast<uint32_t>(block[4 * i + 2]) << 8 | static_cast<uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; i++) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; i++) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__) || defined(__i386__)
#define AVM_SHA256_HW 1

// SHA-NI compression (one _mm_sha256rnds2 pair per 4 rounds). The
// message-schedule recurrence follows the canonical Intel dataflow:
// next quad = msg2(msg1(W0, W1) + alignr(W3, W2, 4), W3). Quads rotate
// through W0..W3, so W0 is always the quad entering the rounds.
__attribute__((target("sha,sse4.1,ssse3"))) void CompressShaNiBlocks(uint32_t state[8],
                                                                     const uint8_t* data,
                                                                     size_t blocks) {
  const __m128i kByteSwap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  // Repack {a..d}, {e..h} into the ABEF/CDGH lane order rnds2 consumes.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);
  state1 = _mm_shuffle_epi32(state1, 0x1B);
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);

  for (; blocks > 0; blocks--, data += 64) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;

    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(data)), kByteSwap);
    __m128i w1 =
        _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16)), kByteSwap);
    __m128i w2 =
        _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32)), kByteSwap);
    __m128i w3 =
        _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48)), kByteSwap);

    for (int q = 0; q < 16; q++) {
      if (q >= 4) {
        __m128i sched = _mm_sha256msg1_epu32(w0, w1);
        sched = _mm_add_epi32(sched, _mm_alignr_epi8(w3, w2, 4));
        w0 = _mm_sha256msg2_epu32(sched, w3);
      }
      __m128i msg = _mm_add_epi32(w0, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * q])));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      msg = _mm_shuffle_epi32(msg, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
      const __m128i rot = w0;
      w0 = w1;
      w1 = w2;
      w2 = w3;
      w3 = rot;
    }

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
  }

  // Unpack ABEF/CDGH back to {a..d}, {e..h}.
  tmp = _mm_shuffle_epi32(state0, 0x1B);
  state1 = _mm_shuffle_epi32(state1, 0xB1);
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);
  state1 = _mm_alignr_epi8(state1, tmp, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

// Two independent messages, each `blocks` padded 64-byte blocks long,
// compressed in lockstep: block b of lane l comes from block_ptr(l, b).
// One message's rounds are a chain of dependent rnds2 instructions;
// interleaving two chains keeps the SHA unit busy in the gaps. Two is
// the most lanes whose state and schedule (six registers a lane) fit the
// sixteen xmm registers the SHA instructions can address: four lanes
// spill, and measured no faster than one.
template <typename BlockPtr>
__attribute__((target("sha,sse4.1,ssse3"))) void CompressShaNi2(uint32_t state[2][8], size_t blocks,
                                                                const BlockPtr& block_ptr) {
  constexpr int kLanes = 2;
  const __m128i kByteSwap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i s0[kLanes];
  __m128i s1[kLanes];
#pragma GCC unroll 2
  for (int l = 0; l < kLanes; l++) {
    __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[l][0]));
    __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[l][4]));
    tmp = _mm_shuffle_epi32(tmp, 0xB1);
    cdgh = _mm_shuffle_epi32(cdgh, 0x1B);
    s0[l] = _mm_alignr_epi8(tmp, cdgh, 8);
    s1[l] = _mm_blend_epi16(cdgh, tmp, 0xF0);
  }
  for (size_t b = 0; b < blocks; b++) {
    __m128i abef_save[kLanes];
    __m128i cdgh_save[kLanes];
    __m128i w[kLanes][4];
#pragma GCC unroll 2
    for (int l = 0; l < kLanes; l++) {
      abef_save[l] = s0[l];
      cdgh_save[l] = s1[l];
      const uint8_t* data = block_ptr(l, b);
#pragma GCC unroll 4
      for (int k = 0; k < 4; k++) {
        w[l][k] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * k)), kByteSwap);
      }
    }
    // Quad q of the schedule lives in w[l][q % 4], the same recurrence as
    // the single-lane path with the rotation done by indexing.
#pragma GCC unroll 16
    for (int q = 0; q < 16; q++) {
      const __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * q]));
#pragma GCC unroll 2
      for (int l = 0; l < kLanes; l++) {
        if (q >= 4) {
          __m128i sched = _mm_sha256msg1_epu32(w[l][q % 4], w[l][(q + 1) % 4]);
          sched = _mm_add_epi32(sched, _mm_alignr_epi8(w[l][(q + 3) % 4], w[l][(q + 2) % 4], 4));
          w[l][q % 4] = _mm_sha256msg2_epu32(sched, w[l][(q + 3) % 4]);
        }
        __m128i msg = _mm_add_epi32(w[l][q % 4], k);
        s1[l] = _mm_sha256rnds2_epu32(s1[l], s0[l], msg);
        msg = _mm_shuffle_epi32(msg, 0x0E);
        s0[l] = _mm_sha256rnds2_epu32(s0[l], s1[l], msg);
      }
    }
#pragma GCC unroll 2
    for (int l = 0; l < kLanes; l++) {
      s0[l] = _mm_add_epi32(s0[l], abef_save[l]);
      s1[l] = _mm_add_epi32(s1[l], cdgh_save[l]);
    }
  }
#pragma GCC unroll 2
  for (int l = 0; l < kLanes; l++) {
    const __m128i tmp = _mm_shuffle_epi32(s0[l], 0x1B);
    const __m128i cdgh = _mm_shuffle_epi32(s1[l], 0xB1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[l][0]), _mm_blend_epi16(tmp, cdgh, 0xF0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[l][4]), _mm_alignr_epi8(cdgh, tmp, 8));
  }
}

bool DetectShaHardware() {
  return __builtin_cpu_supports("sha") != 0 && __builtin_cpu_supports("sse4.1") != 0 &&
         __builtin_cpu_supports("ssse3") != 0;
}

#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRYPTO)
#define AVM_SHA256_HW 1

// ARMv8 crypto-extension compression; same quad-rotation dataflow as the
// x86 path, with vsha256su0/su1 forming the schedule.
void CompressShaNiBlocks(uint32_t state[8], const uint8_t* data, size_t blocks) {
  uint32x4_t state0 = vld1q_u32(&state[0]);
  uint32x4_t state1 = vld1q_u32(&state[4]);

  for (; blocks > 0; blocks--, data += 64) {
    const uint32x4_t abcd_save = state0;
    const uint32x4_t efgh_save = state1;

    uint32x4_t w0 = vreinterpretq_u32_u8(vrev32q_u8(vld1q_u8(data)));
    uint32x4_t w1 = vreinterpretq_u32_u8(vrev32q_u8(vld1q_u8(data + 16)));
    uint32x4_t w2 = vreinterpretq_u32_u8(vrev32q_u8(vld1q_u8(data + 32)));
    uint32x4_t w3 = vreinterpretq_u32_u8(vrev32q_u8(vld1q_u8(data + 48)));

    for (int q = 0; q < 16; q++) {
      if (q >= 4) {
        w0 = vsha256su1q_u32(vsha256su0q_u32(w0, w1), w2, w3);
      }
      const uint32x4_t msg = vaddq_u32(w0, vld1q_u32(&kK[4 * q]));
      const uint32x4_t prev0 = state0;
      state0 = vsha256hq_u32(state0, state1, msg);
      state1 = vsha256h2q_u32(state1, prev0, msg);
      const uint32x4_t rot = w0;
      w0 = w1;
      w1 = w2;
      w2 = w3;
      w3 = rot;
    }

    state0 = vaddq_u32(state0, abcd_save);
    state1 = vaddq_u32(state1, efgh_save);
  }

  vst1q_u32(&state[0], state0);
  vst1q_u32(&state[4], state1);
}

// Compiled only when the target baseline guarantees the extension.
bool DetectShaHardware() { return true; }

#else

bool DetectShaHardware() { return false; }

#endif

}  // namespace

Hash256 Hash256::FromBytes(ByteView b) {
  if (b.size() != 32) {
    throw std::invalid_argument("Hash256::FromBytes: need 32 bytes");
  }
  Hash256 h;
  std::memcpy(h.v.data(), b.data(), 32);
  return h;
}

bool Sha256::HardwareAvailable() {
  static const bool available = DetectShaHardware();
  return available;
}

namespace {

decltype(&CompressPortableBlocks) ActiveCompressFn() {
#ifdef AVM_SHA256_HW
  if (Sha256::HardwareAvailable()) {
    return &CompressShaNiBlocks;
  }
#endif
  return &CompressPortableBlocks;
}

}  // namespace

Sha256::Sha256() : compress_(ActiveCompressFn()) {
  std::memcpy(state_, kInitState, sizeof(state_));
}

Sha256 Sha256::PortableForTesting() {
  Sha256 h;
  h.compress_ = &CompressPortableBlocks;
  return h;
}

Sha256& Sha256::Update(ByteView data) {
  if (finished_) {
    throw std::logic_error("Sha256: Update after Finish");
  }
  if (data.empty()) {
    return *this;
  }
  total_len_ += data.size();
  const uint8_t* p = data.data();
  size_t n = data.size();
  if (buf_len_ > 0) {
    const size_t take = std::min(n, sizeof(buf_) - buf_len_);
    std::memcpy(buf_ + buf_len_, p, take);
    buf_len_ += take;
    p += take;
    n -= take;
    if (buf_len_ < sizeof(buf_)) {
      return *this;
    }
    compress_(state_, buf_, 1);
    buf_len_ = 0;
  }
  if (n >= 64) {
    const size_t blocks = n / 64;
    compress_(state_, p, blocks);
    p += blocks * 64;
    n -= blocks * 64;
  }
  if (n > 0) {
    std::memcpy(buf_, p, n);
    buf_len_ = n;
  }
  return *this;
}

Sha256& Sha256::Update(std::string_view s) {
  return Update(ByteView(reinterpret_cast<const uint8_t*>(s.data()), s.size()));
}

Sha256& Sha256::UpdateU64(uint64_t v) {
  uint8_t b[8];
  StoreLe(b, v);
  return Update(ByteView(b, 8));
}

Hash256 Sha256::Finish() {
  if (finished_) {
    throw std::logic_error("Sha256: Finish called twice");
  }
  finished_ = true;
  // Padding, written in place: 0x80, zeros up to byte 56 of the last
  // block (spilling into a fresh block when fewer than 8 bytes remain),
  // then the 64-bit big-endian bit length.
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_ + buf_len_, 0, sizeof(buf_) - buf_len_);
    compress_(state_, buf_, 1);
    buf_len_ = 0;
  }
  std::memset(buf_ + buf_len_, 0, 56 - buf_len_);
  StoreBe(buf_ + 56, total_len_ * 8);
  compress_(state_, buf_, 1);
  return StateDigest(state_);
}

Hash256 Sha256::Digest(ByteView data) {
  // One pass with no streaming state: whole blocks are read in place and
  // the tail with its padding is built on the stack. A message of at
  // most two padded blocks (up to 119 bytes, as both of ChainHash's
  // are) goes onto the stack whole, so it costs one compression call.
  const size_t in_place = PaddedBlocks(data.size()) <= 2 ? 0 : data.size() / 64;
  uint8_t tail[128];
  const size_t tail_blocks = PadTail(data, in_place, tail);
  uint32_t state[8];
  std::memcpy(state, kInitState, sizeof(state));
  const CompressFn compress = ActiveCompressFn();
  if (in_place > 0) {
    compress(state, data.data(), in_place);
  }
  compress(state, tail, tail_blocks);
  return StateDigest(state);
}

namespace {

#if defined(AVM_SHA256_HW) && (defined(__x86_64__) || defined(__i386__))
// Digests two messages of `blocks` padded blocks each. Whole data
// blocks are read in place; each lane's last one or two blocks (the
// data tail plus padding) are built in `tails`.
void DigestTwo(const ByteView* in, Hash256* out, size_t blocks) {
  uint8_t tails[2][128];
  size_t full[2];
  uint32_t state[2][8];
  for (int l = 0; l < 2; l++) {
    full[l] = in[l].size() / 64;
    PadTail(in[l], full[l], tails[l]);
    std::memcpy(state[l], kInitState, sizeof(kInitState));
  }
  CompressShaNi2(state, blocks, [&](int l, size_t b) {
    return b < full[l] ? in[l].data() + b * 64 : tails[l] + (b - full[l]) * 64;
  });
  for (int l = 0; l < 2; l++) {
    out[l] = StateDigest(state[l]);
  }
}
#endif

}  // namespace

void Sha256::DigestMany(std::span<const ByteView> inputs, std::span<Hash256> outputs) {
  if (inputs.size() != outputs.size()) {
    throw std::invalid_argument("Sha256::DigestMany: one output per input");
  }
  size_t i = 0;
#if defined(AVM_SHA256_HW) && (defined(__x86_64__) || defined(__i386__))
  if (HardwareAvailable()) {
    for (; i + 2 <= inputs.size(); i += 2) {
      const size_t blocks = PaddedBlocks(inputs[i].size());
      if (PaddedBlocks(inputs[i + 1].size()) == blocks) {
        DigestTwo(&inputs[i], &outputs[i], blocks);
      } else {
        outputs[i] = Digest(inputs[i]);
        outputs[i + 1] = Digest(inputs[i + 1]);
      }
    }
  }
#endif
  for (; i < inputs.size(); i++) {
    outputs[i] = Digest(inputs[i]);
  }
}

Hash256 Sha256::Digest(std::string_view s) {
  return Digest(ByteView(reinterpret_cast<const uint8_t*>(s.data()), s.size()));
}

Hash256 HmacSha256(ByteView key, ByteView message) {
  uint8_t k[64] = {0};
  if (key.size() > 64) {
    Hash256 kh = Sha256::Digest(key);
    std::memcpy(k, kh.v.data(), 32);
  } else {
    std::memcpy(k, key.data(), key.size());
  }
  uint8_t ipad[64], opad[64];
  for (int i = 0; i < 64; i++) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  Sha256 inner;
  inner.Update(ByteView(ipad, 64)).Update(message);
  Hash256 ih = inner.Finish();
  Sha256 outer;
  outer.Update(ByteView(opad, 64)).Update(ih.view());
  return outer.Finish();
}

}  // namespace avm
