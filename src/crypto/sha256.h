// From-scratch SHA-256 (FIPS 180-4). The paper's hash-chain log, Merkle
// snapshot trees and RSA signatures all build on this primitive.
#ifndef SRC_CRYPTO_SHA256_H_
#define SRC_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "src/util/bytes.h"

namespace avm {

// A 256-bit digest. Value type, comparable, hashable.
struct Hash256 {
  std::array<uint8_t, 32> v{};

  bool operator==(const Hash256& o) const { return v == o.v; }
  bool operator!=(const Hash256& o) const { return v != o.v; }
  bool operator<(const Hash256& o) const { return v < o.v; }

  bool IsZero() const {
    for (uint8_t b : v) {
      if (b != 0) {
        return false;
      }
    }
    return true;
  }

  ByteView view() const { return ByteView(v.data(), v.size()); }
  std::string Hex() const { return HexEncode(view()); }
  // First 8 hex chars; handy for log messages.
  std::string ShortHex() const { return Hex().substr(0, 8); }

  static Hash256 Zero() { return Hash256{}; }
  static Hash256 FromBytes(ByteView b);
};

// Streaming SHA-256. The compression function is dispatched at
// construction: x86 SHA-NI when the CPU has it (runtime-detected), the
// ARMv8 crypto extensions when the aarch64 target baseline enables them
// (__ARM_FEATURE_CRYPTO, i.e. -march=...+crypto — same policy as
// CRC-32C), and the portable FIPS 180-4 implementation otherwise.
// Digests are identical either way (sha256_test's agreement sweep).
//
// Buffering: Update copies into the 64-byte block buffer with memcpy only
// to complete a partial block or to keep a sub-block tail; whole blocks
// are compressed straight from the caller's data in one multi-block
// call. Finish writes the padding and length in place in that buffer,
// so a message of up to 55 bytes costs exactly one compression.
class Sha256 {
 public:
  Sha256();

  Sha256& Update(ByteView data);
  Sha256& Update(std::string_view s);
  // Convenience: append a little-endian u64 to the stream.
  Sha256& UpdateU64(uint64_t v);

  // Finalizes and returns the digest. The object must not be reused after.
  Hash256 Finish();

  // One-shot helpers. They keep no streaming state: whole blocks are
  // read in place and the tail is padded on the stack, so a message of
  // up to 119 bytes costs one compression call.
  static Hash256 Digest(ByteView data);
  static Hash256 Digest(std::string_view s);
  // outputs[i] = Digest(inputs[i]) for independent messages; throws
  // std::invalid_argument unless there is one output per input. On x86
  // SHA-NI, inputs go in neighbouring pairs, and a pair whose padded
  // block counts agree is compressed two lanes interleaved; every other
  // input (and every input on other targets) goes through Digest.
  static void DigestMany(std::span<const ByteView> inputs, std::span<Hash256> outputs);

  // True when the hardware compression unit is compiled in and present.
  static bool HardwareAvailable();
  // A hasher pinned to the portable compression function, for the
  // hardware/portable agreement tests (mirrors Crc32cPortable).
  static Sha256 PortableForTesting();

 private:
  // Compresses `blocks` consecutive 64-byte blocks.
  using CompressFn = void (*)(uint32_t state[8], const uint8_t* data, size_t blocks);

  CompressFn compress_;
  uint32_t state_[8];
  uint64_t total_len_ = 0;
  uint8_t buf_[64];
  size_t buf_len_ = 0;
  bool finished_ = false;
};

// HMAC-SHA256 (FIPS 198-1).
Hash256 HmacSha256(ByteView key, ByteView message);

}  // namespace avm

// Allow Hash256 as an unordered_map key.
template <>
struct std::hash<avm::Hash256> {
  size_t operator()(const avm::Hash256& h) const {
    size_t out;
    static_assert(sizeof(out) <= 32);
    __builtin_memcpy(&out, h.v.data(), sizeof(out));
    return out;
  }
};

#endif  // SRC_CRYPTO_SHA256_H_
