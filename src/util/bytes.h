// Byte-buffer helpers shared by every module.
#ifndef SRC_UTIL_BYTES_H_
#define SRC_UTIL_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace avm {

using Bytes = std::vector<uint8_t>;
using ByteView = std::span<const uint8_t>;

// Converts an arbitrary string to its byte representation.
Bytes ToBytes(std::string_view s);

// Converts a byte buffer to a std::string (bytes copied verbatim).
std::string ToString(ByteView b);

// Lower-case hex encoding ("deadbeef").
std::string HexEncode(ByteView b);

// Decodes a hex string; throws std::invalid_argument on malformed input.
Bytes HexDecode(std::string_view hex);

// Reverses the byte order of a 16/32/64-bit unsigned integer.
template <typename T>
inline T ByteSwap(T v) {
  static_assert(sizeof(T) == 2 || sizeof(T) == 4 || sizeof(T) == 8);
  if constexpr (sizeof(T) == 2) {
    return __builtin_bswap16(v);
  } else if constexpr (sizeof(T) == 4) {
    return __builtin_bswap32(v);
  } else {
    return __builtin_bswap64(v);
  }
}

// Writes the unsigned integer `v` to `dst[0, sizeof(v))` in
// little-endian (StoreLe) or big-endian (StoreBe) byte order: one
// fixed-size copy, byte-swapped first when the host order differs.
template <typename T>
inline void StoreLe(uint8_t* dst, T v) {
  if constexpr (std::endian::native != std::endian::little) {
    v = ByteSwap(v);
  }
  std::memcpy(dst, &v, sizeof(v));
}

template <typename T>
inline void StoreBe(uint8_t* dst, T v) {
  if constexpr (std::endian::native != std::endian::big) {
    v = ByteSwap(v);
  }
  std::memcpy(dst, &v, sizeof(v));
}

// Appends `v` to `out` in little-endian byte order (one grow of `out`,
// one fixed-size store).
void PutU16(Bytes& out, uint16_t v);
void PutU32(Bytes& out, uint32_t v);
void PutU64(Bytes& out, uint64_t v);

// Reads little-endian integers from `in` at byte offset `off`.
// The caller must guarantee the buffer is large enough.
uint16_t GetU16(ByteView in, size_t off);
uint32_t GetU32(ByteView in, size_t off);
uint64_t GetU64(ByteView in, size_t off);

// True iff the two buffers have identical length and contents.
bool BytesEqual(ByteView a, ByteView b);

// Appends the contents of `src` to `dst`.
void Append(Bytes& dst, ByteView src);

}  // namespace avm

#endif  // SRC_UTIL_BYTES_H_
