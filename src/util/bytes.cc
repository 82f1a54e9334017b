#include "src/util/bytes.h"

#include <stdexcept>

namespace avm {

Bytes ToBytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string ToString(ByteView b) {
  return std::string(b.begin(), b.end());
}

std::string HexEncode(ByteView b) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (uint8_t c : b) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

namespace {
int HexVal(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  throw std::invalid_argument("HexDecode: bad hex digit");
}
}  // namespace

Bytes HexDecode(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("HexDecode: odd length");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<uint8_t>((HexVal(hex[i]) << 4) | HexVal(hex[i + 1])));
  }
  return out;
}

namespace {
template <typename T>
void PutLe(Bytes& out, T v) {
  const size_t at = out.size();
  out.resize(at + sizeof(v));
  StoreLe(out.data() + at, v);
}
}  // namespace

void PutU16(Bytes& out, uint16_t v) { PutLe(out, v); }
void PutU32(Bytes& out, uint32_t v) { PutLe(out, v); }
void PutU64(Bytes& out, uint64_t v) { PutLe(out, v); }

uint16_t GetU16(ByteView in, size_t off) {
  return static_cast<uint16_t>(in[off]) | static_cast<uint16_t>(in[off + 1]) << 8;
}

uint32_t GetU32(ByteView in, size_t off) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; i--) {
    v = (v << 8) | in[off + static_cast<size_t>(i)];
  }
  return v;
}

uint64_t GetU64(ByteView in, size_t off) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; i--) {
    v = (v << 8) | in[off + static_cast<size_t>(i)];
  }
  return v;
}

bool BytesEqual(ByteView a, ByteView b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); i++) {
    if (a[i] != b[i]) {
      return false;
    }
  }
  return true;
}

void Append(Bytes& dst, ByteView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

}  // namespace avm
