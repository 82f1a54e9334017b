#include "src/compress/lzss.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace avm {

namespace {

constexpr size_t kWindowBits = 13;               // 8 KiB window.
constexpr size_t kWindowSize = 1u << kWindowBits;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = kMinMatch + 255;    // Length field is one byte.
constexpr size_t kHashSize = 1u << 15;

inline uint32_t HashAt(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - 15);
}

// Length of the common prefix of `a` and `b`, up to `max_len`, compared
// eight bytes at a time.
inline size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t max_len) {
  size_t len = 0;
  for (; len + 8 <= max_len; len += 8) {
    uint64_t x;
    uint64_t y;
    std::memcpy(&x, a + len, 8);
    std::memcpy(&y, b + len, 8);
    if (const uint64_t diff = x ^ y; diff != 0) {
      const int bit = std::endian::native == std::endian::little ? std::countr_zero(diff)
                                                                 : std::countl_zero(diff);
      return len + static_cast<size_t>(bit / 8);
    }
  }
  while (len < max_len && a[len] == b[len]) {
    len++;
  }
  return len;
}

}  // namespace

// Format: u64 LE uncompressed size, then groups of [flags byte + 8 items].
// Flag bit 0 = literal byte; 1 = match: two bytes (offset-1, 13 bits |
// high 3 bits of nothing) -- encoded as u16 LE offset-1 then u8 length-4.
Bytes LzssCompress(ByteView data) {
  Bytes out;
  // Worst case: every byte a literal, plus one flags byte per eight.
  out.reserve(8 + data.size() + (data.size() + 7) / 8);
  PutU64(out, data.size());
  if (data.empty()) {
    return out;
  }

  // Head of the most recent position for each hash bucket.
  std::vector<int64_t> head(kHashSize, -1);
  // Hash chains over the window: slot p % kWindowSize holds how far back
  // the previous position with p's hash lies (0: none within the
  // window). A chain is only followed to positions inside the window,
  // whose slots no later position has reused yet.
  std::vector<uint32_t> prev_dist(kWindowSize, 0);
  auto insert = [&](size_t p) {
    const uint32_t h = HashAt(data.data() + p);
    const int64_t last = head[h];
    prev_dist[p & (kWindowSize - 1)] =
        last >= 0 && p - static_cast<size_t>(last) <= kWindowSize
            ? static_cast<uint32_t>(p - static_cast<size_t>(last))
            : 0;
    head[h] = static_cast<int64_t>(p);
  };

  size_t pos = 0;
  uint8_t flags = 0;
  int flag_count = 0;
  size_t flags_at = 0;
  bool group_open = false;

  // Records the flag bit for the item about to be emitted. The flags byte
  // for a group is allocated lazily when the group's first item arrives,
  // so item payloads always follow their own group's flags byte.
  auto flush_flag = [&](bool is_match) {
    if (!group_open) {
      flags_at = out.size();
      out.push_back(0);
      flags = 0;
      flag_count = 0;
      group_open = true;
    }
    if (is_match) {
      flags |= static_cast<uint8_t>(1u << flag_count);
    }
    flag_count++;
    if (flag_count == 8) {
      out[flags_at] = flags;
      group_open = false;
    }
  };

  while (pos < data.size()) {
    size_t best_len = 0;
    size_t best_off = 0;
    if (pos + kMinMatch <= data.size()) {
      const size_t max_len = std::min(kMaxMatch, data.size() - pos);
      int64_t cand = head[HashAt(data.data() + pos)];
      for (int chain = 0; cand >= 0 && pos - static_cast<size_t>(cand) <= kWindowSize &&
                          chain < 32 && best_len < max_len;
           chain++) {
        const size_t c = static_cast<size_t>(cand);
        // Only a candidate that also matches at best_len can beat it.
        if (data[c + best_len] == data[pos + best_len]) {
          const size_t len = MatchLength(data.data() + c, data.data() + pos, max_len);
          if (len > best_len) {
            best_len = len;
            best_off = pos - c;
          }
        }
        const uint32_t back = prev_dist[c & (kWindowSize - 1)];
        cand = back == 0 ? -1 : static_cast<int64_t>(c - back);
      }
      insert(pos);
    }

    if (best_len >= kMinMatch) {
      flush_flag(true);
      PutU16(out, static_cast<uint16_t>(best_off - 1));
      out.push_back(static_cast<uint8_t>(best_len - kMinMatch));
      // Insert hash entries for the skipped positions so later matches
      // can reference them.
      for (size_t i = 1; i < best_len && pos + i + kMinMatch <= data.size(); i++) {
        insert(pos + i);
      }
      pos += best_len;
    } else {
      flush_flag(false);
      out.push_back(data[pos]);
      pos++;
    }
  }
  if (group_open) {
    out[flags_at] = flags;
  }
  return out;
}

Bytes LzssDecompress(ByteView data) {
  if (data.size() < 8) {
    throw std::invalid_argument("LzssDecompress: truncated header");
  }
  const uint64_t orig_size = GetU64(data, 0);
  // orig_size is untrusted: compressed input expands at most ~130x here
  // (a match token is 3 bytes for up to 259 output bytes), so anything
  // beyond that bound is corrupt and must not trigger a huge allocation.
  if (orig_size > data.size() * 130 + 64) {
    throw std::invalid_argument("LzssDecompress: implausible uncompressed size");
  }
  Bytes out(orig_size);
  uint8_t* const dst = out.data();
  const uint8_t* const src = data.data();
  const size_t n = data.size();
  size_t o = 0;    // Output bytes written.
  size_t pos = 8;  // Input position.
  while (o < orig_size) {
    if (pos >= n) {
      throw std::invalid_argument("LzssDecompress: missing flags byte");
    }
    const uint8_t flags = src[pos++];
    if (flags == 0 && n - pos >= 8 && orig_size - o >= 8) {
      std::memcpy(dst + o, src + pos, 8);  // Eight literals.
      o += 8;
      pos += 8;
      continue;
    }
    for (int bit = 0; bit < 8 && o < orig_size; bit++) {
      if ((flags >> bit) & 1) {
        if (n - pos < 3) {
          throw std::invalid_argument("LzssDecompress: truncated match");
        }
        const size_t off = static_cast<size_t>(GetU16(data, pos)) + 1;
        const size_t len = static_cast<size_t>(src[pos + 2]) + kMinMatch;
        pos += 3;
        if (off > o) {
          throw std::invalid_argument("LzssDecompress: match before start");
        }
        if (len > orig_size - o) {
          throw std::invalid_argument("LzssDecompress: size mismatch");
        }
        uint8_t* const to = dst + o;
        const uint8_t* const from = to - off;
        if (off >= len) {
          std::memcpy(to, from, len);
        } else {
          for (size_t i = 0; i < len; i++) {
            to[i] = from[i];  // Overlapping: each byte may be one just written.
          }
        }
        o += len;
      } else {
        if (pos >= n) {
          throw std::invalid_argument("LzssDecompress: truncated literal");
        }
        dst[o++] = src[pos++];
      }
    }
  }
  return out;
}

void PutVarint(Bytes& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<uint8_t>(v));
}

uint64_t GetVarint(ByteView in, size_t* pos) {
  uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (*pos >= in.size() || shift > 63) {
      throw std::invalid_argument("GetVarint: truncated or overlong varint");
    }
    uint8_t b = in[(*pos)++];
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      break;
    }
    shift += 7;
  }
  return v;
}

uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

Bytes EncodeDeltaVarint(const std::vector<uint64_t>& values) {
  Bytes out;
  PutVarint(out, values.size());
  uint64_t prev = 0;
  for (uint64_t v : values) {
    int64_t delta = static_cast<int64_t>(v - prev);
    PutVarint(out, ZigZagEncode(delta));
    prev = v;
  }
  return out;
}

std::vector<uint64_t> DecodeDeltaVarint(ByteView data) {
  size_t pos = 0;
  uint64_t n = GetVarint(data, &pos);
  std::vector<uint64_t> out;
  // n is untrusted: each value needs at least one input byte.
  out.reserve(std::min<uint64_t>(n, data.size()));
  uint64_t prev = 0;
  for (uint64_t i = 0; i < n; i++) {
    int64_t delta = ZigZagDecode(GetVarint(data, &pos));
    prev += static_cast<uint64_t>(delta);
    out.push_back(prev);
  }
  return out;
}

}  // namespace avm
