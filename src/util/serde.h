// Minimal structured serialization used for log entries, packets, snapshots
// and evidence. Values are length-delimited and little-endian so the format
// is unambiguous; Reader throws SerdeError on truncated or malformed input
// (auditors must treat logs from other machines as untrusted data).
#ifndef SRC_UTIL_SERDE_H_
#define SRC_UTIL_SERDE_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "src/util/bytes.h"

namespace avm {

class SerdeError : public std::runtime_error {
 public:
  explicit SerdeError(const std::string& what) : std::runtime_error(what) {}
};

class Writer {
 public:
  Writer() = default;
  // Reserves room for `size_hint` bytes up front; a caller that knows
  // the exact encoded size fills the buffer with no reallocation.
  explicit Writer(size_t size_hint) { buf_.reserve(size_hint); }

  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v) { PutU16(buf_, v); }
  void U32(uint32_t v) { PutU32(buf_, v); }
  void U64(uint64_t v) { PutU64(buf_, v); }
  // Length-prefixed (u32) byte string.
  void Blob(ByteView b) {
    U32(static_cast<uint32_t>(b.size()));
    Append(buf_, b);
  }
  void Str(std::string_view s) { Blob(ByteView(reinterpret_cast<const uint8_t*>(s.data()), s.size())); }
  // Raw bytes with no length prefix (caller knows the size).
  void Raw(ByteView b) { Append(buf_, b); }

  const Bytes& bytes() const { return buf_; }
  Bytes Take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

class Reader {
 public:
  explicit Reader(ByteView data) : data_(data) {}

  uint8_t U8() {
    Need(1);
    return data_[pos_++];
  }
  uint16_t U16() {
    Need(2);
    uint16_t v = GetU16(data_, pos_);
    pos_ += 2;
    return v;
  }
  uint32_t U32() {
    Need(4);
    uint32_t v = GetU32(data_, pos_);
    pos_ += 4;
    return v;
  }
  uint64_t U64() {
    Need(8);
    uint64_t v = GetU64(data_, pos_);
    pos_ += 8;
    return v;
  }
  Bytes Blob() {
    ByteView v = BlobView();
    return Bytes(v.begin(), v.end());
  }
  std::string Str() {
    Bytes b = Blob();
    return ToString(b);
  }
  Bytes Raw(size_t n) {
    ByteView v = RawView(n);
    return Bytes(v.begin(), v.end());
  }
  // Non-copying forms of Blob and Raw: views into the reader's buffer,
  // valid for as long as that buffer is.
  ByteView BlobView() { return RawView(U32()); }
  ByteView RawView(size_t n) {
    Need(n);
    ByteView out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  // Throws unless the whole buffer has been consumed.
  void ExpectEnd() const {
    if (!AtEnd()) {
      throw SerdeError("trailing bytes in serialized value");
    }
  }

 private:
  void Need(size_t n) const {
    if (data_.size() - pos_ < n) {
      throw SerdeError("truncated serialized value");
    }
  }

  ByteView data_;
  size_t pos_ = 0;
};

}  // namespace avm

#endif  // SRC_UTIL_SERDE_H_
