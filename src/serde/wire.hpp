// Binary wire format: little-endian fixed-width ints, LEB128 varints with
// zigzag for signed values, length-prefixed strings. Writer appends to a
// Buffer; Reader consumes a span with explicit error reporting (Status), so
// corrupted simulated blocks surface as kDataLoss instead of UB.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

#include "common/status.hpp"
#include "serde/buffer.hpp"

namespace asyncmr::serde {

static_assert(std::endian::native == std::endian::little,
              "asyncmr wire format assumes a little-endian host");

/// Zigzag encoding maps signed to unsigned preserving small magnitudes.
constexpr uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
constexpr int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Longest LEB128 encoding of a uint64_t.
inline constexpr size_t kMaxVarU64Bytes = 10;

/// Encoded length of v as a LEB128 varint (1..kMaxVarU64Bytes bytes).
constexpr size_t VarU64Size(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    ++n;
    v >>= 7;
  }
  return n;
}

/// Encodes v as a LEB128 varint into out (room for kMaxVarU64Bytes);
/// returns the number of bytes written.
inline size_t EncodeVarU64(uint64_t v, uint8_t* out) {
  size_t n = 0;
  while (v >= 0x80) {
    out[n++] = static_cast<uint8_t>(v | 0x80);
    v >>= 7;
  }
  out[n++] = static_cast<uint8_t>(v);
  return n;
}

/// A Writer either appends to a Buffer or, in counting mode, measures the
/// encoded size without storing any bytes — so EncodedSize() costs no
/// allocation or copying.
class Writer {
 public:
  explicit Writer(Buffer& buffer) : buf_(&buffer) {}

  /// A counting writer: Write* calls tally bytes_counted() instead of
  /// producing output.
  static Writer Counting() { return Writer(); }

  void WriteU8(uint8_t v) {
    if (buf_ != nullptr) {
      buf_->AppendByte(v);
    } else {
      ++counted_;
    }
  }
  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteF64(double v) { WriteRaw(&v, sizeof(v)); }
  void WriteF32(float v) { WriteRaw(&v, sizeof(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  void WriteVarU64(uint64_t v) {
    if (buf_ == nullptr) {
      counted_ += VarU64Size(v);
      return;
    }
    buf_->AppendUpTo(kMaxVarU64Bytes, [v](uint8_t* out) { return EncodeVarU64(v, out); });
  }

  void WriteVarI64(int64_t v) { WriteVarU64(ZigzagEncode(v)); }

  void WriteString(std::string_view s) {
    WriteVarU64(s.size());
    WriteRaw(s.data(), s.size());
  }

  void WriteBytes(std::span<const uint8_t> bytes) {
    WriteVarU64(bytes.size());
    WriteRaw(bytes.data(), bytes.size());
  }

  /// Bytes tallied in counting mode (0 for a buffer-backed writer).
  size_t bytes_counted() const { return counted_; }

 private:
  Writer() = default;  // counting mode

  void WriteRaw(const void* src, size_t n) {
    if (buf_ != nullptr) {
      buf_->Append(src, n);
    } else {
      counted_ += n;
    }
  }

  Buffer* buf_ = nullptr;
  size_t counted_ = 0;
};

class Reader {
 public:
  explicit Reader(std::span<const uint8_t> bytes) : bytes_(bytes) {}
  explicit Reader(const Buffer& buffer) : bytes_(buffer.view()) {}

  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }
  size_t position() const { return pos_; }

  Status ReadU8(uint8_t& out) { return ReadRaw(&out, sizeof(out)); }
  Status ReadU32(uint32_t& out) { return ReadRaw(&out, sizeof(out)); }
  Status ReadU64(uint64_t& out) { return ReadRaw(&out, sizeof(out)); }
  Status ReadI64(int64_t& out) { return ReadRaw(&out, sizeof(out)); }
  Status ReadF64(double& out) { return ReadRaw(&out, sizeof(out)); }
  Status ReadF32(float& out) { return ReadRaw(&out, sizeof(out)); }

  Status ReadBool(bool& out) {
    uint8_t b = 0;
    AMR_RETURN_IF_ERROR(ReadU8(b));
    if (b > 1) return Status::DataLoss("bool byte out of range");
    out = (b == 1);
    return Status::Ok();
  }

  Status ReadVarU64(uint64_t& out) {
    // Fast path: with kMaxVarU64Bytes left the varint cannot be truncated,
    // and one of at most 9 bytes (63 bits) cannot overflow; anything else
    // falls through to the checked loop.
    if (remaining() >= kMaxVarU64Bytes) {
      const uint8_t* p = bytes_.data() + pos_;
      uint64_t v = 0;
      for (size_t i = 0; i < 9; ++i) {
        v |= static_cast<uint64_t>(p[i] & 0x7f) << (7 * i);
        if (p[i] < 0x80) {
          out = v;
          pos_ += i + 1;
          return Status::Ok();
        }
      }
    }
    out = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= bytes_.size()) return Status::DataLoss("truncated varint");
      const uint8_t b = bytes_[pos_++];
      if (shift >= 63 && (b & 0x7f) > 1) return Status::DataLoss("varint overflow");
      out |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return Status::Ok();
      shift += 7;
    }
  }

  Status ReadVarI64(int64_t& out) {
    uint64_t raw = 0;
    AMR_RETURN_IF_ERROR(ReadVarU64(raw));
    out = ZigzagDecode(raw);
    return Status::Ok();
  }

  Status ReadString(std::string& out) {
    uint64_t len = 0;
    AMR_RETURN_IF_ERROR(ReadVarU64(len));
    if (len > remaining()) return Status::DataLoss("truncated string");
    out.assign(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return Status::Ok();
  }

  Status ReadBytes(std::vector<uint8_t>& out) {
    uint64_t len = 0;
    AMR_RETURN_IF_ERROR(ReadVarU64(len));
    if (len > remaining()) return Status::DataLoss("truncated bytes");
    out.assign(bytes_.data() + pos_, bytes_.data() + pos_ + len);
    pos_ += len;
    return Status::Ok();
  }

  Status Skip(size_t n) {
    if (n > remaining()) return Status::DataLoss("skip past end");
    pos_ += n;
    return Status::Ok();
  }

 private:
  Status ReadRaw(void* dst, size_t n) {
    if (n > remaining()) return Status::DataLoss("truncated record");
    std::memcpy(dst, bytes_.data() + pos_, n);
    pos_ += n;
    return Status::Ok();
  }

  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
};

}  // namespace asyncmr::serde
