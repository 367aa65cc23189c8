// Binary serialization for network messages.
//
// A small, explicit little-endian codec used by the net/ transports to frame
// protocol messages.  No reflection, no surprises: every message type states
// exactly what it writes and reads, and readers validate lengths so that a
// truncated or corrupt frame raises CodecError rather than reading garbage.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace poly::util {

/// Thrown when a reader runs past the end of a buffer or a length prefix is
/// implausible.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only little-endian byte buffer writer.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Encodes into `backing` (cleared, capacity kept) — the pooled-buffer
  /// path: pass a recycled vector, take() the frame, and the capacity
  /// survives the round trip instead of being reallocated per message.
  explicit ByteWriter(std::vector<std::uint8_t> backing) noexcept
      : buf_(std::move(backing)) {
    buf_.clear();
  }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append(&v, sizeof v); }
  void u32(std::uint32_t v) { append(&v, sizeof v); }
  void u64(std::uint64_t v) { append(&v, sizeof v); }
  void f64(double v) { append(&v, sizeof v); }
  void bytes(const void* data, std::size_t n) { append(data, n); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    append(s.data(), s.size());
  }

  const std::vector<std::uint8_t>& data() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }
  std::size_t size() const noexcept { return buf_.size(); }

 private:
  void append(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian reader over a borrowed buffer.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size) noexcept
      : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& buf) noexcept
      : ByteReader(buf.data(), buf.size()) {}

  std::uint8_t u8() { return read_pod<std::uint8_t>(); }
  std::uint16_t u16() { return read_pod<std::uint16_t>(); }
  std::uint32_t u32() { return read_pod<std::uint32_t>(); }
  std::uint64_t u64() { return read_pod<std::uint64_t>(); }
  double f64() { return read_pod<double>(); }

  std::string str() {
    const std::uint32_t n = u32();
    require(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  std::size_t remaining() const noexcept { return size_ - pos_; }
  bool done() const noexcept { return pos_ == size_; }

 private:
  template <typename T>
  T read_pod() {
    require(sizeof(T));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  void require(std::size_t n) const {
    if (remaining() < n) throw CodecError("ByteReader: truncated buffer");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace poly::util
