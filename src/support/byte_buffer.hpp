#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/assert.hpp"

/// \file byte_buffer.hpp
/// Flat byte-oriented serialization used for every message payload that
/// crosses a (real or emulated) processor boundary. Mobile objects serialize
/// themselves through a Writer when they migrate and rebuild from a Reader on
/// the destination; keeping the wire format explicit is what lets the thread
/// backend and the discrete-event backend share all protocol code.
///
/// Every message payload passes through a ByteWriter, so `put` is on the
/// hot path of the whole runtime: an append that fits is an inline bounds
/// check and a memcpy; only growth (geometric, like std::vector's) calls
/// into the vector.

namespace prema::util {

/// Append-only serialization sink producing a contiguous byte vector.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { bytes_.reserve(reserve); }

  /// Append the raw object representation of a trivially copyable value.
  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ByteWriter::put requires a trivially copyable type");
    append(&value, sizeof(T));
  }

  /// Append a length-prefixed byte span.
  void put_bytes(std::span<const std::uint8_t> data) {
    put<std::uint64_t>(data.size());
    append(data.data(), data.size());
  }

  /// Append a length-prefixed string.
  void put_string(const std::string& s) {
    put<std::uint64_t>(s.size());
    append(s.data(), s.size());
  }

  /// Append a length-prefixed vector of trivially copyable elements.
  template <typename T>
  void put_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put<std::uint64_t>(v.size());
    append(v.data(), v.size() * sizeof(T));
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  /// The bytes written so far (valid until the next put or take).
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {bytes_.data(), size_};
  }

  /// Move the accumulated bytes out; the writer is left empty and reusable.
  std::vector<std::uint8_t> take() {
    bytes_.resize(size_);  // shrinks only: drops the unwritten tail
    size_ = 0;
    return std::exchange(bytes_, {});
  }

 private:
  // bytes_ is sized to its high-water mark and size_ counts the bytes
  // written, so an append that fits is a plain memcpy: no per-put
  // vector::resize (out of line, zero-filling) and no inlined range insert
  // (on which GCC 12's optimizer raises false -Wstringop-overflow).
  void append(const void* data, std::size_t n) {
    if (n == 0) return;
    if (bytes_.size() - size_ < n) grow(size_ + n);
    std::memcpy(bytes_.data() + size_, data, n);
    size_ += n;
  }

  /// Make room for `need` bytes: at least double the buffer, and fill any
  /// capacity reserved up front, so appends stay amortized O(1).
  void grow(std::size_t need) {
    bytes_.resize(std::max({need, 2 * bytes_.size(), bytes_.capacity()}));
  }

  std::vector<std::uint8_t> bytes_;
  std::size_t size_ = 0;
};

/// Sequential deserialization source over a byte span. Bounds-checked: reading
/// past the end aborts (a malformed message is a protocol bug, not user error).
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  /// Read back a trivially copyable value written by ByteWriter::put.
  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    PREMA_CHECK_MSG(pos_ + sizeof(T) <= bytes_.size(), "ByteReader overrun");
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  /// Read a length-prefixed byte vector written by put_bytes.
  std::vector<std::uint8_t> get_bytes() {
    const auto n = get<std::uint64_t>();
    PREMA_CHECK_MSG(pos_ + n <= bytes_.size(), "ByteReader overrun (bytes)");
    std::vector<std::uint8_t> out(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  /// Read a length-prefixed string written by put_string.
  std::string get_string() {
    const auto n = get<std::uint64_t>();
    PREMA_CHECK_MSG(pos_ + n <= bytes_.size(), "ByteReader overrun (string)");
    std::string out(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return out;
  }

  /// Read a length-prefixed vector written by put_vector.
  template <typename T>
  std::vector<T> get_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = get<std::uint64_t>();
    PREMA_CHECK_MSG(pos_ + n * sizeof(T) <= bytes_.size(), "ByteReader overrun (vector)");
    std::vector<T> out(n);
    std::memcpy(out.data(), bytes_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return out;
  }

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace prema::util
