// Little-endian field streams shared by every on-disk format.
//
// Every multi-byte integer is written least-significant byte first and every
// double as the little-endian bytes of its IEEE-754 bit pattern, so payloads
// (and their digests) are identical across platforms; `ftmc check` verifies
// them offline with the same readers.  The checkpoint codec
// (ftmc/dse/checkpoint.cpp) and the persistent evaluation store
// (ftmc/core/eval_store.cpp) both build their record formats on these
// primitives; a decode past the end of the buffer or an absurd sequence
// length throws ByteStreamError with the caller-supplied context string, so
// the error names which artifact is damaged.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ftmc::util {

class ByteStreamError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ByteWriter {
 public:
  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  std::size_t size() const { return bytes_.size(); }

  void u8(std::uint8_t value) { bytes_.push_back(value); }
  void u32(std::uint32_t value) {
    for (int i = 0; i < 4; ++i)
      bytes_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
  void u64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i)
      bytes_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
  void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }
  void size(std::size_t value) { u64(static_cast<std::uint64_t>(value)); }

  void bytes8(std::span<const std::uint8_t> values) {
    size(values.size());
    bytes_.insert(bytes_.end(), values.begin(), values.end());
  }
  void bits(const std::vector<bool>& values) {
    size(values.size());
    for (bool bit : values) u8(bit ? 1 : 0);
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

class ByteReader {
 public:
  /// `context` prefixes every error message ("checkpoint payload",
  /// "store record", ...) so a truncation names the damaged artifact.
  explicit ByteReader(std::span<const std::uint8_t> bytes,
                      std::string context = "byte stream")
      : bytes_(bytes), context_(std::move(context)) {}

  std::size_t remaining() const { return bytes_.size() - offset_; }
  std::size_t offset() const { return offset_; }

  std::uint8_t u8() {
    need(1);
    return bytes_[offset_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i)
      value |= static_cast<std::uint32_t>(bytes_[offset_++]) << (8 * i);
    return value;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
      value |= static_cast<std::uint64_t>(bytes_[offset_++]) << (8 * i);
    return value;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// Length prefix for a sequence whose elements take >= `element_bytes`
  /// each; rejects lengths the remaining payload cannot possibly hold, so a
  /// corrupted count fails loudly instead of allocating gigabytes.
  std::size_t length(std::size_t element_bytes) {
    const std::uint64_t count = u64();
    if (element_bytes != 0 && count > remaining() / element_bytes)
      throw ByteStreamError(context_ + " is truncated: sequence length " +
                            std::to_string(count) +
                            " exceeds the remaining " +
                            std::to_string(remaining()) + " bytes");
    return static_cast<std::size_t>(count);
  }

  std::vector<std::uint8_t> bytes8() {
    const std::size_t count = length(1);
    need(count);
    std::vector<std::uint8_t> values(bytes_.begin() + offset_,
                                     bytes_.begin() + offset_ + count);
    offset_ += count;
    return values;
  }
  std::vector<bool> bits() {
    const std::size_t count = length(1);
    std::vector<bool> values(count);
    for (std::size_t i = 0; i < count; ++i) values[i] = u8() != 0;
    return values;
  }

 private:
  void need(std::size_t count) const {
    if (count > remaining())
      throw ByteStreamError(context_ + " is truncated: need " +
                            std::to_string(count) + " more bytes at offset " +
                            std::to_string(offset_));
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t offset_ = 0;
  std::string context_;
};

}  // namespace ftmc::util
