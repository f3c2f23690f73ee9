// Little-endian byte serialization primitives.
//
// All on-disk structures in this project (NTFS MFT records, registry hive
// cells, kernel crash dumps) are serialized through ByteWriter and parsed
// back through ByteReader. The low-level scanners consume only raw bytes,
// never live objects, which is the trust property the paper's low-level
// scans rely on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace gb {

/// Thrown when a parser encounters malformed or truncated input.
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends little-endian encoded values to a growable byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  /// Appends raw bytes verbatim.
  void bytes(std::span<const std::byte> data);
  /// Appends the bytes of a string (no terminator, may contain NULs).
  void str(std::string_view s);
  /// Appends `count` zero bytes.
  void zeros(std::size_t count);
  /// Pads with zeros until the buffer size is a multiple of `alignment`.
  void align(std::size_t alignment);

  /// Overwrites a previously written u16/u32 at `offset` (for back-patching
  /// sizes and offsets, as real on-disk formats require).
  void patch_u16(std::size_t offset, std::uint16_t v);
  void patch_u32(std::size_t offset, std::uint32_t v);
  void patch_u64(std::size_t offset, std::uint64_t v);

  std::size_t size() const { return buf_.size(); }
  std::span<const std::byte> view() const { return buf_; }
  std::vector<std::byte> take() && { return std::move(buf_); }
  const std::vector<std::byte>& buffer() const { return buf_; }

 private:
  std::vector<std::byte> buf_;
};

/// Reads little-endian values from a fixed byte span with bounds checking.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  /// Reads a u32 element count and bounds it by the input left: each
  /// element occupies at least `min_elem_bytes`, so a count that could not
  /// fit in remaining() throws ParseError before anything is sized from
  /// it. Use it for every count that feeds reserve()/resize().
  std::uint32_t count(std::size_t min_elem_bytes);

  /// Reads `count` raw bytes.
  std::vector<std::byte> bytes(std::size_t count);
  /// Reads `count` bytes as a string (may contain NULs).
  std::string str(std::size_t count);
  /// Skips `count` bytes.
  void skip(std::size_t count);
  /// Repositions the cursor.
  void seek(std::size_t offset);

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }

  /// Returns a sub-span [offset, offset+len) of the underlying data.
  std::span<const std::byte> subspan(std::size_t offset, std::size_t len) const;

 private:
  void require(std::size_t count) const;

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Converts a string to a byte vector (embedded NULs preserved).
std::vector<std::byte> to_bytes(std::string_view s);
/// Converts bytes back to a string.
std::string to_string(std::span<const std::byte> data);

}  // namespace gb
