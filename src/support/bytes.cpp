#include "support/bytes.h"

#include <cstring>

namespace gb {

void ByteWriter::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v & 0xff));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v & 0xffff));
  u16(static_cast<std::uint16_t>(v >> 16));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v & 0xffffffffu));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void ByteWriter::bytes(std::span<const std::byte> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteWriter::str(std::string_view s) {
  for (char c : s) buf_.push_back(static_cast<std::byte>(c));
}

void ByteWriter::zeros(std::size_t count) {
  buf_.insert(buf_.end(), count, std::byte{0});
}

void ByteWriter::align(std::size_t alignment) {
  while (buf_.size() % alignment != 0) buf_.push_back(std::byte{0});
}

void ByteWriter::patch_u16(std::size_t offset, std::uint16_t v) {
  if (offset + 2 > buf_.size()) throw ParseError("patch_u16 out of range");
  buf_[offset] = static_cast<std::byte>(v & 0xff);
  buf_[offset + 1] = static_cast<std::byte>(v >> 8);
}

void ByteWriter::patch_u32(std::size_t offset, std::uint32_t v) {
  patch_u16(offset, static_cast<std::uint16_t>(v & 0xffff));
  patch_u16(offset + 2, static_cast<std::uint16_t>(v >> 16));
}

void ByteWriter::patch_u64(std::size_t offset, std::uint64_t v) {
  patch_u32(offset, static_cast<std::uint32_t>(v & 0xffffffffu));
  patch_u32(offset + 4, static_cast<std::uint32_t>(v >> 32));
}

void ByteReader::require(std::size_t count) const {
  if (pos_ + count > data_.size()) {
    throw ParseError("truncated input: need " + std::to_string(count) +
                     " bytes at offset " + std::to_string(pos_) + " of " +
                     std::to_string(data_.size()));
  }
}

std::uint8_t ByteReader::u8() {
  require(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint16_t ByteReader::u16() {
  const auto lo = u8();
  const auto hi = u8();
  return static_cast<std::uint16_t>(lo | (hi << 8));
}

std::uint32_t ByteReader::u32() {
  const std::uint32_t lo = u16();
  const std::uint32_t hi = u16();
  return lo | (hi << 16);
}

std::uint64_t ByteReader::u64() {
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return lo | (hi << 32);
}

std::uint32_t ByteReader::count(std::size_t min_elem_bytes) {
  const std::size_t at = pos_;
  const std::uint32_t n = u32();
  if (min_elem_bytes != 0 && n > remaining() / min_elem_bytes) {
    throw ParseError("element count " + std::to_string(n) + " at offset " +
                     std::to_string(at) + " exceeds the " +
                     std::to_string(remaining()) + " bytes left");
  }
  return n;
}

std::vector<std::byte> ByteReader::bytes(std::size_t count) {
  require(count);
  std::vector<std::byte> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                             data_.begin() +
                                 static_cast<std::ptrdiff_t>(pos_ + count));
  pos_ += count;
  return out;
}

std::string ByteReader::str(std::size_t count) {
  require(count);
  std::string out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(static_cast<char>(data_[pos_ + i]));
  }
  pos_ += count;
  return out;
}

void ByteReader::skip(std::size_t count) {
  require(count);
  pos_ += count;
}

void ByteReader::seek(std::size_t offset) {
  if (offset > data_.size()) throw ParseError("seek out of range");
  pos_ = offset;
}

std::span<const std::byte> ByteReader::subspan(std::size_t offset,
                                               std::size_t len) const {
  if (offset + len > data_.size()) throw ParseError("subspan out of range");
  return data_.subspan(offset, len);
}

std::vector<std::byte> to_bytes(std::string_view s) {
  std::vector<std::byte> out(s.size());
  // An empty string_view may carry a null data(); memcpy's arguments are
  // declared nonnull even for size 0.
  if (!s.empty()) std::memcpy(out.data(), s.data(), s.size());
  return out;
}

std::string to_string(std::span<const std::byte> data) {
  std::string out(data.size(), '\0');
  if (!data.empty()) std::memcpy(out.data(), data.data(), data.size());
  return out;
}

}  // namespace gb
