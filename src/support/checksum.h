// The tree's two checksums, in gb_base so every layer can use them.
//
// crc32: table-driven CRC-32 (polynomial 0xEDB88320, the reflected IEEE
// form), the integrity check of the one `len | crc32 | payload` frame
// (support/record_file.h) of the job journal, the flight recorder and
// the wire protocol.
//
// fnv1a: 64-bit FNV-1a, a content hash that, unlike std::hash, is the
// same across runs and platforms (not collision resistant): differ and
// daemon shard assignment, MFT record and hive digests, cross-time
// baselines.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace gb::support {

namespace internal {

inline const std::array<std::uint32_t, 256>& crc32_table() {
  static const std::array<std::uint32_t, 256> kTable = [] {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      table[i] = c;
    }
    return table;
  }();
  return kTable;
}

}  // namespace internal

/// CRC-32 over raw bytes; built once at first use, byte-at-a-time update.
[[nodiscard]] inline std::uint32_t crc32(std::span<const std::byte> data) {
  const auto& table = internal::crc32_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::byte b : data) {
    c = table[(c ^ static_cast<std::uint32_t>(b)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

/// 64-bit FNV-1a over raw bytes.
[[nodiscard]] inline std::uint64_t fnv1a(std::span<const std::byte> data) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // offset basis
  for (std::byte b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ull;  // FNV prime
  }
  return h;
}

/// 64-bit FNV-1a over the bytes of a string (embedded NULs included).
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view s) {
  return fnv1a(std::as_bytes(std::span(s.data(), s.size())));
}

}  // namespace gb::support
