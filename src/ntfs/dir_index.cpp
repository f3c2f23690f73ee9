#include "ntfs/dir_index.h"

namespace gb::ntfs {

std::vector<std::byte> encode_index_entries(
    const std::vector<IndexEntry>& entries) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) {
    w.u64(e.record);
    w.u16(static_cast<std::uint16_t>(e.name.size()));
    w.str(e.name);
  }
  return std::move(w).take();
}

std::vector<IndexEntry> decode_index_entries(
    std::span<const std::byte> blob) {
  ByteReader r(blob);
  // Each entry is at least a record number and a name length.
  const std::uint32_t count = r.count(sizeof(std::uint64_t) +
                                      sizeof(std::uint16_t));
  std::vector<IndexEntry> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    IndexEntry e;
    e.record = r.u64();
    const std::uint16_t len = r.u16();
    e.name = r.str(len);
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace gb::ntfs
