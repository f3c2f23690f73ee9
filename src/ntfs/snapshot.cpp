#include "ntfs/snapshot.h"

#include <algorithm>
#include <new>
#include <set>
#include <stdexcept>
#include <string>

#include "ntfs/ntfs_format.h"
#include "support/checksum.h"

namespace gb::ntfs {

namespace {

constexpr std::uint32_t kSnapshotMagic = 0x50414E53;  // "SNAP"
constexpr std::uint16_t kSnapshotVersion = 1;

std::uint64_t record_lba(std::uint64_t mft_start_cluster,
                         std::uint64_t record) {
  return mft_start_cluster * kSectorsPerCluster +
         record * (kMftRecordSize / kSectorSize);
}

}  // namespace

void MftSnapshot::classify_into(std::uint64_t record,
                                std::span<const std::byte> image) {
  MftSlot s;
  s.digest = support::fnv1a(image);
  if (!MftRecord::looks_live(image)) {
    s.kind = MftSlotKind::kFree;
  } else {
    bool parsed = true;
    MftRecord rec;
    try {
      rec = MftRecord::parse(image);
    } catch (const ParseError&) {
      parsed = false;
    }
    if (!parsed) {
      s.kind = MftSlotKind::kCorrupt;
    } else if (auto node = node_from(rec)) {
      s.kind = MftSlotKind::kLive;
      s.node = std::move(node);
    } else {
      s.kind = MftSlotKind::kNoName;
    }
  }
  cache_.insert_or_assign(s.digest, s);
  slots_[record] = std::move(s);
}

support::StatusOr<MftSnapshot> MftSnapshot::capture(disk::SectorDevice& dev) {
  std::vector<std::byte> bs(kSectorSize);
  dev.read(0, bs);
  ByteReader r(bs);
  r.seek(BootSectorLayout::kOemOffset);
  if (r.str(8) != std::string(kOemId, sizeof kOemId)) {
    return support::Status::corrupt("not an NTFS volume (bad OEM id)");
  }
  r.seek(BootSectorLayout::kMftStartCluster);
  MftSnapshot snap;
  snap.mft_start_cluster_ = r.u64();
  snap.slots_.resize(r.u32());
  std::vector<std::byte> image(kMftRecordSize);
  for (std::uint64_t i = 0; i < snap.slots_.size(); ++i) {
    dev.read(record_lba(snap.mft_start_cluster_, i), image);
    snap.classify_into(i, image);
  }
  return snap;
}

void MftSnapshot::refresh(disk::SectorDevice& dev,
                          const std::vector<std::uint64_t>& records,
                          RefreshStats* stats) {
  std::set<std::uint64_t> unique(records.begin(), records.end());
  std::vector<std::byte> image(kMftRecordSize);
  for (std::uint64_t rec : unique) {
    if (rec >= slots_.size()) continue;
    dev.read(record_lba(mft_start_cluster_, rec), image);
    const std::uint64_t digest = support::fnv1a(image);
    if (digest == slots_[rec].digest) {
      if (stats) ++stats->unchanged;
      continue;
    }
    if (auto it = cache_.find(digest); it != cache_.end()) {
      // Content seen before (e.g. a rename chain restored the original
      // bytes): splice the remembered parse, no re-parse needed.
      slots_[rec] = it->second;
      if (stats) ++stats->cache_spliced;
      continue;
    }
    classify_into(rec, image);
    if (stats) ++stats->reparsed;
  }
}

std::vector<std::uint64_t> MftSnapshot::verify(disk::SectorDevice& dev) const {
  std::vector<std::uint64_t> mismatched;
  std::vector<std::byte> image(kMftRecordSize);
  for (std::uint64_t i = 0; i < slots_.size(); ++i) {
    dev.read(record_lba(mft_start_cluster_, i), image);
    if (support::fnv1a(image) != slots_[i].digest) mismatched.push_back(i);
  }
  return mismatched;
}

std::vector<RawFile> MftSnapshot::listing() const {
  std::map<std::uint64_t, MftNode> nodes;
  for (std::uint64_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].kind == MftSlotKind::kLive) nodes.emplace(i, *slots_[i].node);
  }
  return assemble_listing(nodes);
}

disk::IoStats MftSnapshot::simulate_scan_io(std::uint32_t batch_records) const {
  if (batch_records == 0) batch_records = MftScanner::kDefaultScanBatch;
  disk::IoStats io;
  const std::uint64_t record_sectors = kMftRecordSize / kSectorSize;
  for (std::uint64_t begin = 0; begin < slots_.size();
       begin += batch_records) {
    const std::uint64_t end =
        std::min<std::uint64_t>(begin + batch_records, slots_.size());
    io.seeks += 1;  // first probe of the batch, on a fresh CountingDevice
    for (std::uint64_t i = begin; i < end; ++i) {
      io.sectors_read += record_sectors;  // liveness probe
      if (slots_[i].kind != MftSlotKind::kFree) {
        io.sectors_read += record_sectors;  // re-read before parsing
        io.seeks += 1;  // same LBA as the probe just past it: a seek
      }
    }
  }
  return io;
}

std::size_t MftSnapshot::corrupt_records() const {
  std::size_t n = 0;
  for (const MftSlot& s : slots_) {
    if (s.kind == MftSlotKind::kCorrupt) ++n;
  }
  return n;
}

void MftSnapshot::serialize(ByteWriter& w) const {
  w.u32(kSnapshotMagic);
  w.u16(kSnapshotVersion);
  w.u64(mft_start_cluster_);
  w.u32(static_cast<std::uint32_t>(slots_.size()));
  for (const MftSlot& s : slots_) {
    w.u8(static_cast<std::uint8_t>(s.kind));
    w.u64(s.digest);
    if (s.kind != MftSlotKind::kLive) continue;
    const MftNode& n = *s.node;
    w.u16(static_cast<std::uint16_t>(n.name.size()));
    w.str(n.name);
    w.u64(n.parent);
    w.u8(n.is_directory ? 1 : 0);
    w.u64(n.size);
    w.u32(n.attributes);
    w.u16(static_cast<std::uint16_t>(n.stream_names.size()));
    for (const std::string& name : n.stream_names) {
      w.u16(static_cast<std::uint16_t>(name.size()));
      w.str(name);
    }
  }
}

support::StatusOr<MftSnapshot> MftSnapshot::deserialize(ByteReader& r) {
  try {
    if (r.u32() != kSnapshotMagic) {
      return support::Status::corrupt("not an MFT snapshot (bad magic)");
    }
    if (const auto v = r.u16(); v != kSnapshotVersion) {
      return support::Status::corrupt("unsupported snapshot version " +
                                      std::to_string(v));
    }
    MftSnapshot snap;
    snap.mft_start_cluster_ = r.u64();
    const std::uint32_t slot_count = r.u32();
    // Every serialized slot costs at least 9 bytes (kind + digest), so a
    // count beyond remaining()/9 cannot be satisfied by the input — fail
    // as corrupt instead of attempting a gigantic resize (which would
    // throw bad_alloc past the ParseError handler below).
    if (slot_count > r.remaining() / 9) {
      return support::Status::corrupt(
          "snapshot slot count " + std::to_string(slot_count) +
          " exceeds input size");
    }
    snap.slots_.resize(slot_count);
    for (MftSlot& s : snap.slots_) {
      const std::uint8_t kind = r.u8();
      if (kind > static_cast<std::uint8_t>(MftSlotKind::kLive)) {
        return support::Status::corrupt("bad slot kind in snapshot");
      }
      s.kind = static_cast<MftSlotKind>(kind);
      s.digest = r.u64();
      if (s.kind != MftSlotKind::kLive) continue;
      MftNode n;
      n.name = r.str(r.u16());
      n.parent = r.u64();
      n.is_directory = r.u8() != 0;
      n.size = r.u64();
      n.attributes = r.u32();
      const std::uint16_t streams = r.u16();
      n.stream_names.reserve(streams);
      for (std::uint16_t i = 0; i < streams; ++i) {
        n.stream_names.push_back(r.str(r.u16()));
      }
      s.node = std::move(n);
    }
    // Rebuild the content-addressed cache from the current slots.
    for (const MftSlot& s : snap.slots_) {
      snap.cache_.insert_or_assign(s.digest, s);
    }
    return snap;
  } catch (const ParseError& e) {
    return support::Status::corrupt(std::string("truncated snapshot: ") +
                                    e.what());
  } catch (const std::bad_alloc&) {
    // Belt and braces: no single length field survives the bound above,
    // but a corrupt store must never crash the restore path.
    return support::Status::corrupt("snapshot too large for memory");
  } catch (const std::length_error&) {
    return support::Status::corrupt("snapshot length field out of range");
  }
}

}  // namespace gb::ntfs
