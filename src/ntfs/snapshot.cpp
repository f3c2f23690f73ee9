#include "ntfs/snapshot.h"

#include <algorithm>
#include <array>
#include <new>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "ntfs/dir_index.h"
#include "ntfs/ntfs_format.h"
#include "obs/trace.h"
#include "support/checksum.h"
#include "support/strings.h"

namespace gb::ntfs {

namespace {

constexpr std::uint32_t kSnapshotMagic = 0x50414E53;  // "SNAP"
constexpr std::uint16_t kSnapshotVersion = 2;

using RecordImage = std::array<std::byte, kMftRecordSize>;

/// Reads and decodes `index.blob` into its children; a blob that does
/// not read or decode leaves them empty and says why.
void read_children(disk::SectorDevice& dev, MftIndex& index) {
  index.children.clear();
  index.error.clear();
  try {
    for (const IndexEntry& e :
         decode_index_entries(read_attr_payload(dev, index.blob))) {
      index.children.push_back(e.record);
    }
  } catch (const std::exception& e) {
    index.children.clear();
    index.error = e.what();
  }
  std::sort(index.children.begin(), index.children.end());
  index.children.erase(
      std::unique(index.children.begin(), index.children.end()),
      index.children.end());
}

/// A dirty directory re-reads a non-resident blob: persist_index can
/// move its entries without changing the directory's record.
void reread_index(disk::SectorDevice& dev, MftSlot& slot) {
  if (slot.index && !slot.index->blob.resident) {
    read_children(dev, *slot.index);
  }
}

/// Parses one live-looking record image into its slot.
MftSlot classify(disk::SectorDevice& dev, std::span<const std::byte> image) {
  MftSlot s;
  s.digest = support::fnv1a(image);
  MftRecord rec;
  try {
    rec = MftRecord::parse(image);
  } catch (const ParseError&) {
    s.kind = MftSlotKind::kCorrupt;  // torn write / corruption
    return s;
  }
  s.node = node_from(rec);
  s.kind = s.node ? MftSlotKind::kLive : MftSlotKind::kNoName;
  if (rec.is_directory() && rec.index) {
    s.index = MftIndex{std::move(*rec.index), {}, {}};
    read_children(dev, *s.index);
    s.index->blob.resident_data = {};
  }
  return s;
}

/// An index blob's location: a resident blob's bytes are not kept.
void write_blob(ByteWriter& w, const DataAttr& d) {
  w.u8(d.resident ? 1 : 0);
  w.u64(d.real_size);
  if (!d.resident) encode_runlist(d.runs, w);
}

DataAttr read_blob(ByteReader& r) {
  DataAttr d;
  d.resident = r.u8() != 0;
  d.real_size = r.u64();
  if (!d.resident) d.runs = decode_runlist(r);
  return d;
}

void write_slot(ByteWriter& w, const MftSlot& s) {
  w.u8(static_cast<std::uint8_t>(s.kind));
  w.u64(s.digest);
  if (s.node) {
    const MftNode& n = *s.node;
    w.u16(static_cast<std::uint16_t>(n.name.size()));
    w.str(n.name);
    w.u64(n.parent);
    w.u8(n.is_directory ? 1 : 0);
    w.u32(n.attributes);
    w.u16(static_cast<std::uint16_t>(n.stream_names.size()));
    for (const std::string& name : n.stream_names) {
      w.u16(static_cast<std::uint16_t>(name.size()));
      w.str(name);
    }
    w.u64(n.size);
  }
  w.u8(s.index ? 1 : 0);
  if (!s.index) return;
  const MftIndex& x = *s.index;
  write_blob(w, x.blob);
  w.u32(static_cast<std::uint32_t>(x.children.size()));
  for (const std::uint64_t child : x.children) w.u64(child);
  w.u16(static_cast<std::uint16_t>(x.error.size()));
  w.str(x.error);
}

/// Throws ParseError on malformed input.
MftSlot read_slot(ByteReader& r) {
  MftSlot s;
  const std::uint8_t kind = r.u8();
  if (kind < static_cast<std::uint8_t>(MftSlotKind::kCorrupt) ||
      kind > static_cast<std::uint8_t>(MftSlotKind::kLive)) {
    throw ParseError("bad slot kind");
  }
  s.kind = static_cast<MftSlotKind>(kind);
  s.digest = r.u64();
  if (s.kind == MftSlotKind::kLive) {
    MftNode n;
    n.name = r.str(r.u16());
    n.parent = r.u64();
    n.is_directory = r.u8() != 0;
    n.attributes = r.u32();
    const std::uint16_t streams = r.u16();
    for (std::uint16_t i = 0; i < streams; ++i) {
      n.stream_names.push_back(r.str(r.u16()));
    }
    n.size = r.u64();
    s.node = std::move(n);
  }
  if (r.u8() == 0) return s;
  if (s.kind == MftSlotKind::kCorrupt) throw ParseError("index on a corrupt slot");
  MftIndex x;
  x.blob = read_blob(r);
  const std::uint32_t children = r.count(8);
  x.children.reserve(children);
  for (std::uint32_t i = 0; i < children; ++i) {
    const std::uint64_t child = r.u64();
    if (!x.children.empty() && child <= x.children.back()) {
      throw ParseError("index children out of order");
    }
    x.children.push_back(child);
  }
  x.error = r.str(r.u16());
  s.index = std::move(x);
  return s;
}

}  // namespace

support::StatusOr<MftSnapshot> MftSnapshot::capture(
    disk::SectorDevice& dev, support::ThreadPool* pool,
    std::uint32_t batch_records) {
  if (batch_records == 0) batch_records = kScanBatchRecords;
  try {
    auto boot = read_boot_sector(dev);
    if (!boot.ok()) return boot.status();
    auto whole = obs::default_tracer().span("mft.scan", "parse");
    whole.arg("records", std::to_string(boot->mft_record_count));
    MftSnapshot snap;
    snap.boot_ = *boot;

    // One read per slot, in fixed batches striped over one lane per
    // executor. The lanes' slot lists merge by record number, so the
    // image is the serial walk's at any worker count and batch size.
    const std::uint64_t count = boot->mft_record_count;
    const std::uint64_t batches = (count + batch_records - 1) / batch_records;
    const std::size_t lanes = static_cast<std::size_t>(std::min<std::uint64_t>(
        std::max<std::uint64_t>(batches, 1), pool ? pool->size() + 1 : 1));
    std::vector<std::vector<std::pair<std::uint64_t, MftSlot>>> parts(lanes);
    auto walk = [&](std::size_t lane) {
      RecordImage image{};
      for (std::uint64_t b = lane; b < batches; b += lanes) {
        const std::uint64_t end =
            std::min<std::uint64_t>((b + 1) * batch_records, count);
        for (std::uint64_t i = b * batch_records; i < end; ++i) {
          dev.read(snap.boot_.record_lba(i), image);
          if (!MftRecord::looks_live(image)) continue;
          parts[lane].emplace_back(i, classify(dev, image));
        }
      }
    };
    if (lanes > 1) {
      pool->parallel_for(lanes, walk);
    } else {
      walk(0);
    }
    for (auto& part : parts) {
      for (auto& [record, slot] : part) {
        snap.slots_.emplace(record, std::move(slot));
      }
    }
    snap.assemble_listing();
    return snap;
  } catch (const std::exception& e) {
    // A device that fails a read inside the validated extent.
    return support::Status::corrupt(std::string("MFT walk failed: ") +
                                    e.what());
  }
}

std::uint64_t MftSnapshot::refresh(disk::SectorDevice& dev,
                                   const std::vector<std::uint64_t>& records) {
  std::uint64_t reparsed = 0;
  const std::set<std::uint64_t> unique(records.begin(), records.end());
  RecordImage image{};
  for (const std::uint64_t rec : unique) {
    if (rec >= record_capacity()) continue;
    dev.read(boot_.record_lba(rec), image);
    const bool live = MftRecord::looks_live(image);
    const auto it = slots_.find(rec);
    const bool held = it != slots_.end();
    if (held == live && (!live || it->second.digest == support::fnv1a(image))) {
      // Same bytes, or free and still free.
      if (held) reread_index(dev, it->second);
      continue;
    }
    if (live) {
      slots_.insert_or_assign(rec, classify(dev, image));
    } else {
      slots_.erase(it);
    }
    ++reparsed;
  }
  assemble_listing();
  return reparsed;
}

std::vector<std::uint64_t> MftSnapshot::verify(disk::SectorDevice& dev) const {
  std::vector<std::uint64_t> mismatched;
  RecordImage image{};
  auto it = slots_.begin();
  for (std::uint64_t i = 0; i < record_capacity(); ++i) {
    dev.read(boot_.record_lba(i), image);
    const bool held = it != slots_.end() && it->first == i;
    const bool live = MftRecord::looks_live(image);
    // A held slot is trusted only if the bytes classify to it again: a
    // matching digest alone would vouch for a forged parse.
    if (live != held || (held && classify(dev, image) != it->second)) {
      mismatched.push_back(i);
    }
    if (held) ++it;
  }
  return mismatched;
}

void MftSnapshot::assemble_listing() {
  std::map<std::uint64_t, const MftNode*> nodes;
  for (const auto& [record, s] : slots_) {
    if (s.node) nodes.emplace_hint(nodes.end(), record, &*s.node);
  }

  // Resolve full paths with memoization; cycles/broken chains -> orphan.
  std::map<std::uint64_t, std::string> paths;
  paths[kMftRecordRoot] = "";
  auto resolve_path = [&](std::uint64_t rec) -> const std::string& {
    std::vector<std::uint64_t> chain;
    std::uint64_t cur = rec;
    while (!paths.contains(cur)) {
      auto it = nodes.find(cur);
      if (it == nodes.end() || chain.size() > nodes.size()) {
        paths[cur] = "<orphan>";
        break;
      }
      chain.push_back(cur);
      cur = it->second->parent;
    }
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const MftNode& n = *nodes.at(*it);
      paths[*it] = join_path(paths[n.parent], n.name);
    }
    return paths.at(rec);
  };

  listing_.clear();
  listing_.reserve(nodes.size());
  for (const auto& [record, node] : nodes) {
    if (record == kMftRecordRoot) continue;
    RawFile f;
    f.record = record;
    f.path = resolve_path(record);
    f.is_directory = node->is_directory;
    f.is_system = record < kFirstUserRecord;
    f.size = node->size;
    f.attributes = node->attributes;
    f.stream_names = node->stream_names;
    listing_.push_back(std::move(f));
  }
}

std::vector<RawFile> MftSnapshot::index_orphans() const {
  std::vector<RawFile> out;
  for (const RawFile& f : listing_) {
    if (f.is_system) continue;
    const MftSlot* s = slot(f.record);
    if (s == nullptr || !s->node) continue;
    const MftSlot* parent = slot(s->node->parent);
    if (parent == nullptr || !parent->index) continue;  // unindexed parent
    const auto& children = parent->index->children;
    if (!std::binary_search(children.begin(), children.end(), f.record)) {
      out.push_back(f);
    }
  }
  return out;
}

support::Status MftSnapshot::index_status() const {
  for (const auto& [record, s] : slots_) {
    if (s.index && !s.index->error.empty()) {
      return support::Status::corrupt("directory index of record " +
                                      std::to_string(record) + ": " +
                                      s.index->error);
    }
  }
  return support::Status{};
}

disk::IoStats MftSnapshot::simulate_scan_io() const {
  const std::uint64_t record_sectors = kMftRecordSize / kSectorSize;
  const std::uint64_t capacity = record_capacity();
  disk::IoStats io;
  io.seeks =
      (capacity + kScanBatchRecords - 1) / kScanBatchRecords + slots_.size();
  io.sectors_read = record_sectors * (capacity + slots_.size());
  return io;
}

std::vector<std::byte> MftSnapshot::read_data(disk::SectorDevice& dev,
                                              std::uint64_t record,
                                              std::uint64_t& seeks) const {
  // The boot-sector probe, then the record and its clusters as counted:
  // a payload that starts right past the record costs no second seek.
  disk::CountingDevice counted(dev);
  auto bytes = read_record_data(counted, boot_, record);
  seeks += 1 + counted.stats().seeks;
  return bytes;
}

std::size_t MftSnapshot::corrupt_records() const {
  return static_cast<std::size_t>(
      std::count_if(slots_.begin(), slots_.end(), [](const auto& e) {
        return e.second.kind == MftSlotKind::kCorrupt;
      }));
}

const MftSlot* MftSnapshot::slot(std::uint64_t record) const {
  const auto it = slots_.find(record);
  return it == slots_.end() ? nullptr : &it->second;
}

void MftSnapshot::serialize(ByteWriter& w) const {
  w.u32(kSnapshotMagic);
  w.u16(kSnapshotVersion);
  w.u64(boot_.mft_start_cluster);
  w.u32(boot_.mft_record_count);
  w.u32(static_cast<std::uint32_t>(slots_.size()));
  for (const auto& [record, s] : slots_) {
    w.u32(static_cast<std::uint32_t>(record));
    write_slot(w, s);
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
    snap.boot_.mft_start_cluster = r.u64();
    snap.boot_.mft_record_count = r.u32();
    // Every saved slot costs at least 14 bytes (record, kind, digest,
    // index flag), so the count is bounded by the input left.
    const std::uint32_t slot_count = r.count(14);
    for (std::uint32_t i = 0; i < slot_count; ++i) {
      const std::uint32_t record = r.u32();
      if (record >= snap.boot_.mft_record_count ||
          (!snap.slots_.empty() && record <= snap.slots_.rbegin()->first)) {
        return support::Status::corrupt("snapshot slot " +
                                        std::to_string(record) +
                                        " out of order or range");
      }
      snap.slots_.emplace_hint(snap.slots_.end(), record, read_slot(r));
    }
    snap.assemble_listing();
    return snap;
  } catch (const ParseError& e) {
    return support::Status::corrupt(std::string("truncated snapshot: ") +
                                    e.what());
  } catch (const std::bad_alloc&) {
    // Belt and braces: every count above is bounded by the input, but a
    // corrupt store must never crash the restore path.
    return support::Status::corrupt("snapshot too large for memory");
  } catch (const std::length_error&) {
    return support::Status::corrupt("snapshot length field out of range");
  }
}

}  // namespace gb::ntfs
