#include "ntfs/volume.h"

#include <algorithm>
#include <cstring>

#include "ntfs/dir_index.h"
#include "ntfs/mft_scanner.h"
#include "support/strings.h"

namespace gb::ntfs {

namespace {

/// Strips an optional drive prefix ("C:") and leading backslashes.
std::string_view strip_drive(std::string_view path) {
  if (path.size() >= 2 && path[1] == ':') path.remove_prefix(2);
  while (!path.empty() && path.front() == '\\') path.remove_prefix(1);
  return path;
}

std::vector<std::string> components(std::string_view path) {
  path = strip_drive(path);
  if (path.empty()) return {};
  std::vector<std::string> out;
  for (auto& part : split(path, '\\')) {
    if (!part.empty()) out.push_back(std::move(part));
  }
  return out;
}

std::uint64_t clusters_for(std::uint64_t bytes) {
  return (bytes + kClusterSize - 1) / kClusterSize;
}

/// Journal incarnation id for one (volume, mount) pair: the splitmix64
/// finalizer over serial and the persisted mount sequence. The sequence
/// never repeats for a device, so no two mounts ever share an id — the
/// property that forces a cursor taken under an earlier mount into the
/// "journal reset" fallback instead of silently splicing stale records.
std::uint64_t journal_incarnation_id(std::uint64_t serial,
                                     std::uint64_t mount_seq) {
  std::uint64_t h = serial ^ (mount_seq * 0x9E3779B97F4A7C15ull);
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 31;
  return h;
}

}  // namespace

void NtfsVolume::format(disk::SectorDevice& dev,
                        std::uint32_t mft_record_count, std::uint64_t serial) {
  const std::uint64_t total_clusters =
      dev.sector_count() / kSectorsPerCluster;
  const std::uint32_t bitmap_clusters = static_cast<std::uint32_t>(
      (total_clusters / 8 + kClusterSize - 1) / kClusterSize);
  const std::uint64_t bitmap_start = 1;
  const std::uint64_t mft_start = bitmap_start + bitmap_clusters;
  const std::uint64_t mft_clusters =
      clusters_for(static_cast<std::uint64_t>(mft_record_count) *
                   kMftRecordSize);
  if (mft_start + mft_clusters >= total_clusters) {
    throw FsError("device too small for requested MFT size");
  }

  // Boot sector.
  ByteWriter bs;
  bs.zeros(BootSectorLayout::kOemOffset);
  bs.bytes(to_bytes(std::string_view(kOemId, sizeof kOemId)));
  bs.u16(static_cast<std::uint16_t>(kSectorSize));
  bs.u8(static_cast<std::uint8_t>(kSectorsPerCluster));
  bs.zeros(BootSectorLayout::kTotalSectors - bs.size());
  bs.u64(dev.sector_count());
  bs.u64(mft_start);
  bs.u32(mft_record_count);
  bs.u64(bitmap_start);
  bs.u32(bitmap_clusters);
  bs.u64(serial);
  bs.zeros(BootSectorLayout::kSignature - bs.size());
  bs.u8(0x55);
  bs.u8(0xaa);
  dev.write(0, bs.view());

  // Bitmap: clusters [0, mft_start + mft_clusters) are in use.
  std::vector<std::byte> bitmap(bitmap_clusters * kClusterSize, std::byte{0});
  const std::uint64_t reserved = mft_start + mft_clusters;
  for (std::uint64_t c = 0; c < reserved; ++c) {
    bitmap[c / 8] |= static_cast<std::byte>(1u << (c % 8));
  }
  dev.write(bitmap_start * kSectorsPerCluster, bitmap);

  // Zero the MFT region, then write the system records.
  const std::vector<std::byte> zero_cluster(kClusterSize, std::byte{0});
  for (std::uint64_t c = 0; c < mft_clusters; ++c) {
    dev.write((mft_start + c) * kSectorsPerCluster, zero_cluster);
  }

  auto write_record = [&](const MftRecord& rec) {
    const auto image = rec.serialize();
    dev.write(mft_start * kSectorsPerCluster +
                  rec.record_number * (kMftRecordSize / kSectorSize),
              image);
  };

  // Record 0: $MFT itself, non-resident data covering the MFT region.
  MftRecord mft_rec;
  mft_rec.record_number = kMftRecordMft;
  mft_rec.flags = kRecordInUse;
  mft_rec.std_info = StandardInfo{0, 0, 0, kAttrHidden | kAttrSystem};
  mft_rec.file_name = FileNameAttr{kMftRecordRoot, "$MFT"};
  DataAttr mft_data;
  mft_data.resident = false;
  mft_data.runs = {Run{mft_start, mft_clusters}};
  mft_data.real_size =
      static_cast<std::uint64_t>(mft_record_count) * kMftRecordSize;
  mft_rec.data = std::move(mft_data);
  write_record(mft_rec);

  // Record 5: root directory.
  MftRecord root;
  root.record_number = kMftRecordRoot;
  root.flags = kRecordInUse | kRecordIsDirectory;
  root.std_info = StandardInfo{0, 0, 0, kAttrDirectory};
  root.file_name = FileNameAttr{kRootParentRef, "."};
  write_record(root);

  // Record 6: $Bitmap.
  MftRecord bm;
  bm.record_number = kMftRecordBitmap;
  bm.flags = kRecordInUse;
  bm.std_info = StandardInfo{0, 0, 0, kAttrHidden | kAttrSystem};
  bm.file_name = FileNameAttr{kMftRecordRoot, "$Bitmap"};
  DataAttr bm_data;
  bm_data.resident = false;
  bm_data.runs = {Run{bitmap_start, bitmap_clusters}};
  bm_data.real_size = bitmap.size();
  bm.data = std::move(bm_data);
  write_record(bm);
}

NtfsVolume::NtfsVolume(disk::SectorDevice& dev, MountMode mode)
    : dev_(dev), read_only_(mode == MountMode::kReadOnly) {
  // Parse boot sector.
  std::vector<std::byte> bs(kSectorSize);
  dev_.read(0, bs);
  ByteReader r(bs);
  r.seek(BootSectorLayout::kOemOffset);
  if (r.str(8) != std::string(kOemId, sizeof kOemId)) {
    throw ParseError("not an NTFS volume (bad OEM id)");
  }
  r.seek(BootSectorLayout::kTotalSectors);
  const std::uint64_t total_sectors = r.u64();
  mft_start_cluster_ = r.u64();
  mft_record_count_ = r.u32();
  bitmap_start_cluster_ = r.u64();
  bitmap_cluster_count_ = r.u32();
  total_clusters_ = total_sectors / kSectorsPerCluster;
  const std::uint64_t serial = r.u64();
  // Nothing below is sized from a count the device cannot hold.
  const std::uint64_t device_clusters =
      dev_.sector_count() / kSectorsPerCluster;
  const std::uint64_t mft_clusters = clusters_for(
      std::uint64_t{mft_record_count_} * kMftRecordSize);
  if (mft_start_cluster_ > device_clusters ||
      mft_clusters > device_clusters - mft_start_cluster_) {
    throw ParseError("MFT extent beyond the device (start cluster " +
                     std::to_string(mft_start_cluster_) + ", " +
                     std::to_string(mft_record_count_) + " records)");
  }
  if (bitmap_start_cluster_ > device_clusters ||
      bitmap_cluster_count_ > device_clusters - bitmap_start_cluster_) {
    throw ParseError("cluster bitmap beyond the device (start cluster " +
                     std::to_string(bitmap_start_cluster_) + ", " +
                     std::to_string(bitmap_cluster_count_) + " clusters)");
  }
  // Bump the on-device mount sequence and derive this incarnation's
  // journal id from (serial, sequence): deterministic (no wall clock, no
  // randomness) yet never reused, so a cursor from a previous mount can
  // only ever hit the "journal reset" fallback — it cannot alias into
  // this incarnation's USN space and splice stale records. A read-only
  // mount skips the bump (it must not touch the device); its journal is
  // inert anyway, since every mutation throws before journaling.
  r.seek(BootSectorLayout::kJournalSeq);
  const std::uint64_t mount_seq = r.u64() + 1;
  if (!read_only_) {
    for (std::size_t i = 0; i < 8; ++i) {
      bs[BootSectorLayout::kJournalSeq + i] =
          static_cast<std::byte>((mount_seq >> (8 * i)) & 0xff);
    }
    dev_.write(0, bs);
  }
  journal_.reset(journal_incarnation_id(serial, mount_seq));

  // Load bitmap.
  std::vector<std::byte> raw_bitmap(
      static_cast<std::size_t>(bitmap_cluster_count_) * kClusterSize);
  dev_.read(bitmap_start_cluster_ * kSectorsPerCluster, raw_bitmap);
  bitmap_.resize(raw_bitmap.size());
  std::memcpy(bitmap_.data(), raw_bitmap.data(), raw_bitmap.size());

  // Load all MFT records.
  records_.resize(mft_record_count_);
  std::vector<std::byte> image(kMftRecordSize);
  for (std::uint64_t i = 0; i < mft_record_count_; ++i) {
    dev_.read(mft_lba(i), image);
    if (!MftRecord::looks_live(image)) {
      if (i >= kFirstUserRecord) free_records_.push_back(i);
      continue;
    }
    try {
      records_[i] = MftRecord::parse(image);
    } catch (const ParseError& e) {
      throw ParseError("MFT record " + std::to_string(i) + ": " + e.what());
    }
  }
  // Free list should hand out low record numbers first for determinism.
  std::reverse(free_records_.begin(), free_records_.end());
  if (mft_record_count_ <= kMftRecordRoot || !records_[kMftRecordRoot] ||
      !records_[kMftRecordRoot]->is_directory()) {
    throw ParseError("root directory (record " +
                     std::to_string(kMftRecordRoot) +
                     ") is not a live directory");
  }

  // Build directory membership from the on-disk index attributes (the
  // authoritative enumeration source). An entry must name a live record
  // with a FILE_NAME: listing a directory reads both.
  for (std::uint64_t i = 0; i < mft_record_count_; ++i) {
    if (!records_[i] || !records_[i]->is_directory() || !records_[i]->index) {
      continue;
    }
    const auto blob = read_attr_payload(dev_, *records_[i]->index);
    for (const auto& e : decode_index_entries(blob)) {
      if (e.record >= mft_record_count_ || !records_[e.record] ||
          !records_[e.record]->file_name) {
        throw ParseError("directory record " + std::to_string(i) +
                         " indexes record " + std::to_string(e.record) +
                         ", which is not a live named record");
      }
      children_[i][fold_case(e.name)] = e.record;
    }
  }
  // Legacy fallback: link records whose parent directory carries no index
  // attribute at all (e.g. images written before indexes existed). A
  // parent that HAS an index but omits the record is intentional — that
  // is the data-only hiding this design exposes to the raw scan.
  for (std::uint64_t i = kFirstUserRecord; i < mft_record_count_; ++i) {
    if (!records_[i] || !records_[i]->file_name) continue;
    const auto parent = records_[i]->file_name->parent_ref;
    if (parent >= records_.size() || !records_[parent]) continue;
    if (records_[parent]->index) continue;
    children_[parent][fold_case(records_[i]->file_name->name)] = i;
  }
}

std::uint64_t NtfsVolume::mft_lba(std::uint64_t record) const {
  return mft_start_cluster_ * kSectorsPerCluster +
         record * (kMftRecordSize / kSectorSize);
}

void NtfsVolume::link_child(std::uint64_t parent, std::string_view name,
                            std::uint64_t rec) {
  children_[parent][fold_case(name)] = rec;
  persist_index(parent);
}

void NtfsVolume::unlink_child(std::uint64_t parent, std::string_view name) {
  auto it = children_.find(parent);
  if (it == children_.end()) return;
  it->second.erase(fold_case(name));
  persist_index(parent);
}

void NtfsVolume::persist_index(std::uint64_t dir) {
  if (dir >= records_.size() || !records_[dir]) return;
  MftRecord& rec = *records_[dir];
  if (rec.index) free_attr_clusters(*rec.index);

  std::vector<IndexEntry> entries;
  if (auto it = children_.find(dir); it != children_.end()) {
    entries.reserve(it->second.size());
    for (const auto& [folded, child_rec] : it->second) {
      if (child_rec >= records_.size() || !records_[child_rec] ||
          !records_[child_rec]->file_name) {
        continue;
      }
      entries.push_back(
          IndexEntry{child_rec, records_[child_rec]->file_name->name});
    }
  }
  const auto blob = encode_index_entries(entries);
  DataAttr attr;
  attr.resident = true;
  attr.resident_data = blob;
  attr.real_size = blob.size();
  rec.index = std::move(attr);
  if (rec.serialized_size() > kMftRecordSize) {
    const std::uint64_t clusters =
        (blob.size() + kClusterSize - 1) / kClusterSize;
    RunList runs = allocate_clusters(clusters);
    write_clusters(runs, blob);
    rec.index->resident = false;
    rec.index->resident_data.clear();
    rec.index->runs = std::move(runs);
  }
  store_record(dir, disk::UsnReason::kIndexChange);
}

void NtfsVolume::free_attr_clusters(DataAttr& attr) {
  if (attr.resident) return;
  for (const Run& run : attr.runs) {
    for (std::uint64_t c = run.lcn; c < run.lcn + run.length; ++c) {
      bitmap_[c / 8] &= static_cast<std::uint8_t>(~(1u << (c % 8)));
    }
  }
  attr.runs.clear();
  flush_bitmap();
}

std::uint64_t NtfsVolume::index_unlink(std::string_view path) {
  ensure_writable();
  const std::uint64_t rec_no = resolve(path);
  if (rec_no < kFirstUserRecord) throw FsError("cannot unlink system file");
  const MftRecord& rec = *records_[rec_no];
  unlink_child(rec.file_name->parent_ref, rec.file_name->name);
  return rec_no;
}

bool NtfsVolume::index_relink(std::uint64_t record_number) {
  ensure_writable();
  if (record_number >= records_.size() || !records_[record_number] ||
      !records_[record_number]->file_name) {
    return false;
  }
  const auto& fn = *records_[record_number]->file_name;
  if (child(fn.parent_ref, fn.name).has_value()) return false;
  link_child(fn.parent_ref, fn.name, record_number);
  return true;
}

std::optional<std::uint64_t> NtfsVolume::child(std::uint64_t dir,
                                               std::string_view name) const {
  auto it = children_.find(dir);
  if (it == children_.end()) return std::nullopt;
  auto jt = it->second.find(fold_case(name));
  if (jt == it->second.end()) return std::nullopt;
  return jt->second;
}

std::optional<std::uint64_t> NtfsVolume::try_resolve(
    std::string_view path) const {
  std::uint64_t cur = kMftRecordRoot;
  for (const auto& comp : components(path)) {
    auto next = child(cur, comp);
    if (!next) return std::nullopt;
    cur = *next;
  }
  return cur;
}

std::uint64_t NtfsVolume::resolve(std::string_view path) const {
  auto rec = try_resolve(path);
  if (!rec) throw FsError("path not found: " + std::string(path));
  return *rec;
}

bool NtfsVolume::exists(std::string_view path) const {
  return try_resolve(path).has_value();
}

std::optional<FileInfo> NtfsVolume::stat(std::string_view path) const {
  auto rec_no = try_resolve(path);
  if (!rec_no) return std::nullopt;
  const MftRecord& rec = *records_[*rec_no];
  FileInfo info;
  info.name = rec.file_name ? rec.file_name->name : std::string{};
  info.record = *rec_no;
  info.is_directory = rec.is_directory();
  info.size = rec.data ? rec.data->real_size : 0;
  info.attributes = rec.std_info ? rec.std_info->file_attributes : 0;
  info.created_us = rec.std_info ? rec.std_info->created_us : 0;
  info.modified_us = rec.std_info ? rec.std_info->modified_us : 0;
  return info;
}

std::vector<DirEntry> NtfsVolume::list_directory(std::string_view path) const {
  const std::uint64_t dir = resolve(path);
  if (!records_[dir]->is_directory()) {
    throw FsError("not a directory: " + std::string(path));
  }
  std::vector<DirEntry> out;
  auto it = children_.find(dir);
  if (it == children_.end()) return out;
  for (const auto& [folded, rec_no] : it->second) {
    const MftRecord& rec = *records_[rec_no];
    DirEntry e;
    e.name = rec.file_name->name;  // original case
    e.record = rec_no;
    e.is_directory = rec.is_directory();
    e.size = rec.data ? rec.data->real_size : 0;
    e.attributes = rec.std_info ? rec.std_info->file_attributes : 0;
    out.push_back(std::move(e));
  }
  return out;  // map iteration is already folded-name order
}

std::vector<std::byte> NtfsVolume::read_file(std::string_view path) const {
  const std::uint64_t rec_no = resolve(path);
  const MftRecord& rec = *records_[rec_no];
  if (rec.is_directory()) throw FsError("is a directory: " + std::string(path));
  if (!rec.data) return {};
  return read_attr_payload(dev_, *rec.data);
}

void NtfsVolume::write_file(std::string_view path,
                            std::span<const std::byte> data,
                            std::uint32_t attributes) {
  ensure_writable();
  const auto comps = components(path);
  if (comps.empty()) throw FsError("empty path");
  const std::string& name = comps.back();
  if (name.size() > 255) throw FsError("name too long: " + printable(name));

  std::uint64_t parent = kMftRecordRoot;
  for (std::size_t i = 0; i + 1 < comps.size(); ++i) {
    auto next = child(parent, comps[i]);
    if (!next || !records_[*next]->is_directory()) {
      throw FsError("parent directory missing: " + std::string(path));
    }
    parent = *next;
  }

  std::uint64_t rec_no;
  bool created = false;
  if (auto existing = child(parent, name)) {
    rec_no = *existing;
    MftRecord& rec = *records_[rec_no];
    if (rec.is_directory()) {
      throw FsError("name is a directory: " + std::string(path));
    }
    free_file_clusters(rec);
  } else {
    created = true;
    rec_no = allocate_record();
    MftRecord rec;
    rec.record_number = rec_no;
    rec.flags = kRecordInUse;
    rec.std_info = StandardInfo{now_us(), now_us(), now_us(), attributes};
    rec.file_name = FileNameAttr{parent, name};
    records_[rec_no] = std::move(rec);
    link_child(parent, name, rec_no);
  }

  MftRecord& rec = *records_[rec_no];
  rec.std_info->modified_us = now_us();
  rec.std_info->file_attributes = attributes;
  DataAttr da;
  da.resident = true;
  da.resident_data.assign(data.begin(), data.end());
  da.real_size = data.size();
  rec.data = std::move(da);

  if (rec.serialized_size() > kMftRecordSize) {
    // Spill to non-resident storage.
    const std::uint64_t clusters = clusters_for(data.size());
    RunList runs = allocate_clusters(clusters);
    write_clusters(runs, data);
    rec.data->resident = false;
    rec.data->resident_data.clear();
    rec.data->runs = std::move(runs);
  }
  store_record(rec_no, created ? disk::UsnReason::kCreate
                               : disk::UsnReason::kDataOverwrite);
}

void NtfsVolume::write_file(std::string_view path, std::string_view text,
                            std::uint32_t attributes) {
  write_file(path, to_bytes(text), attributes);
}

void NtfsVolume::append_file(std::string_view path, std::string_view text) {
  std::vector<std::byte> data;
  if (exists(path)) data = read_file(path);
  const auto extra = to_bytes(text);
  data.insert(data.end(), extra.begin(), extra.end());
  const auto info = stat(path);
  write_file(path, data, info ? info->attributes : kAttrArchive);
}

void NtfsVolume::create_directories(std::string_view path) {
  ensure_writable();
  std::uint64_t parent = kMftRecordRoot;
  for (const auto& comp : components(path)) {
    if (auto next = child(parent, comp)) {
      if (!records_[*next]->is_directory()) {
        throw FsError("path component is a file: " + comp);
      }
      parent = *next;
      continue;
    }
    if (comp.size() > 255) throw FsError("name too long: " + printable(comp));
    const std::uint64_t rec_no = allocate_record();
    MftRecord rec;
    rec.record_number = rec_no;
    rec.flags = kRecordInUse | kRecordIsDirectory;
    rec.std_info = StandardInfo{now_us(), now_us(), now_us(), kAttrDirectory};
    rec.file_name = FileNameAttr{parent, comp};
    records_[rec_no] = std::move(rec);
    store_record(rec_no, disk::UsnReason::kCreate);
    link_child(parent, comp, rec_no);
    parent = rec_no;
  }
}

void NtfsVolume::remove_one(std::uint64_t rec_no, std::uint64_t parent,
                            std::string name) {
  MftRecord& rec = *records_[rec_no];
  free_file_clusters(rec);
  // Alternate data streams die with the file.
  for (const auto& s : rec.named_streams) {
    if (s.data.resident) continue;
    for (const Run& run : s.data.runs) {
      for (std::uint64_t c = run.lcn; c < run.lcn + run.length; ++c) {
        bitmap_[c / 8] &= static_cast<std::uint8_t>(~(1u << (c % 8)));
      }
    }
  }
  if (!rec.named_streams.empty()) {
    rec.named_streams.clear();
    flush_bitmap();
  }
  if (rec.index) free_attr_clusters(*rec.index);
  rec.flags = static_cast<std::uint16_t>(rec.flags & ~kRecordInUse);
  rec.sequence++;
  // Journaled while the record still exists: the tombstone write IS the
  // delete event the incremental scan must observe.
  store_record(rec_no, disk::UsnReason::kDelete);
  records_[rec_no].reset();
  free_records_.push_back(rec_no);
  unlink_child(parent, name);
  children_.erase(rec_no);
}

void NtfsVolume::remove(std::string_view path) {
  ensure_writable();
  const std::uint64_t rec_no = resolve(path);
  if (rec_no < kFirstUserRecord) throw FsError("cannot remove system file");
  const MftRecord& rec = *records_[rec_no];
  if (rec.is_directory()) {
    auto it = children_.find(rec_no);
    if (it != children_.end() && !it->second.empty()) {
      throw FsError("directory not empty: " + std::string(path));
    }
  }
  remove_one(rec_no, rec.file_name->parent_ref, rec.file_name->name);
}

void NtfsVolume::remove_recursive(std::string_view path) {
  const std::uint64_t rec_no = resolve(path);
  if (records_[rec_no]->is_directory()) {
    // Copy the child list: remove_one mutates children_.
    std::vector<std::string> names;
    if (auto it = children_.find(rec_no); it != children_.end()) {
      for (const auto& [folded, child_rec] : it->second) {
        names.push_back(records_[child_rec]->file_name->name);
      }
    }
    for (const auto& name : names) {
      remove_recursive(join_path(path, name));
    }
  }
  remove(path);
}

void NtfsVolume::set_attributes(std::string_view path,
                                std::uint32_t attributes) {
  ensure_writable();
  const std::uint64_t rec_no = resolve(path);
  records_[rec_no]->std_info->file_attributes = attributes;
  store_record(rec_no, disk::UsnReason::kAttrChange);
}

void NtfsVolume::rename(std::string_view old_path, std::string_view new_path) {
  ensure_writable();
  const std::uint64_t rec_no = resolve(old_path);
  if (rec_no < kFirstUserRecord) throw FsError("cannot rename system file");

  const auto comps = components(new_path);
  if (comps.empty()) throw FsError("empty rename target");
  const std::string& new_name = comps.back();
  if (new_name.size() > 255) {
    throw FsError("name too long: " + printable(new_name));
  }
  std::uint64_t new_parent = kMftRecordRoot;
  for (std::size_t i = 0; i + 1 < comps.size(); ++i) {
    auto next = child(new_parent, comps[i]);
    if (!next || !records_[*next]->is_directory()) {
      throw FsError("parent directory missing: " + std::string(new_path));
    }
    new_parent = *next;
  }
  if (auto clash = child(new_parent, new_name); clash && *clash != rec_no) {
    throw FsError("rename target exists: " + std::string(new_path));
  }
  // A directory must not be moved into its own subtree.
  for (std::uint64_t cur = new_parent; cur != kMftRecordRoot;) {
    if (cur == rec_no) {
      throw FsError("cannot move a directory into itself: " +
                    std::string(old_path));
    }
    if (cur >= records_.size() || !records_[cur] || !records_[cur]->file_name) {
      break;
    }
    cur = records_[cur]->file_name->parent_ref;
  }

  MftRecord& rec = *records_[rec_no];
  const std::uint64_t old_parent = rec.file_name->parent_ref;
  const std::string old_name = rec.file_name->name;
  unlink_child(old_parent, old_name);
  rec.file_name = FileNameAttr{new_parent, new_name};
  store_record(rec_no, disk::UsnReason::kRename);
  link_child(new_parent, new_name, rec_no);
}

void NtfsVolume::write_stream(std::string_view path,
                              std::string_view stream_name,
                              std::span<const std::byte> data) {
  ensure_writable();
  if (stream_name.empty()) throw FsError("empty stream name");
  const std::uint64_t rec_no = resolve(path);
  MftRecord& rec = *records_[rec_no];
  // Replace an existing stream of the same name.
  std::erase_if(rec.named_streams, [&](const StreamAttr& s) {
    return iequals(s.name, stream_name);
  });
  StreamAttr stream;
  stream.name = std::string(stream_name);
  stream.data.resident = true;
  stream.data.resident_data.assign(data.begin(), data.end());
  stream.data.real_size = data.size();
  rec.named_streams.push_back(std::move(stream));
  if (rec.serialized_size() > kMftRecordSize) {
    StreamAttr& s = rec.named_streams.back();
    const std::uint64_t clusters =
        (data.size() + kClusterSize - 1) / kClusterSize;
    RunList runs = allocate_clusters(clusters);
    write_clusters(runs, data);
    s.data.resident = false;
    s.data.resident_data.clear();
    s.data.runs = std::move(runs);
  }
  store_record(rec_no, disk::UsnReason::kDataOverwrite);
}

void NtfsVolume::write_stream(std::string_view path,
                              std::string_view stream_name,
                              std::string_view text) {
  write_stream(path, stream_name, to_bytes(text));
}

std::vector<std::byte> NtfsVolume::read_stream(
    std::string_view path, std::string_view stream_name) const {
  const std::uint64_t rec_no = resolve(path);
  const MftRecord& rec = *records_[rec_no];
  for (const auto& s : rec.named_streams) {
    if (!iequals(s.name, stream_name)) continue;
    return read_attr_payload(dev_, s.data);
  }
  throw FsError("no such stream: " + std::string(path) + ":" +
                std::string(stream_name));
}

std::vector<std::string> NtfsVolume::list_streams(std::string_view path) const {
  const std::uint64_t rec_no = resolve(path);
  std::vector<std::string> out;
  for (const auto& s : records_[rec_no]->named_streams) out.push_back(s.name);
  return out;
}

bool NtfsVolume::remove_stream(std::string_view path,
                               std::string_view stream_name) {
  ensure_writable();
  const std::uint64_t rec_no = resolve(path);
  MftRecord& rec = *records_[rec_no];
  for (auto it = rec.named_streams.begin(); it != rec.named_streams.end();
       ++it) {
    if (!iequals(it->name, stream_name)) continue;
    if (!it->data.resident) {
      for (const Run& run : it->data.runs) {
        for (std::uint64_t c = run.lcn; c < run.lcn + run.length; ++c) {
          bitmap_[c / 8] &= static_cast<std::uint8_t>(~(1u << (c % 8)));
        }
      }
      flush_bitmap();
    }
    rec.named_streams.erase(it);
    store_record(rec_no, disk::UsnReason::kDataOverwrite);
    return true;
  }
  return false;
}

std::size_t NtfsVolume::live_record_count() const {
  std::size_t n = 0;
  for (const auto& rec : records_) {
    if (rec) ++n;
  }
  return n;
}

std::uint64_t NtfsVolume::used_data_bytes() const {
  std::uint64_t total = 0;
  for (const auto& rec : records_) {
    if (rec && rec->data) total += rec->data->real_size;
  }
  return total;
}

void NtfsVolume::ensure_writable() const {
  if (read_only_) throw FsError("volume is mounted read-only");
}

std::uint64_t NtfsVolume::allocate_record() {
  if (free_records_.empty()) throw FsError("MFT full");
  const std::uint64_t rec = free_records_.back();
  free_records_.pop_back();
  return rec;
}

void NtfsVolume::store_record(std::uint64_t number, disk::UsnReason reason) {
  ensure_writable();
  std::vector<std::byte> image;
  if (records_[number]) {
    image = records_[number]->serialize();
  } else {
    // Freed record: keep the (now not-in-use) tombstone already written by
    // the caller, or zero if never used. No device write, no journal entry.
    return;
  }
  dev_.write(mft_lba(number), image);
  journal_.append(number, reason);
}

void NtfsVolume::free_file_clusters(MftRecord& rec) {
  if (!rec.data || rec.data->resident) return;
  for (const Run& run : rec.data->runs) {
    for (std::uint64_t c = run.lcn; c < run.lcn + run.length; ++c) {
      bitmap_[c / 8] &= static_cast<std::uint8_t>(~(1u << (c % 8)));
    }
  }
  rec.data.reset();
  flush_bitmap();
}

RunList NtfsVolume::allocate_clusters(std::uint64_t count) {
  RunList runs;
  std::uint64_t remaining = count;
  std::uint64_t run_start = 0;
  std::uint64_t run_len = 0;
  for (std::uint64_t c = 0; c < total_clusters_ && remaining > 0; ++c) {
    const bool used = bitmap_[c / 8] & (1u << (c % 8));
    if (!used) {
      bitmap_[c / 8] |= static_cast<std::uint8_t>(1u << (c % 8));
      if (run_len == 0) run_start = c;
      ++run_len;
      --remaining;
    } else if (run_len > 0) {
      runs.push_back(Run{run_start, run_len});
      run_len = 0;
    }
  }
  if (run_len > 0) runs.push_back(Run{run_start, run_len});
  if (remaining > 0) {
    // Roll back the partial allocation before failing.
    for (const Run& run : runs) {
      for (std::uint64_t c = run.lcn; c < run.lcn + run.length; ++c) {
        bitmap_[c / 8] &= static_cast<std::uint8_t>(~(1u << (c % 8)));
      }
    }
    throw FsError("volume full");
  }
  flush_bitmap();
  return runs;
}

void NtfsVolume::write_clusters(const RunList& runs,
                                std::span<const std::byte> data) {
  ensure_writable();
  std::size_t offset = 0;
  std::vector<std::byte> cluster(kClusterSize);
  for (const Run& run : runs) {
    for (std::uint64_t c = run.lcn; c < run.lcn + run.length; ++c) {
      const std::size_t n = std::min(kClusterSize, data.size() - offset);
      std::memcpy(cluster.data(), data.data() + offset, n);
      std::memset(cluster.data() + n, 0, kClusterSize - n);
      dev_.write(c * kSectorsPerCluster, cluster);
      offset += n;
    }
  }
}

void NtfsVolume::flush_bitmap() {
  ensure_writable();
  std::vector<std::byte> raw(bitmap_.size());
  std::memcpy(raw.data(), bitmap_.data(), bitmap_.size());
  dev_.write(bitmap_start_cluster_ * kSectorsPerCluster, raw);
}

}  // namespace gb::ntfs
