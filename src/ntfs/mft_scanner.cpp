#include "ntfs/mft_scanner.h"

#include <algorithm>
#include <array>
#include <string>

#include "ntfs/ntfs_format.h"
#include "ntfs/snapshot.h"
#include "obs/trace.h"
#include "support/strings.h"

namespace gb::ntfs {

support::StatusOr<BootSector> read_boot_sector(disk::SectorDevice& dev) {
  if (dev.sector_count() == 0) {
    return support::Status::corrupt("not an NTFS volume (empty device)");
  }
  std::array<std::byte, kSectorSize> bs{};
  dev.read(0, bs);
  ByteReader r(bs);
  r.seek(BootSectorLayout::kOemOffset);
  if (r.str(8) != std::string(kOemId, sizeof kOemId)) {
    return support::Status::corrupt("not an NTFS volume (bad OEM id)");
  }
  r.seek(BootSectorLayout::kMftStartCluster);
  BootSector boot;
  boot.mft_start_cluster = r.u64();
  boot.mft_record_count = r.u32();
  const std::uint64_t sectors = dev.sector_count();
  const std::uint64_t record_sectors = kMftRecordSize / kSectorSize;
  if (boot.mft_start_cluster > sectors / kSectorsPerCluster ||
      std::uint64_t{boot.mft_record_count} * record_sectors >
          sectors - boot.mft_start_cluster * kSectorsPerCluster) {
    return support::Status::corrupt(
        "MFT extent beyond the device (start cluster " +
        std::to_string(boot.mft_start_cluster) + ", " +
        std::to_string(boot.mft_record_count) + " records)");
  }
  return boot;
}

MftScanner::MftScanner(disk::SectorDevice& dev) : dev_(dev) {
  auto boot = read_boot_sector(dev);
  if (!boot.ok()) throw ParseError(boot.status().message());
  boot_ = *boot;
}

std::optional<MftNode> node_from(const MftRecord& rec) {
  if (!rec.file_name) return std::nullopt;
  MftNode n;
  n.name = rec.file_name->name;
  n.parent = rec.file_name->parent_ref;
  n.is_directory = rec.is_directory();
  n.attributes = rec.std_info ? rec.std_info->file_attributes : 0;
  for (const auto& stream : rec.named_streams) {
    n.stream_names.push_back(stream.name);
  }
  n.size = rec.data ? rec.data->real_size : 0;
  return n;
}

std::vector<std::byte> read_attr_payload(disk::SectorDevice& dev,
                                         const DataAttr& attr) {
  if (attr.resident) return attr.resident_data;
  const std::uint64_t device_clusters =
      dev.sector_count() / kSectorsPerCluster;
  if (attr.real_size > device_clusters * kClusterSize) {
    throw ParseError("attribute size beyond the device");
  }
  std::vector<std::byte> out;
  out.reserve(attr.real_size);
  std::vector<std::byte> cluster(kClusterSize);
  for (const Run& run : attr.runs) {
    if (run.lcn > device_clusters || run.length > device_clusters - run.lcn) {
      throw ParseError("data run beyond the device");
    }
    for (std::uint64_t c = run.lcn; c < run.lcn + run.length; ++c) {
      dev.read(c * kSectorsPerCluster, cluster);
      const std::size_t n =
          std::min<std::uint64_t>(kClusterSize, attr.real_size - out.size());
      out.insert(out.end(), cluster.begin(),
                 cluster.begin() + static_cast<std::ptrdiff_t>(n));
      if (out.size() == attr.real_size) return out;
    }
  }
  return out;
}

std::vector<RawFile> MftScanner::scan(support::ThreadPool* pool) {
  auto image = MftSnapshot::capture(dev_, pool);
  if (!image.ok()) throw ParseError(image.status().message());
  corrupt_records_ = image->corrupt_records();
  return image->listing();
}

std::vector<RawFile> MftScanner::scan_deleted(support::ThreadPool* pool,
                                              std::uint32_t batch_records) {
  if (batch_records == 0) batch_records = kScanBatchRecords;
  if (boot_.mft_record_count <= kFirstUserRecord) return {};
  auto whole = obs::default_tracer().span("mft.scan_deleted", "parse");

  // Fixed-size record batches, like scan(): boundaries depend only on
  // batch_records, and per-batch outputs merge in record order, so the
  // listing is identical at any worker count. The tombstone sweep feeds
  // no timing model, so batches read dev_ directly (concurrent reads of
  // a MemDisk share no mutable state; see disk.h).
  const std::uint64_t span = boot_.mft_record_count - kFirstUserRecord;
  const std::size_t batch_count = (span + batch_records - 1) / batch_records;
  std::vector<std::vector<RawFile>> batches(batch_count);

  auto sweep_batch = [&](std::size_t b) {
    std::array<std::byte, kMftRecordSize> image{};
    const std::uint64_t begin =
        kFirstUserRecord + std::uint64_t{b} * batch_records;
    const std::uint64_t end =
        std::min<std::uint64_t>(begin + batch_records, boot_.mft_record_count);
    for (std::uint64_t i = begin; i < end; ++i) {
      dev_.read(boot_.record_lba(i), image);
      ByteReader r(image);
      if (r.u32() != kFileRecordMagic) continue;  // never used
      r.skip(2);
      if (r.u16() & kRecordInUse) continue;  // live, not deleted
      MftRecord rec;
      try {
        rec = MftRecord::parse(image);
      } catch (const ParseError&) {
        continue;  // tombstone too damaged to recover
      }
      if (!rec.file_name) continue;
      RawFile f;
      f.record = i;
      f.path = "<deleted>\\" + rec.file_name->name;
      f.is_directory = (rec.flags & kRecordIsDirectory) != 0;
      f.size = rec.data ? rec.data->real_size : 0;
      f.attributes = rec.std_info ? rec.std_info->file_attributes : 0;
      batches[b].push_back(std::move(f));
    }
  };
  if (pool) {
    pool->parallel_for(batch_count, sweep_batch);
  } else {
    for (std::size_t b = 0; b < batch_count; ++b) sweep_batch(b);
  }

  std::vector<RawFile> out;
  for (auto& b : batches) {
    out.insert(out.end(), std::make_move_iterator(b.begin()),
               std::make_move_iterator(b.end()));
  }
  return out;
}

std::vector<std::byte> read_record_data(disk::SectorDevice& dev,
                                        const BootSector& boot,
                                        std::uint64_t record) {
  std::array<std::byte, kMftRecordSize> image{};
  dev.read(boot.record_lba(record), image);
  const MftRecord rec = MftRecord::parse(image);
  if (!rec.data) return {};
  return read_attr_payload(dev, *rec.data);
}

std::vector<std::byte> MftScanner::read_file_data(std::uint64_t record) {
  return read_record_data(dev_, boot_, record);
}

std::optional<std::uint64_t> MftScanner::find_in(
    const std::vector<RawFile>& files, std::string_view path) {
  std::string_view stripped = path;
  if (stripped.size() >= 2 && stripped[1] == ':') stripped.remove_prefix(2);
  while (!stripped.empty() && stripped.front() == '\\') {
    stripped.remove_prefix(1);
  }
  for (const auto& f : files) {
    if (iequals(f.path, stripped)) return f.record;
  }
  return std::nullopt;
}

std::optional<std::uint64_t> MftScanner::find(std::string_view path) {
  return find_in(scan(), path);
}

}  // namespace gb::ntfs
