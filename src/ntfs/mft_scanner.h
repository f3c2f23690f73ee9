// Raw MFT scanner — the paper's low-level file scan.
//
// This code is deliberately independent of NtfsVolume: it consumes only
// raw device bytes (boot sector, MFT records, run lists) and reconstructs
// full paths from FILE_NAME parent references. Nothing a ghostware
// program does to the API stack, the filter-driver chain, or the SSDT can
// affect what this scanner sees, which is exactly the trust argument of
// Section 2 of the paper.
//
// The parse itself lives in MftSnapshot (ntfs/snapshot.h), the one
// parsed MFT image a scan builds; MftScanner is the convenience front
// end over it for callers that want one listing (ADS sweep, cross-time
// checkpoints, removal, tests), plus the tombstone sweep and single-file
// payload reads.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "disk/disk.h"
#include "ntfs/mft_record.h"
#include "support/status.h"
#include "support/thread_pool.h"

namespace gb::ntfs {

/// One file or directory as seen in the raw MFT.
struct RawFile {
  std::uint64_t record = 0;
  std::string path;  // full path from volume root, '\\'-separated
  bool is_directory = false;
  /// NTFS metadata records ($MFT, $Bitmap, record numbers < 16). The
  /// GhostBuster file diff excludes these, as the real tool must.
  bool is_system = false;
  std::uint64_t size = 0;
  std::uint32_t attributes = 0;
  /// Names of alternate data streams found on this record. The Win32 API
  /// surface has no way to enumerate these; the raw scan is the only
  /// view that shows them.
  std::vector<std::string> stream_names;
};

/// One live MFT record reduced to its listing fields. Neither the
/// payload nor its run list is kept: a reader of the payload (the hive
/// view) re-reads the record, as a cold reader would. A parsed record
/// maps to its node deterministically, so two records with identical raw
/// bytes always produce identical nodes (what makes a digest match sound
/// grounds for splicing).
struct MftNode {
  std::string name;
  std::uint64_t parent = 0;
  bool is_directory = false;
  std::uint32_t attributes = 0;
  std::vector<std::string> stream_names;
  std::uint64_t size = 0;  // the unnamed $DATA's byte size; 0 without one

  bool operator==(const MftNode&) const = default;
};

/// Reduces a parsed record to its node; nullopt when the record carries
/// no FILE_NAME attribute and is invisible to the path walk.
[[nodiscard]] std::optional<MftNode> node_from(const MftRecord& rec);

/// Where a volume's MFT lies, as its boot sector says.
struct BootSector {
  std::uint64_t mft_start_cluster = 0;
  std::uint32_t mft_record_count = 0;

  bool operator==(const BootSector&) const = default;

  /// First sector of record `record`'s image.
  std::uint64_t record_lba(std::uint64_t record) const {
    return mft_start_cluster * kSectorsPerCluster +
           record * (kMftRecordSize / kSectorSize);
  }
};

/// The one boot-sector parser of the raw views. kCorrupt for a bad OEM
/// id, and for an MFT extent that does not fit on the device: the record
/// count is attacker-controlled, so nothing is sized or read from it
/// until the extent is known to exist.
[[nodiscard]] support::StatusOr<BootSector> read_boot_sector(
    disk::SectorDevice& dev);

/// Reads an attribute's payload: the resident bytes, or the clusters of
/// its run list up to real_size. Throws gb::ParseError for a payload
/// larger than the device or a run that leaves it, so a hostile run list
/// can neither wrap an LBA nor size a buffer.
[[nodiscard]] std::vector<std::byte> read_attr_payload(
    disk::SectorDevice& dev, const DataAttr& attr);

/// Reads record `record` under `boot` and then its unnamed $DATA payload
/// (empty without one). Throws gb::ParseError for a record that does not
/// parse or a hostile run list.
[[nodiscard]] std::vector<std::byte> read_record_data(
    disk::SectorDevice& dev, const BootSector& boot, std::uint64_t record);

class MftScanner {
 public:
  /// Parses the boot sector; throws gb::ParseError if not NTFS.
  explicit MftScanner(disk::SectorDevice& dev);

  /// The raw listing: builds the MFT image (MftSnapshot::capture, one
  /// chunked pass, on `pool` when given) and returns its listing.
  /// Orphaned records (broken or cyclic parent chains) are reported
  /// under "<orphan>\". Records that fail to parse (disk corruption, torn
  /// writes) are skipped and counted — a forensic scanner must survive
  /// them. Byte-identical at any worker count.
  std::vector<RawFile> scan(support::ThreadPool* pool = nullptr);

  /// Live-looking records that failed to parse during the last scan().
  std::size_t corrupt_records() const { return corrupt_records_; }

  /// Forensic recovery: tombstoned records (valid FILE magic, in-use flag
  /// cleared) whose metadata is still intact — recently deleted files.
  /// Names are best-effort; parent paths may themselves be gone.
  ///
  /// The record space is processed in fixed-size batches (boundaries
  /// depend only on batch_records, 0 = kScanBatchRecords) that run
  /// concurrently on a pool and merge in record order, so the listing is
  /// byte-identical at any worker count.
  std::vector<RawFile> scan_deleted(support::ThreadPool* pool = nullptr,
                                    std::uint32_t batch_records = 0);

  /// Reads the full data payload of a record (resident or via run list).
  std::vector<std::byte> read_file_data(std::uint64_t record);

  /// Case-insensitive path lookup over the raw structures.
  std::optional<std::uint64_t> find(std::string_view path);

  /// Case-insensitive lookup in an already-scanned listing (lets callers
  /// resolve many paths from one scan() instead of rescanning per path).
  static std::optional<std::uint64_t> find_in(
      const std::vector<RawFile>& files, std::string_view path);

 private:
  disk::SectorDevice& dev_;
  BootSector boot_;
  std::size_t corrupt_records_ = 0;
};

}  // namespace gb::ntfs
