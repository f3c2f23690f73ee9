// MftSnapshot: the one parsed image of a volume's MFT.
//
// Every live view that reads the MFT reads this image: the mft, index
// and hive views (the engine builds it once per inside or injected scan,
// after the hive flush and before any view task). The outside views
// read no image: they list and open through the capture's clean-boot
// mount (ntfs/volume.h). A session keeps its image between scans and
// refreshes it from the change journal.
//
// A free slot (never used, or tombstoned) costs nothing: its liveness is
// all the listing and the cost model read of it. A live-looking slot
// (FILE magic + in-use flag) keeps its kind, the FNV-1a digest of its raw
// 1024 bytes and, when it parses into a listing node, the node. A parsed
// directory also keeps the record numbers its index blob lists, read
// from the blob and kept apart from the FILE_NAME parent refs, so the
// index view stays its own evidence.
//
// Refresh re-reads only the records the journal dirtied and classifies
// afresh each one whose digest changed. A dirty directory re-reads a
// non-resident index blob even when its record is unchanged:
// persist_index re-allocates the blob first-fit, so the entries can
// change while the record stays byte-identical. Byte identity with a
// cold capture follows (DESIGN.md "Incremental scanning"): nodes and
// resident index children are pure functions of the record bytes,
// non-resident children are re-read whenever their directory is
// journaled, and every scan-visible record write goes through the
// journaled NtfsVolume::store_record(). Out-of-band device writes bypass
// the journal; verify() re-parses every slot to detect them.
//
// Nothing here throws on hostile bytes: a record that does not parse is
// a kCorrupt slot, an index blob that does not read or decode is an
// index error, and a boot sector that does not parse (or whose MFT
// extent leaves the device) is a kCorrupt Status.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "disk/disk.h"
#include "ntfs/mft_scanner.h"
#include "support/status.h"
#include "support/thread_pool.h"

namespace gb::ntfs {

/// What a live-looking record slot's raw bytes held when last read.
enum class MftSlotKind : std::uint8_t {
  kCorrupt = 1,  // looks live but fails to parse
  kNoName = 2,   // parses but has no FILE_NAME (invisible to the walk)
  kLive = 3,     // parses into a listing node
};

/// Records per batch of the raw MFT walk: the image build's default and
/// the batch the cost model charges (simulate_scan_io). Small enough to
/// balance across workers, large enough to amortize task overhead.
inline constexpr std::uint32_t kScanBatchRecords = 1024;

/// A directory's $INDEX_ROOT as the image keeps it.
struct MftIndex {
  /// The attribute: a non-resident blob's runs, so a dirty directory can
  /// re-read it (a resident blob's bytes are dropped once decoded).
  DataAttr blob;
  /// Record numbers the blob lists, sorted and deduplicated.
  std::vector<std::uint64_t> children;
  /// Why the blob did not read or decode (children empty).
  std::string error;

  bool operator==(const MftIndex&) const = default;
};

/// One live-looking record slot.
struct MftSlot {
  MftSlotKind kind = MftSlotKind::kCorrupt;
  std::uint64_t digest = 0;       // FNV-1a 64 of the raw record image
  std::optional<MftNode> node;    // engaged iff kind == kLive
  std::optional<MftIndex> index;  // a parsed directory with an index

  bool operator==(const MftSlot&) const = default;
};

class MftSnapshot {
 public:
  MftSnapshot() = default;

  /// Full walk: reads every record slot once, in fixed batches of
  /// `batch_records` (0 = kScanBatchRecords) that run on
  /// `pool` when given, and parses the live-looking ones. The image is
  /// identical at any worker count and batch size. kCorrupt if the boot
  /// sector does not parse; never throws on the volume's bytes.
  [[nodiscard]] static support::StatusOr<MftSnapshot> capture(
      disk::SectorDevice& dev, support::ThreadPool* pool = nullptr,
      std::uint32_t batch_records = 0);

  /// Re-reads only `records` (deduplicated; out-of-range numbers are
  /// ignored), classifying afresh each one whose digest changed, and
  /// re-reads the index blob of every dirty directory. Returns how many
  /// slots it classified afresh or freed.
  std::uint64_t refresh(disk::SectorDevice& dev,
                        const std::vector<std::uint64_t>& records);

  /// Re-reads EVERY slot and every index blob, and returns the record
  /// numbers whose held slot is not what a cold capture would classify
  /// from the device now: writes the journal never saw. A live-looking
  /// slot matches when it classifies afresh to the held slot (digest,
  /// kind, node and index children alike); a free slot matches by still
  /// being free. Empty means the image is exact. Does not mutate the
  /// image.
  [[nodiscard]] std::vector<std::uint64_t> verify(
      disk::SectorDevice& dev) const;

  /// The raw listing: full paths resolved over the FILE_NAME parent refs
  /// (memoized parent-chain walk, cycles and broken chains under
  /// "<orphan>\"), in record order, the root excluded. Assembled once
  /// per capture or refresh, and shared by every view.
  [[nodiscard]] const std::vector<RawFile>& listing() const {
    return listing_;
  }

  /// chkdsk-style consistency check over the listing: the live
  /// non-system records whose parent directory carries an index that
  /// does NOT list them. A benign volume has none; an entry deleted from
  /// the index (data-only hiding) shows up here.
  [[nodiscard]] std::vector<RawFile> index_orphans() const;

  /// OK, or kCorrupt naming the first directory (in record order) whose
  /// index blob did not read or decode.
  [[nodiscard]] support::Status index_status() const;

  /// The IoStats of the raw walk the paper's scanner makes in batches of
  /// kScanBatchRecords, which views charge as their simulated work: per
  /// batch a probe of every slot (the first one a seek), and a second
  /// 2-sector read (a seek) of every live-looking slot — so
  ///   seeks = batches + live_looking,
  ///   sectors_read = 2 * (capacity + live_looking).
  [[nodiscard]] disk::IoStats simulate_scan_io() const;

  /// Reads record `record`'s unnamed $DATA payload from `dev` (empty
  /// when it has none). The image keeps neither payloads nor run lists,
  /// so this re-reads the record (read_record_data) and adds to `seeks`
  /// what a reader that locates the payload from scratch issues: the
  /// boot-sector probe, the record read, then the payload clusters.
  /// Throws gb::ParseError as read_record_data does.
  [[nodiscard]] std::vector<std::byte> read_data(disk::SectorDevice& dev,
                                                 std::uint64_t record,
                                                 std::uint64_t& seeks) const;

  /// Live-looking slots that fail to parse.
  [[nodiscard]] std::size_t corrupt_records() const;

  [[nodiscard]] std::uint32_t record_capacity() const {
    return boot_.mft_record_count;
  }
  /// The boot sector the image was built under.
  [[nodiscard]] const BootSector& boot() const { return boot_; }

 private:
  /// The slot of `record`; null when it is free.
  [[nodiscard]] const MftSlot* slot(std::uint64_t record) const;
  /// Rebuilds listing_ from the slots.
  void assemble_listing();

  BootSector boot_;
  /// Live-looking slots by record number; a free slot has no entry.
  std::map<std::uint64_t, MftSlot> slots_;
  std::vector<RawFile> listing_;
};

}  // namespace gb::ntfs
