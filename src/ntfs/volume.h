// The NTFS driver and the clean-boot mount.
//
// NtfsVolume is the live machine's file-system driver. It provides
// native-semantics operations (any name the on-disk format can hold is
// accepted; Win32 name restrictions are enforced one layer up, in
// winapi/kernel32, exactly as in Windows). All metadata mutations are
// written through to the underlying device immediately, so the raw disk
// image is always consistent with the driver's view — the property the
// low-level MFT scan depends on.
//
// CleanBootMount is what the outside-the-box scan's clean OS (the WinPE
// boot) reads of the powered-off disk: the boot sector, the root
// record, and then only the index blobs and records its listings and
// lookups reach. Both share the driver's boot-sector parse, its root
// rule and its index-entry rule.
//
// Simplification (DESIGN.md §6): directory membership is each
// directory's on-disk index blob (a flat entry list, not a B-tree); the
// MFT, bitmap and data runs are genuine on-disk structures. Neither
// mount trusts them blindly: see each constructor for what it rejects.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "disk/change_journal.h"
#include "disk/disk.h"
#include "ntfs/dir_index.h"
#include "ntfs/mft_record.h"
#include "ntfs/ntfs_format.h"
#include "support/clock.h"
#include "support/status.h"

namespace gb::ntfs {

struct DirEntry {
  std::string name;
  std::uint64_t record = 0;
  bool is_directory = false;
  std::uint64_t size = 0;
  std::uint32_t attributes = 0;
};

struct FileInfo {
  std::string name;
  std::uint64_t record = 0;
  bool is_directory = false;
  std::uint64_t size = 0;
  std::uint32_t attributes = 0;
  std::uint64_t created_us = 0;
  std::uint64_t modified_us = 0;
};

/// Thrown for semantic file-system errors (missing parent, name in use as
/// wrong kind, volume full).
class FsError : public std::runtime_error {
 public:
  explicit FsError(const std::string& what) : std::runtime_error(what) {}
};

/// Where a boot sector puts the volume's structures, as both mounts
/// parse it: a bad OEM id, or an MFT or cluster-bitmap extent that
/// leaves the device, is a gb::ParseError before anything is sized from
/// the counts.
struct VolumeGeometry {
  std::uint64_t total_clusters = 0;
  std::uint64_t mft_start_cluster = 0;
  std::uint32_t mft_record_count = 0;
  std::uint64_t bitmap_start_cluster = 0;
  std::uint32_t bitmap_cluster_count = 0;

  /// First sector of record `record`'s image.
  std::uint64_t mft_lba(std::uint64_t record) const {
    return mft_start_cluster * kSectorsPerCluster +
           record * (kMftRecordSize / kSectorSize);
  }
};

class NtfsVolume {
 public:
  /// Writes a fresh file system onto the device.
  static void format(disk::SectorDevice& dev, std::uint32_t mft_record_count,
                     std::uint64_t serial = 0xC0FFEE);

  /// Mounts an already formatted device: parses the boot sector and the
  /// full MFT, and bumps the boot-sector mount sequence (the journal
  /// incarnation). Throws gb::ParseError, naming the records or the
  /// field, when the device's bytes cannot be trusted to mount: an MFT or
  /// cluster-bitmap extent that leaves the device, a record that looks
  /// live but does not parse, a root (record 5) that is not a live
  /// directory, an index entry naming a record past the MFT or one that
  /// is not live or has no FILE_NAME, or an index blob whose size or runs
  /// leave the device (read_file and read_stream throw the same for such
  /// a payload).
  explicit NtfsVolume(disk::SectorDevice& dev);

  /// Clock used for file timestamps; optional.
  void set_clock(VirtualClock* clock) { clock_ = clock; }

  // --- queries (accept optional "X:" drive prefix; '\\'-separated) ---
  bool exists(std::string_view path) const;
  std::optional<FileInfo> stat(std::string_view path) const;
  /// Entries sorted by case-folded name. Throws FsError if not a directory.
  std::vector<DirEntry> list_directory(std::string_view path) const;
  std::vector<std::byte> read_file(std::string_view path) const;

  // --- mutations ---
  /// Creates or overwrites a file. Parent directory must exist.
  void write_file(std::string_view path, std::span<const std::byte> data,
                  std::uint32_t attributes = kAttrArchive);
  void write_file(std::string_view path, std::string_view text,
                  std::uint32_t attributes = kAttrArchive);
  void append_file(std::string_view path, std::string_view text);
  /// mkdir -p.
  void create_directories(std::string_view path);
  /// Removes a file or empty directory.
  void remove(std::string_view path);
  void remove_recursive(std::string_view path);
  void set_attributes(std::string_view path, std::uint32_t attributes);
  /// Moves/renames a file or directory. The target parent must exist and
  /// the target name must be free. Deliberately does NOT touch the
  /// standard-information timestamps (as NTFS does not on rename), so a
  /// rename chain A→B→A restores the record to byte-identical content.
  void rename(std::string_view old_path, std::string_view new_path);

  // --- alternate data streams (named $DATA attributes) --------------------
  // No Win32 enumeration API exists for these (the paper's future-work
  // hiding place); they are reachable only by exact "file:stream" name
  // at the native level, and visible to the raw MFT scan.
  // --- directory-index manipulation (data-only hiding) --------------------
  /// Removes the entry for `path` from its parent directory's on-disk
  /// index while leaving the MFT record (and its data) fully intact. The
  /// file becomes unreachable by name and invisible to every enumeration
  /// — the file-system analogue of FU's DKOM process unlinking. Returns
  /// the orphaned record number.
  std::uint64_t index_unlink(std::string_view path);
  /// Re-links an index-orphaned record into its parent's index using its
  /// FILE_NAME attribute. Returns false if the record is not live or is
  /// already linked.
  bool index_relink(std::uint64_t record_number);

  void write_stream(std::string_view path, std::string_view stream_name,
                    std::span<const std::byte> data);
  void write_stream(std::string_view path, std::string_view stream_name,
                    std::string_view text);
  std::vector<std::byte> read_stream(std::string_view path,
                                     std::string_view stream_name) const;
  std::vector<std::string> list_streams(std::string_view path) const;
  bool remove_stream(std::string_view path, std::string_view stream_name);

  // --- introspection for the timing model and tests ---
  std::size_t live_record_count() const;
  std::uint64_t used_data_bytes() const;
  std::uint32_t mft_record_capacity() const { return geo_.mft_record_count; }
  disk::SectorDevice& device() { return dev_; }

  /// The volume's USN-style change journal. Every MFT record write goes
  /// through the store_record() choke point, which appends here — so the
  /// journal sees exactly the set of records whose on-disk bytes may
  /// differ from what a previous scan parsed. The journal is in-memory
  /// per mount; each mount starts a fresh incarnation whose id is
  /// derived from the volume serial and a mount-sequence counter
  /// persisted in the boot sector, so ids are never reused across
  /// mounts and a cursor from an earlier mount always forces consumers
  /// into their full-walk fallback (it can never alias into the new
  /// incarnation's USN space).
  disk::ChangeJournal& journal() { return journal_; }
  const disk::ChangeJournal& journal() const { return journal_; }

 private:
  std::uint64_t resolve(std::string_view path) const;  // throws FsError
  std::optional<std::uint64_t> try_resolve(std::string_view path) const;
  std::optional<std::uint64_t> child(std::uint64_t dir, std::string_view name) const;
  std::uint64_t allocate_record();
  /// Serializes records_[number] to the device and journals the write.
  /// The single choke point for every scan-visible MFT byte change.
  void store_record(std::uint64_t number, disk::UsnReason reason);
  void free_file_clusters(MftRecord& rec);
  RunList allocate_clusters(std::uint64_t count);
  void write_clusters(const RunList& runs, std::span<const std::byte> data);
  void flush_bitmap();
  /// link/unlink update the in-memory map AND persist the parent's
  /// on-disk index attribute (write-through).
  void link_child(std::uint64_t parent, std::string_view name, std::uint64_t rec);
  void unlink_child(std::uint64_t parent, std::string_view name);
  void persist_index(std::uint64_t dir);
  void free_attr_clusters(DataAttr& attr);
  std::uint64_t now_us() const { return clock_ ? clock_->now() : 0; }
  // `name` by value: callers pass the record's own FILE_NAME string, and
  // this function destroys the record before unlinking the name.
  void remove_one(std::uint64_t rec_no, std::uint64_t parent,
                  std::string name);

  disk::SectorDevice& dev_;
  VirtualClock* clock_ = nullptr;
  disk::ChangeJournal journal_;
  VolumeGeometry geo_;

  // Cached state (rebuilt at mount, kept write-through).
  std::vector<std::optional<MftRecord>> records_;
  std::map<std::uint64_t, std::map<std::string, std::uint64_t>> children_;
  std::vector<std::uint8_t> bitmap_;
  std::vector<std::uint64_t> free_records_;
};

/// The clean-boot mount of a powered-off disk. It holds the boot
/// geometry and the root record, nothing else: no per-slot table, no
/// cache, no lock. Each listing and lookup reads the index blobs and
/// records it reaches straight from the device, so a record no index
/// entry reaches is never read, and nothing here writes the device. Any
/// number of views read through one mount at once.
///
/// Every rejection is a gb::ParseError naming the records or the field:
/// the driver's boot-sector rules (see VolumeGeometry) and its root rule
/// at open; while listing or looking up, an index blob whose size or
/// runs leave the device or that does not decode, and an index entry
/// naming a record past the MFT, one that is not live or has no
/// FILE_NAME, or one that does not parse.
class CleanBootMount {
 public:
  /// Reads the boot sector and the root record (5), which must be a live
  /// directory. kCorrupt, naming the field or the record, when either is
  /// rejected.
  [[nodiscard]] static support::StatusOr<CleanBootMount> open(
      disk::SectorDevice& dev);

  /// The entries of directory record `dir` (kMftRecordRoot for the
  /// root), in index order, each read from its own record. An index-less
  /// directory lists nothing. Throws gb::ParseError as above, and for a
  /// `dir` that is not a live directory.
  [[nodiscard]] std::vector<DirEntry> list(std::uint64_t dir) const;

  /// Resolves `path` ("X:" prefix optional, '\\'-separated) by walking
  /// index entries from the root, case-insensitively, and reads its
  /// unnamed $DATA payload (empty without one); nullopt when the path
  /// does not resolve. Adds to `seeks` what a reader locating the
  /// payload from scratch issues, exactly as MftSnapshot::read_data:
  /// the boot-sector probe, then the record and the payload clusters as
  /// a CountingDevice counts them. The lookup itself is not charged.
  [[nodiscard]] std::optional<std::vector<std::byte>> read_file(
      std::string_view path, std::uint64_t& seeks) const;

 private:
  CleanBootMount(disk::SectorDevice& dev, const VolumeGeometry& geo);
  /// Record `record` (below the capacity) read through `dev`, nullopt
  /// when its slot is not live; throws gb::ParseError naming the record
  /// when it looks live but does not parse.
  std::optional<MftRecord> load(disk::SectorDevice& dev,
                                std::uint64_t record) const;
  /// The entries of directory record `dir`'s index blob, `rec` being its
  /// record; none without an index.
  std::vector<IndexEntry> entries(std::uint64_t dir,
                                  const MftRecord& rec) const;

  disk::SectorDevice& dev_;
  VolumeGeometry geo_;
  MftRecord root_;
};

}  // namespace gb::ntfs
