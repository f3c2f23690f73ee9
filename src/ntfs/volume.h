// NtfsVolume: the file-system driver.
//
// Provides native-semantics operations (any name the on-disk format can
// hold is accepted; Win32 name restrictions are enforced one layer up, in
// winapi/kernel32, exactly as in Windows). All metadata mutations are
// written through to the underlying device immediately, so the raw disk
// image is always consistent with the driver's view — the property the
// low-level MFT scan depends on.
//
// Simplification (DESIGN.md §6): directory membership is derived from
// FILE_NAME parent references at mount time instead of on-disk index
// B-trees; the MFT, bitmap and data runs are genuine on-disk structures.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "disk/change_journal.h"
#include "disk/disk.h"
#include "ntfs/mft_record.h"
#include "ntfs/ntfs_format.h"
#include "support/clock.h"

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

/// How a mount may touch the device. A kReadWrite mount bumps the
/// boot-sector mount sequence (journal incarnation) at mount time and
/// writes metadata through as usual. A kReadOnly mount never writes the
/// device at all — not even the sequence bump — and every mutation
/// throws FsError; the outside-the-box scan uses it so examining the
/// evidence disk provably cannot alter it.
enum class MountMode { kReadWrite, kReadOnly };

class NtfsVolume {
 public:
  /// Writes a fresh file system onto the device.
  static void format(disk::SectorDevice& dev, std::uint32_t mft_record_count,
                     std::uint64_t serial = 0xC0FFEE);

  /// Mounts an already formatted device (parses boot sector + full MFT).
  explicit NtfsVolume(disk::SectorDevice& dev,
                      MountMode mode = MountMode::kReadWrite);

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
  std::uint32_t mft_record_capacity() const { return mft_record_count_; }
  disk::SectorDevice& device() { return dev_; }
  bool read_only() const { return read_only_; }

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
  /// Throws FsError on a read-only mount. Every device-writing path
  /// passes through one of the guarded helpers below.
  void ensure_writable() const;
  /// Serializes records_[number] to the device and journals the write.
  /// The single choke point for every scan-visible MFT byte change.
  void store_record(std::uint64_t number, disk::UsnReason reason);
  void free_file_clusters(MftRecord& rec);
  RunList allocate_clusters(std::uint64_t count);
  void write_clusters(const RunList& runs, std::span<const std::byte> data);
  std::vector<std::byte> read_clusters(const RunList& runs,
                                       std::uint64_t size) const;
  void flush_bitmap();
  /// link/unlink update the in-memory map AND persist the parent's
  /// on-disk index attribute (write-through).
  void link_child(std::uint64_t parent, std::string_view name, std::uint64_t rec);
  void unlink_child(std::uint64_t parent, std::string_view name);
  void persist_index(std::uint64_t dir);
  void free_attr_clusters(DataAttr& attr);
  std::vector<std::byte> attr_payload(const DataAttr& attr) const;
  std::uint64_t now_us() const { return clock_ ? clock_->now() : 0; }
  std::uint64_t mft_lba(std::uint64_t record) const;
  // `name` by value: callers pass the record's own FILE_NAME string, and
  // this function destroys the record before unlinking the name.
  void remove_one(std::uint64_t rec_no, std::uint64_t parent,
                  std::string name);

  disk::SectorDevice& dev_;
  VirtualClock* clock_ = nullptr;
  bool read_only_ = false;
  disk::ChangeJournal journal_;

  // Geometry (from boot sector).
  std::uint64_t total_clusters_ = 0;
  std::uint64_t mft_start_cluster_ = 0;
  std::uint32_t mft_record_count_ = 0;
  std::uint64_t bitmap_start_cluster_ = 0;
  std::uint32_t bitmap_cluster_count_ = 0;

  // Cached state (rebuilt at mount, kept write-through).
  std::vector<std::optional<MftRecord>> records_;
  std::map<std::uint64_t, std::map<std::string, std::uint64_t>> children_;
  std::vector<std::uint8_t> bitmap_;
  std::vector<std::uint64_t> free_records_;
};

}  // namespace gb::ntfs
