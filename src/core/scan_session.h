// Internals of the incremental ScanSession (public API: scan_engine.h).
//
// VolumeSnapshotStore is the state a session carries between scans: the
// volume's MFT image (ntfs/snapshot.h) and the change-journal cursor
// vouching for it. Nothing else outlives a scan: the hive view reads and
// parses every payload on every scan, as a cold scan does.
// sync_session() is the serial step at the head of every inside or
// injected scan that brings a store up to date — journal replay into the
// image, or a full capture when the journal cannot vouch for it. A cold
// scan is a sync from an empty store; a session rescan syncs the store
// it kept. Either way the views then read the one image.
//
// This header is internal to gb_core (the engine and the tests include
// it); external callers see only ScanSession.
#pragma once

#include <cstdint>
#include <string>

#include "core/scan_engine.h"
#include "machine/machine.h"
#include "ntfs/snapshot.h"
#include "support/status.h"
#include "support/thread_pool.h"

namespace gb::core {

/// Everything a session persists between scans. Each MFT slot carries
/// the digest of the raw bytes it was parsed from, so splicing is valid
/// exactly when the bytes match. A loaded store is trusted as the
/// journal is: only verify_spliced re-parses it against the device.
struct VolumeSnapshotStore {
  /// The MFT image as of the last sync, or why that sync could not build
  /// one (a volume that does not parse). Empty in a fresh store.
  support::StatusOr<ntfs::MftSnapshot> mft;

  /// Journal incarnation + cursor as of the last sync. Valid only while
  /// `primed` — a fresh store scans cold.
  std::uint64_t journal_id = 0;
  std::uint64_t cursor = 0;
  bool primed = false;

  void serialize(ByteWriter& w) const;
  [[nodiscard]] static support::StatusOr<VolumeSnapshotStore> deserialize(
      ByteReader& r);
  [[nodiscard]] support::Status save(const std::string& path) const;
  [[nodiscard]] static support::StatusOr<VolumeSnapshotStore> load(
      const std::string& path);
};

namespace internal {

struct SessionState {
  SessionSpec spec;
  VolumeSnapshotStore store;
  /// Provenance of the most recent sync (what rescan() stamps into the
  /// report's "incremental" block).
  IncrementalStats last;
};

}  // namespace internal

/// Brings `s.store` up to date with the machine's volume, preferring the
/// journal-guided refresh and falling back to a full capture — one
/// chunked pass over the MFT on `pool` — when the journal cannot vouch
/// for the image (cold start, journal reset/wrap, a slot that does not
/// re-parse to what the image holds under verify_spliced). Fills `s.last`.
/// Never throws: a volume that does not parse leaves the store unprimed
/// with the parse's Status as its image. The engine calls it after the
/// hive flush and before any scan task, so the image never changes
/// mid-scan.
void sync_session(machine::Machine& m, internal::SessionState& s,
                  support::ThreadPool* pool = nullptr);

}  // namespace gb::core
