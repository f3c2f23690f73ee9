// Internals of the incremental ScanSession (public API: scan_engine.h).
//
// SessionState is what a session carries between scans, in memory only:
// the volume's MFT image (ntfs/snapshot.h) and the change-journal cursor
// vouching for it. Nothing else outlives a scan: the hive view reads and
// parses every payload on every scan, as a cold scan does.
// sync_session() is the serial step at the head of every inside or
// injected scan that brings the image up to date — journal replay into
// it, or a full capture when the journal cannot vouch for it. A cold
// scan is a sync from an empty state; a session rescan syncs the state
// it kept. Either way the views then read the one image.
//
// This header is internal to gb_core (the engine and the tests include
// it); external callers see only ScanSession.
#pragma once

#include <cstdint>

#include "core/scan_engine.h"
#include "machine/machine.h"
#include "ntfs/snapshot.h"
#include "support/status.h"
#include "support/thread_pool.h"

namespace gb::core {

namespace internal {

/// Everything a session keeps between scans, in memory only. Each MFT
/// slot carries the digest of the raw bytes it was parsed from, so
/// splicing is valid exactly when the bytes match.
struct SessionState {
  SessionSpec spec;
  /// The MFT image as of the last sync, or why that sync could not build
  /// one (a volume that does not parse). Empty before the first sync,
  /// which therefore scans cold.
  support::StatusOr<ntfs::MftSnapshot> mft;
  /// Journal incarnation + cursor as of the last sync; they vouch for
  /// `mft` only while it holds an image.
  std::uint64_t journal_id = 0;
  std::uint64_t cursor = 0;
  /// Provenance of the most recent sync (what rescan() stamps into the
  /// report's "incremental" block).
  IncrementalStats last;
};

}  // namespace internal

/// Brings `s.mft` up to date with the machine's volume, preferring the
/// journal-guided refresh and falling back to a full capture — one
/// chunked pass over the MFT on `pool` — when the journal cannot vouch
/// for the image (cold start, journal reset/wrap, a slot that does not
/// re-parse to what the image holds under verify_spliced). Fills `s.last`.
/// Never throws: a volume that does not parse leaves the parse's Status
/// as the image, and the next sync starts cold. The engine calls it
/// after the hive flush and before any scan task, so the image never
/// changes mid-scan.
void sync_session(machine::Machine& m, internal::SessionState& s,
                  support::ThreadPool* pool = nullptr);

}  // namespace gb::core
