// File scanners: the views of Section 2.
//
//   high  — recursive FindFirstFile/FindNextFile walk from a chosen
//           process context ("dir /s /b" equivalent) — may contain the lie
//   mft   — raw MFT listing of the live disk — truth approximation
//   index — what the on-disk directory indexes reach — truth
//           approximation, its own evidence (index blobs, not parent refs)
//   outside — clean mount of the powered-off disk (WinPE boot) — truth
//
// The mft and index views read the scan's one MFT image (ntfs/snapshot.h),
// which the engine builds before any view runs; they charge the simulated
// work of the raw walk the paper's tool performs (simulate_scan_io), so
// simulated times do not depend on how the image was obtained. The high
// walk takes an optional pool and splits its own work (level-parallel
// directory walk) while producing a result byte-identical to the serial
// path.
//
// Scans that can fail return StatusOr: a dead scanner context is a
// kFailedPrecondition, a disk whose NTFS structures no longer parse is
// kCorrupt. The engine turns a non-OK scan into a degraded diff for that
// one resource type instead of aborting the session.
#pragma once

#include "core/scan_result.h"
#include "disk/disk.h"
#include "machine/machine.h"
#include "ntfs/snapshot.h"
#include "support/status.h"
#include "support/thread_pool.h"

namespace gb::core {

/// Recursive Win32 enumeration from `ctx`'s process. Directories whose
/// paths are not Win32-expressible cannot be descended into — their
/// contents are simply absent from this view, as on real Windows.
/// With a pool, each directory level's listings run concurrently and
/// merge in frontier order.
[[nodiscard]] support::StatusOr<ScanResult> high_level_file_scan(
    machine::Machine& m, const winapi::Ctx& ctx,
    support::ThreadPool* pool = nullptr);

/// The raw MFT view: the image's listing, NTFS metadata files excluded
/// (as the real tool must exclude $-files), charged one raw walk of
/// every record slot. Bypasses the entire API stack, filter drivers
/// included.
[[nodiscard]] ScanResult low_level_file_scan(const ntfs::MftSnapshot& image);

/// Standalone raw MFT scan of the running machine's disk: builds the
/// image (on `pool` when given), then the view above.
[[nodiscard]] support::StatusOr<ScanResult> low_level_file_scan(
    machine::Machine& m, support::ThreadPool* pool = nullptr);

/// The directory-index view: what a raw walk of the on-disk directory
/// indexes ($I30 equivalents) can reach. A live MFT record whose parent
/// index does not list it — data-only hiding via index unlinking — is
/// absent here but present in the raw MFT view, so the matrix diff
/// pinpoints the lie to the index layer; so is everything beneath such
/// a directory, which no index chain can reach either. kCorrupt when a
/// directory's index blob does not read or decode. Charged two record
/// passes (index collection and the listing walk).
[[nodiscard]] support::StatusOr<ScanResult> index_file_scan(
    const ntfs::MftSnapshot& image);

/// Clean-boot scan of a (typically powered-off) disk: fresh read-only
/// volume mount, full native enumeration — no ghostware code is running.
/// kCorrupt when the mount rejects the disk (ntfs/volume.h), when a
/// directory is reached twice (an index cycle), or when a listed name
/// does not resolve again.
[[nodiscard]] support::StatusOr<ScanResult> outside_file_scan(disk::SectorDevice& dev);

}  // namespace gb::core
