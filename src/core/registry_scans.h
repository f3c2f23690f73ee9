// Registry (ASEP hook) scanners: Section 3's three views.
//
//   high   — Win32 RegEnumKey/RegEnumValue walk of the ASEP catalogue
//            from a chosen process context (RegEdit equivalent)
//   low    — flush + raw parse of the hive backing files, located in the
//            scan's MFT image and read straight from the disk below every
//            API layer — truth approximation
//   outside — hive files parsed from the powered-off disk (the paper
//            mounts them under the WinPE registry) — truth
//
// Both raw views locate the hive files in an MFT image (ntfs/snapshot.h)
// and read and parse each payload from the disk on every scan; one
// loader serves both. No parse outlives its scan, so a session rescan
// reads the hives exactly as a cold scan does.
//
// All scans return StatusOr: a torn or scrubbed hive is kCorrupt and
// degrades the registry diff instead of aborting the session.
#pragma once

#include "core/scan_result.h"
#include "disk/disk.h"
#include "machine/machine.h"
#include "ntfs/snapshot.h"
#include "support/status.h"
#include "support/thread_pool.h"

namespace gb::core {

[[nodiscard]] support::StatusOr<ScanResult> high_level_registry_scan(
    machine::Machine& m, const winapi::Ctx& ctx);

/// The live hive view over the scan's MFT image of `dev`: finds the hive
/// backing files in the image's listing, then reads and parses their
/// payloads in mount order. Charges the payload bytes and seeks plus the
/// seeks of a raw MFT walk. Never flushes (the engine did, serially).
[[nodiscard]] support::StatusOr<ScanResult> low_level_registry_scan(
    disk::SectorDevice& dev, const ntfs::MftSnapshot& image);

/// Standalone low-level scan of the live disk: `flush_hives` writes the
/// in-memory hives to their backing files first (the default), then it
/// builds an MFT image and runs the view above.
[[nodiscard]] support::StatusOr<ScanResult> low_level_registry_scan(
    machine::Machine& m, support::ThreadPool* pool = nullptr,
    bool flush_hives = true);

/// The outside hive view: builds its own MFT image of the powered-off
/// disk (the outside phase's only MFT reader) and parses the hives it
/// locates there. No walk charge: the clean environment's mount is free.
[[nodiscard]] support::StatusOr<ScanResult> outside_registry_scan(
    disk::SectorDevice& dev, support::ThreadPool* pool = nullptr);

}  // namespace gb::core
