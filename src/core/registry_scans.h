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
// and read each payload from the disk; one loader serves both, parsing
// each payload or — given a digest-keyed parse cache, as a session
// keeps — reusing the parse of identical bytes.
//
// All scans return StatusOr: a torn or scrubbed hive is kCorrupt and
// degrades the registry diff instead of aborting the session.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/scan_result.h"
#include "disk/disk.h"
#include "hive/hive.h"
#include "machine/machine.h"
#include "ntfs/snapshot.h"
#include "support/status.h"
#include "support/thread_pool.h"

namespace gb::core {

/// One parsed hive payload, keyed in a HiveParseCache by the FNV-1a
/// digest of the raw payload bytes. A hive flush that rewrites identical
/// bytes (the common no-change case) re-uses the parse.
struct CachedHiveParse {
  std::string name;  // base-block hive name, kept for serialization
  hive::Key tree;
};
using HiveParseCache = std::map<std::uint64_t, CachedHiveParse>;

[[nodiscard]] support::StatusOr<ScanResult> high_level_registry_scan(
    machine::Machine& m, const winapi::Ctx& ctx);

/// The live hive view over the scan's MFT image of `dev`: finds the hive
/// backing files in the image's listing and reads their payloads in
/// mount order. Charges the payload bytes and seeks plus the seeks of a
/// raw MFT walk at the default batch. A payload whose digest `cache`
/// holds is served from it; fresh parses join it. Null `cache` parses
/// every payload. Never flushes (the engine did, serially).
[[nodiscard]] support::StatusOr<ScanResult> low_level_registry_scan(
    disk::SectorDevice& dev, const ntfs::MftSnapshot& image,
    HiveParseCache* cache);

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
