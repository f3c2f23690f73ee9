// Process and module scanners: Section 4's views.
//
// Processes:
//   high      — NtQuerySystemInformation from a process context
//   low       — driver walking the Active Process List (defeated by DKOM)
//   advanced  — driver walking the scheduler thread table (finds FU)
//   outside   — traversal of a blue-screen kernel dump
//
//   carve     — signature sweep of raw dump bytes (kernel/carve.h): the
//               fourth view, immune to linkage scrubbing because it never
//               follows a pointer
//
// Modules:
//   high      — Process32/Module32 toolhelp walk (reads each target's PEB
//               loader list; Vanquish blanks paths there)
//   low       — kernel-side per-process module truth
//   outside   — module lists from the kernel dump
#pragma once

#include <span>

#include "core/scan_result.h"
#include "kernel/dump.h"
#include "machine/machine.h"
#include "obs/metrics.h"
#include "support/status.h"
#include "support/thread_pool.h"

namespace gb::core {

[[nodiscard]] support::StatusOr<ScanResult> high_level_process_scan(
    machine::Machine& m, const winapi::Ctx& ctx);
[[nodiscard]] support::StatusOr<ScanResult> low_level_process_scan(machine::Machine& m);
[[nodiscard]] support::StatusOr<ScanResult> advanced_process_scan(machine::Machine& m);
[[nodiscard]] support::StatusOr<ScanResult> dump_process_scan(
    const kernel::KernelDump& dump);

/// The carve view: a chunked signature sweep of `dump_bytes` recovering
/// process records by shape rather than by traversal, so records a
/// scrubber unlinked from every list — but could not wipe — still
/// surface. `live` selects the live-memory flavor (inside scans carve a
/// serialization of current kernel memory, a truth approximation) vs.
/// the crash-dump flavor (outside scans carve the captured image — the
/// truth view). The sweep runs in the kernel's default chunks. An image
/// too damaged to sweep is a kCorrupt Status. When `metrics` is
/// non-null, gb_carve_* counters record the sweep; the registry never
/// feeds back into report bytes.
[[nodiscard]] support::StatusOr<ScanResult> carve_process_scan(
    std::span<const std::byte> dump_bytes, bool live,
    support::ThreadPool* pool = nullptr,
    obs::MetricsRegistry* metrics = nullptr);

[[nodiscard]] support::StatusOr<ScanResult> high_level_module_scan(
    machine::Machine& m, const winapi::Ctx& ctx);
[[nodiscard]] support::StatusOr<ScanResult> low_level_module_scan(machine::Machine& m);
[[nodiscard]] support::StatusOr<ScanResult> dump_module_scan(
    const kernel::KernelDump& dump);

}  // namespace gb::core
