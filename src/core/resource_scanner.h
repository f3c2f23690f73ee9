// ResourceScanner: the uniform provider interface behind ScanEngine.
//
// Each scan family (files, ASEP hooks, processes, modules) supplies the
// untrusted API view plus an *ordered list* of trusted views — per scan
// phase — and its diff policy. The engine is then one generic task graph
// over registered providers and their registered views: it knows nothing
// about resource types beyond this interface, so future views (deleted-
// MFT sweep, ADS sweep, a second dump traversal) plug in by registering
// a ViewDef rather than by growing per-type switches.
//
// Registered trusted views per family:
//
//   files     live:    index (directory-index walk), mft (raw MFT scan),
//                      both over the scan's MFT image
//             outside: disk  (WinPE clean-boot enumeration)
//   aseps     live:    hive  (low-level hive parse, located in the image)
//             outside: hive  (hive files on the powered-off disk, located
//                      in the image that view builds of it)
//   processes live:    active-list [, threads] [, carve]
//             outside: threads (dump traversal), carve (signature sweep
//                      of the raw dump bytes — works even when the dump
//                      no longer parses)
//   modules   live:    kernel (module-truth walk)
//             outside: dump   (module lists from the parsed dump)
//
// Every view returns StatusOr<ScanResult>: a failed view degrades that
// provider's diff (DiffReport::status) per-view instead of aborting the
// session — the surviving views still produce findings.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/differ.h"
#include "core/scan_result.h"
#include "disk/disk.h"
#include "kernel/dump.h"
#include "machine/machine.h"
#include "ntfs/snapshot.h"
#include "support/status.h"
#include "support/thread_pool.h"

namespace gb::core {

struct ScanConfig;                            // scan_engine.h
enum class ResourceMask : std::uint32_t;      // scan_engine.h

/// Everything a provider needs to run one view: the machine under scan,
/// the pool for internal fan-out (null = run serially), the session
/// configuration with the per-resource policies, and the scan's one
/// parsed MFT image of the live volume, which every live view that reads
/// the MFT reads instead of the volume.
struct ScanTaskContext {
  machine::Machine& machine;
  support::ThreadPool* pool = nullptr;
  const ScanConfig& config;
  /// The image — or why the volume does not parse — built by the engine
  /// after the hive flush and before any task (a session's, refreshed
  /// from the change journal). Null when no live view reads the MFT.
  const support::StatusOr<ntfs::MftSnapshot>* mft = nullptr;
};

/// Inputs available to the outside-the-box (clean environment) views:
/// the powered-off disk, the parsed blue-screen dump when the capture
/// produced one, and the dump's *raw bytes* — kept even when parsing
/// failed, so the signature carve can still sweep a scrubbed image.
struct OutsideSources {
  disk::SectorDevice& disk;
  const kernel::KernelDump* dump = nullptr;
  std::span<const std::byte> dump_bytes;
  /// Why `dump` is absent/unparsed when the capture wanted one; OK when
  /// the dump parsed or no view needed it.
  support::Status dump_status;
};

/// Which task graph a view list is being assembled for: views of the
/// live machine (inside/injected scans) or of the captured evidence
/// (outside-the-box diff).
enum class ScanPhase { kLive, kOutside };

class ResourceScanner {
 public:
  /// One registered trusted view. `id` is the short stable identifier
  /// findings reference in found_in/missing_from (the API view is always
  /// "api"); views run in registration order for report purposes but
  /// execute concurrently.
  struct ViewDef {
    std::string id;
    TrustLevel trust = TrustLevel::kTruthApproximation;
    /// Outside views only: the engine induces the blue-screen dump when
    /// any registered outside view asks for it.
    bool needs_dump = false;
    /// Runs the view. `src` is null in the live phase. Views that need
    /// capture evidence handle its absence themselves (returning the
    /// capture's dump_status, or kUnavailable when nothing was captured).
    std::function<support::StatusOr<ScanResult>(const ScanTaskContext&,
                                                const OutsideSources* src)>
        run;
    /// Live views only: the view reads ScanTaskContext::mft, so the
    /// engine builds the image before the phase's tasks start.
    bool reads_mft = false;
  };

  virtual ~ResourceScanner() = default;

  [[nodiscard]] virtual ResourceType type() const = 0;

  /// The untrusted API view, taken from `ctx`'s process.
  [[nodiscard]] virtual support::StatusOr<ScanResult> high_scan(
      const ScanTaskContext& t, const winapi::Ctx& ctx) const = 0;

  /// The ordered trusted views for `phase` under `cfg`'s policies. The
  /// engine runs every returned view as its own task and feeds all
  /// outcomes — completed or failed — to diff().
  [[nodiscard]] virtual std::vector<ViewDef> trusted_views(
      ScanPhase phase, const ScanConfig& cfg) const = 0;

  /// Diff policy over the assembled view matrix (views[0] is the API
  /// view). The default is the hash-sharded N-view matrix diff under the
  /// ShardPlan cost model.
  [[nodiscard]] virtual DiffReport diff(
      const ScanTaskContext& t, const std::vector<ViewInput>& views) const;
};

/// The four built-in scan families, in fixed report order (files, ASEPs,
/// processes, modules), filtered by `mask`.
std::vector<std::unique_ptr<ResourceScanner>> default_scanners(
    ResourceMask mask);

/// The view id the engine assigns the untrusted API view in every
/// matrix diff.
inline constexpr const char* kApiViewId = "api";

}  // namespace gb::core
