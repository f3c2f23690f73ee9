#include "core/resource_scanner.h"

#include "core/file_scans.h"
#include "core/process_scans.h"
#include "core/registry_scans.h"
#include "core/scan_engine.h"
#include "obs/metrics.h"

namespace gb::core {

namespace {

/// Registry the carve view records its gb_carve_* counters in — the same
/// resolution the engine uses for its own telemetry (null = collection
/// off; counters never feed back into report bytes).
obs::MetricsRegistry* carve_registry(const ScanConfig& cfg) {
  if (!cfg.collect_metrics) return nullptr;
  return cfg.metrics != nullptr ? cfg.metrics : &obs::default_registry();
}

/// Shared absence handling for views that read captured evidence: a
/// failed dump capture surfaces its own cause; a capture that never took
/// a dump is an unavailability.
support::Status missing_dump(const OutsideSources& src,
                             const char* what_unavailable) {
  if (!src.dump_status.ok()) return src.dump_status;
  return support::Status::unavailable(std::string("no kernel dump in capture: ") +
                                      what_unavailable);
}

/// Adapts a view over the scan's MFT image to ViewDef::run: a volume
/// that does not parse fails the view with the image's Status.
template <typename View>
auto over_image(View view) {
  return [view](const ScanTaskContext& t,
                const OutsideSources*) -> support::StatusOr<ScanResult> {
    if (t.mft == nullptr) {
      return support::Status::failed_precondition("no MFT image in scan");
    }
    if (!t.mft->ok()) return t.mft->status();
    return view(t, t.mft->value());
  };
}

/// Adapts a view over the capture's clean-boot mount to ViewDef::run: a
/// disk the mount rejects fails the view with the mount's Status.
template <typename View>
auto over_mount(View view) {
  return [view](const ScanTaskContext&,
                const OutsideSources* src) -> support::StatusOr<ScanResult> {
    if (src == nullptr || src->mount == nullptr) {
      return support::Status::failed_precondition(
          "no clean-boot mount in capture");
    }
    if (!src->mount->ok()) return src->mount->status();
    return view(src->mount->value());
  };
}

class FileScanner final : public ResourceScanner {
 public:
  ResourceType type() const override { return ResourceType::kFile; }

  support::StatusOr<ScanResult> high_scan(
      const ScanTaskContext& t, const winapi::Ctx& ctx) const override {
    return high_level_file_scan(t.machine, ctx, t.pool);
  }

  std::vector<ViewDef> trusted_views(ScanPhase phase,
                                     const ScanConfig&) const override {
    if (phase == ScanPhase::kOutside) {
      // The clean-boot view stays enumeration-based on purpose: it
      // models what a WinPE boot can see, so index-unlinked files stay
      // invisible to it and only the raw views expose them.
      return {ViewDef{"disk", TrustLevel::kTruth, false,
                      over_mount([](const ntfs::CleanBootMount& mount) {
                        return outside_file_scan(mount);
                      })}};
    }
    return {ViewDef{"index", TrustLevel::kTruthApproximation, false,
                    over_image([](const ScanTaskContext&,
                                  const ntfs::MftSnapshot& image) {
                      return index_file_scan(image);
                    }),
                    true},
            ViewDef{"mft", TrustLevel::kTruthApproximation, false,
                    over_image([](const ScanTaskContext&,
                                  const ntfs::MftSnapshot& image) {
                      return low_level_file_scan(image);
                    }),
                    true}};
  }
};

class AsepScanner final : public ResourceScanner {
 public:
  ResourceType type() const override { return ResourceType::kAsepHook; }

  support::StatusOr<ScanResult> high_scan(
      const ScanTaskContext& t, const winapi::Ctx& ctx) const override {
    return high_level_registry_scan(t.machine, ctx);
  }

  std::vector<ViewDef> trusted_views(ScanPhase phase,
                                     const ScanConfig&) const override {
    if (phase == ScanPhase::kOutside) {
      return {ViewDef{"hive", TrustLevel::kTruth, false,
                      over_mount([](const ntfs::CleanBootMount& mount) {
                        return outside_registry_scan(mount);
                      })}};
    }
    // The engine flushed the hives (or was told not to) before any task
    // started; never flush from inside a concurrent task.
    return {ViewDef{"hive", TrustLevel::kTruthApproximation, false,
                    over_image([](const ScanTaskContext& t,
                                  const ntfs::MftSnapshot& image) {
                      return low_level_registry_scan(t.machine.disk(), image);
                    }),
                    true}};
  }
};

class ProcessScanner final : public ResourceScanner {
 public:
  ResourceType type() const override { return ResourceType::kProcess; }

  support::StatusOr<ScanResult> high_scan(
      const ScanTaskContext& t, const winapi::Ctx& ctx) const override {
    return high_level_process_scan(t.machine, ctx);
  }

  std::vector<ViewDef> trusted_views(ScanPhase phase,
                                     const ScanConfig& cfg) const override {
    std::vector<ViewDef> views;
    if (phase == ScanPhase::kOutside) {
      views.push_back(
          ViewDef{"threads", TrustLevel::kTruth, true,
                  [](const ScanTaskContext&, const OutsideSources* src) {
                    if (src->dump == nullptr) {
                      return support::StatusOr<ScanResult>(
                          missing_dump(*src, "process truth unavailable"));
                    }
                    return dump_process_scan(*src->dump);
                  }});
      if (cfg.processes.carve != CarveMode::kOff) {
        // Runs on the raw bytes, not the parsed dump: a scrub that
        // breaks the parse (or merely unlinks records) does not reach
        // the bytes this sweep reads.
        views.push_back(ViewDef{
            "carve", TrustLevel::kTruth, true,
            [](const ScanTaskContext& t, const OutsideSources* src) {
              if (src->dump_bytes.empty()) {
                return support::StatusOr<ScanResult>(
                    missing_dump(*src, "nothing to carve"));
              }
              return carve_process_scan(src->dump_bytes, /*live=*/false,
                                        t.pool, carve_registry(t.config));
            }});
      }
      return views;
    }
    views.push_back(
        ViewDef{"active-list", TrustLevel::kTruthApproximation, false,
                [](const ScanTaskContext& t, const OutsideSources*) {
                  return low_level_process_scan(t.machine);
                }});
    if (cfg.processes.scheduler_view) {
      views.push_back(
          ViewDef{"threads", TrustLevel::kTruthApproximation, false,
                  [](const ScanTaskContext& t, const OutsideSources*) {
                    return advanced_process_scan(t.machine);
                  }});
    }
    if (cfg.processes.carve == CarveMode::kOn) {
      views.push_back(ViewDef{
          "carve", TrustLevel::kTruthApproximation, false,
          [](const ScanTaskContext& t, const OutsideSources*) {
            // Live-memory sweep: serialize the kernel's memory image
            // directly (no blue screen, no scrubber hooks run).
            const auto image = kernel::write_dump(t.machine.kernel());
            return carve_process_scan(image, /*live=*/true, t.pool,
                                      carve_registry(t.config));
          }});
    }
    return views;
  }
};

class ModuleScanner final : public ResourceScanner {
 public:
  ResourceType type() const override { return ResourceType::kModule; }

  support::StatusOr<ScanResult> high_scan(
      const ScanTaskContext& t, const winapi::Ctx& ctx) const override {
    return high_level_module_scan(t.machine, ctx);
  }

  std::vector<ViewDef> trusted_views(ScanPhase phase,
                                     const ScanConfig&) const override {
    if (phase == ScanPhase::kOutside) {
      return {ViewDef{"dump", TrustLevel::kTruth, true,
                      [](const ScanTaskContext&, const OutsideSources* src) {
                        if (src->dump == nullptr) {
                          return support::StatusOr<ScanResult>(
                              missing_dump(*src, "module truth unavailable"));
                        }
                        return dump_module_scan(*src->dump);
                      }}};
    }
    return {ViewDef{"kernel", TrustLevel::kTruthApproximation, false,
                    [](const ScanTaskContext& t, const OutsideSources*) {
                      return low_level_module_scan(t.machine);
                    }}};
  }
};

}  // namespace

DiffReport ResourceScanner::diff(const ScanTaskContext& t,
                                 const std::vector<ViewInput>& views) const {
  return cross_view_matrix_diff(type(), views, t.pool);
}

std::vector<std::unique_ptr<ResourceScanner>> default_scanners(
    ResourceMask mask) {
  std::vector<std::unique_ptr<ResourceScanner>> out;
  if (has(mask, ResourceMask::kFiles)) {
    out.push_back(std::make_unique<FileScanner>());
  }
  if (has(mask, ResourceMask::kAseps)) {
    out.push_back(std::make_unique<AsepScanner>());
  }
  if (has(mask, ResourceMask::kProcesses)) {
    out.push_back(std::make_unique<ProcessScanner>());
  }
  if (has(mask, ResourceMask::kModules)) {
    out.push_back(std::make_unique<ModuleScanner>());
  }
  return out;
}

}  // namespace gb::core
