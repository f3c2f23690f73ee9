// Figure 6 reproduction: hidden process and module detection, including
// FU's DKOM (advanced mode required) and Vanquish's PEB-blanked module.
#include <gtest/gtest.h>

#include "core/scan_engine.h"
#include "malware/collection.h"
#include "support/strings.h"

namespace gb {
namespace {

using core::ScanEngine;
using core::ScanKind;
using core::ResourceType;

machine::MachineConfig small_config() {
  machine::MachineConfig cfg;
  cfg.synthetic_files = 20;
  cfg.synthetic_registry_keys = 10;
  return cfg;
}

core::ScanConfig proc_only(bool advanced = false) {
  core::ScanConfig cfg;
  cfg.resources = core::ResourceMask::kProcesses;
  cfg.processes.scheduler_view = advanced;
  cfg.parallelism = 1;
  return cfg;
}

core::ScanConfig mod_only() {
  core::ScanConfig cfg;
  cfg.resources = core::ResourceMask::kModules;
  cfg.parallelism = 1;
  return cfg;
}

bool hidden_process_named(const core::Report& r, std::string_view image) {
  const auto* diff = r.diff_for(ResourceType::kProcess);
  if (!diff) return false;
  for (const auto& f : diff->hidden) {
    if (f.resource.key.find(fold_case(image)) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(DetectProcesses, CleanMachineHasZeroFindings) {
  machine::Machine m(small_config());
  for (const bool advanced : {false, true}) {
    ScanEngine engine(m, proc_only(advanced));
    const auto report = engine.run({.kind = ScanKind::kInside}).value();
    const auto* diff = report.diff_for(ResourceType::kProcess);
    ASSERT_NE(diff, nullptr);
    EXPECT_TRUE(diff->hidden.empty()) << report.to_string();
    EXPECT_TRUE(diff->extra.empty()) << report.to_string();
  }
}

TEST(DetectProcesses, AphexIatHidingDetected) {
  machine::Machine m(small_config());
  const auto aphex = malware::install_ghostware<malware::Aphex>(m);
  const auto report =
      ScanEngine(m, proc_only()).run({.kind = ScanKind::kInside}).value();
  EXPECT_TRUE(hidden_process_named(report, "~aphex.exe"))
      << report.to_string();
}

TEST(DetectProcesses, HackerDefenderDetectedWithinBasicMode) {
  // Section 6: Hacker Defender deterministically detected within seconds
  // through hidden-process detection — the basic Active Process List scan
  // suffices because it hooks APIs rather than unlinking.
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  const auto report =
      ScanEngine(m, proc_only()).run({.kind = ScanKind::kInside}).value();
  EXPECT_TRUE(hidden_process_named(report, "hxdef100.exe"));
}

TEST(DetectProcesses, BerbewJmpPatchDetected) {
  machine::Machine m(small_config());
  const auto berbew = malware::install_ghostware<malware::Berbew>(m);
  const auto report =
      ScanEngine(m, proc_only()).run({.kind = ScanKind::kInside}).value();
  EXPECT_TRUE(hidden_process_named(report, berbew->process_name()))
      << report.to_string();
}

TEST(DetectProcesses, FuRequiresAdvancedMode) {
  machine::Machine m(small_config());
  const auto fu = malware::install_ghostware<malware::FuRootkit>(m);
  const auto victim = m.spawn_process("C:\\windows\\system32\\notepad.exe").pid();
  ASSERT_TRUE(fu->hide_process(m, victim));

  // Basic mode: the low-level scan walks the same (doctored) list, so the
  // diff is silent — the low-level scan no longer contains the truth.
  const auto basic =
      ScanEngine(m, proc_only(false)).run({.kind = ScanKind::kInside}).value();
  EXPECT_FALSE(hidden_process_named(basic, "notepad.exe"))
      << basic.to_string();

  // Advanced mode walks the scheduler thread table and finds it.
  const auto advanced =
      ScanEngine(m, proc_only(true)).run({.kind = ScanKind::kInside}).value();
  EXPECT_TRUE(hidden_process_named(advanced, "notepad.exe"))
      << advanced.to_string();
}

TEST(DetectProcesses, FuHidingApiHookedGhostware) {
  // Section 4: "One can even use the FU rootkit to hide the other
  // process-hiding ghostware programs to increase their stealth."
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  const auto fu = malware::install_ghostware<malware::FuRootkit>(m);
  const auto hxdef_pid = m.find_pid("hxdef100.exe");
  ASSERT_NE(hxdef_pid, 0u);
  ASSERT_TRUE(fu->hide_process(m, hxdef_pid));

  const auto advanced =
      ScanEngine(m, proc_only(true)).run({.kind = ScanKind::kInside}).value();
  EXPECT_TRUE(hidden_process_named(advanced, "hxdef100.exe"));
}

TEST(DetectProcesses, FuUnhideRestoresCleanDiff) {
  machine::Machine m(small_config());
  const auto fu = malware::install_ghostware<malware::FuRootkit>(m);
  const auto victim = m.spawn_process("C:\\windows\\system32\\cmd.exe").pid();
  fu->hide_process(m, victim);
  fu->unhide_process(m, victim);
  const auto report =
      ScanEngine(m, proc_only(true)).run({.kind = ScanKind::kInside}).value();
  EXPECT_FALSE(report.infection_detected()) << report.to_string();
}

TEST(DetectModules, VanquishBlankedPebEntryDetected) {
  machine::Machine m(small_config());
  const auto vanquish = malware::install_ghostware<malware::Vanquish>(m);
  const auto report =
      ScanEngine(m, mod_only()).run({.kind = ScanKind::kInside}).value();
  const auto* diff = report.diff_for(ResourceType::kModule);
  ASSERT_NE(diff, nullptr);
  // vanquish.dll is injected into many processes; Figure 6 notes the
  // report contains many such entries.
  std::size_t vanquish_entries = 0;
  for (const auto& f : diff->hidden) {
    if (f.resource.key.find("vanquish.dll") != std::string::npos) {
      ++vanquish_entries;
    }
  }
  EXPECT_GE(vanquish_entries, 3u) << report.to_string();
  (void)vanquish;
}

TEST(DetectModules, CleanMachineHasZeroFindings) {
  machine::Machine m(small_config());
  const auto report =
      ScanEngine(m, mod_only()).run({.kind = ScanKind::kInside}).value();
  const auto* diff = report.diff_for(ResourceType::kModule);
  ASSERT_NE(diff, nullptr);
  EXPECT_TRUE(diff->hidden.empty()) << report.to_string();
}

TEST(DetectModules, HiddenProcessModulesSurfaceInModuleDiff) {
  // A process hidden at the API level cannot be asked for its modules, so
  // all of its modules show up as hidden too.
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  const auto report =
      ScanEngine(m, mod_only()).run({.kind = ScanKind::kInside}).value();
  const auto* diff = report.diff_for(ResourceType::kModule);
  std::size_t hxdef_mods = 0;
  for (const auto& f : diff->hidden) {
    if (f.resource.display.find("hxdef") != std::string::npos ||
        f.resource.key.find("ntdll") != std::string::npos) {
      ++hxdef_mods;
    }
  }
  EXPECT_GE(hxdef_mods, 1u);
}

TEST(DetectProcesses, CombinedScanMatchesPaperHeadline) {
  // "we were able to deterministically detect its presence within 5
  // seconds through hidden-process detection": combined process+module
  // scan, simulated time must be single-digit seconds.
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  core::ScanConfig cfg;
  cfg.resources = core::ResourceMask::kProcesses | core::ResourceMask::kModules;
  cfg.parallelism = 1;
  const auto report =
      ScanEngine(m, cfg).run({.kind = ScanKind::kInside}).value();
  EXPECT_TRUE(report.infection_detected());
  EXPECT_LT(report.total_simulated_seconds, 10.0);
  EXPECT_GT(report.total_simulated_seconds, 0.0);
}

}  // namespace
}  // namespace gb
