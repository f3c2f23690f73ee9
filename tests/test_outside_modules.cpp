// Outside-the-box module detection via the kernel dump (Section 4):
// the missing half of the dump story — module truth travels with it.
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
  cfg.synthetic_files = 15;
  cfg.synthetic_registry_keys = 8;
  return cfg;
}

core::ScanConfig proc_and_modules() {
  core::ScanConfig cfg;
  cfg.resources =
      core::ResourceMask::kProcesses | core::ResourceMask::kModules;
  cfg.parallelism = 1;
  return cfg;
}

TEST(OutsideModules, VanquishBlankedPebFoundInDump) {
  machine::Machine m(small_config());
  malware::install_ghostware<malware::Vanquish>(m);
  ScanEngine engine(m, proc_and_modules());
  const auto report = engine.run({.kind = ScanKind::kOutside}).value();
  const auto* mods = report.diff_for(ResourceType::kModule);
  ASSERT_NE(mods, nullptr);
  std::size_t vanquish_hits = 0;
  for (const auto& f : mods->hidden) {
    if (icontains(f.resource.key, "vanquish.dll")) ++vanquish_hits;
  }
  EXPECT_GE(vanquish_hits, 3u) << report.to_string();
}

TEST(OutsideModules, CleanMachineDumpDiffIsQuiet) {
  machine::Machine m(small_config());
  ScanEngine engine(m, proc_and_modules());
  const auto report = engine.run({.kind = ScanKind::kOutside}).value();
  EXPECT_FALSE(report.infection_detected()) << report.to_string();
}

TEST(OutsideModules, HiddenProcessModulesInDumpDiff) {
  machine::Machine m(small_config());
  malware::install_ghostware<malware::Berbew>(m);
  ScanEngine engine(m, proc_and_modules());
  const auto report = engine.run({.kind = ScanKind::kOutside}).value();
  const auto* procs = report.diff_for(ResourceType::kProcess);
  const auto* mods = report.diff_for(ResourceType::kModule);
  ASSERT_NE(procs, nullptr);
  ASSERT_NE(mods, nullptr);
  EXPECT_EQ(procs->hidden.size(), 1u);
  // The hidden process's whole module list surfaces too.
  EXPECT_GE(mods->hidden.size(), 5u);
}

TEST(OutsideModules, TwoPhaseApiAllowsCustomBootEnvironment) {
  // Enterprise flow: capture now, diff later against the dump — the
  // pieces compose without the convenience wrapper.
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  ScanEngine gb(m, proc_and_modules());
  const auto cap = gb.capture_inside_high();
  ASSERT_TRUE(cap.dump.has_value());
  EXPECT_FALSE(m.running());  // bluescreen halted it
  const auto report = gb.outside_diff(cap);
  EXPECT_TRUE(report.infection_detected());
  // Dumps can be re-serialized for archival and parsed again.
  const auto archived = kernel::serialize_dump(*cap.dump);
  const auto reparsed = kernel::parse_dump(archived);
  EXPECT_EQ(reparsed.processes.size(), cap.dump->processes.size());
}

}  // namespace
}  // namespace gb
