// Figure 4 reproduction: hidden ASEP hook detection for the six
// registry-hiding programs, plus the embedded-NUL and long-name hiding
// forms of Section 3.
#include <gtest/gtest.h>

#include "core/scan_engine.h"
#include "core/removal.h"
#include "malware/collection.h"
#include "registry/aseps.h"

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

core::ScanConfig registry_only() {
  core::ScanConfig cfg;
  cfg.resources = core::ResourceMask::kAseps;
  cfg.parallelism = 1;
  return cfg;
}

TEST(DetectRegistry, CleanMachineHasZeroFindings) {
  machine::Machine m(small_config());
  const auto report =
      ScanEngine(m, registry_only()).run({.kind = ScanKind::kInside}).value();
  const auto* diff = report.diff_for(ResourceType::kAsepHook);
  ASSERT_NE(diff, nullptr);
  EXPECT_TRUE(diff->hidden.empty()) << report.to_string();
  EXPECT_TRUE(diff->extra.empty());
  EXPECT_GE(diff->high_count, 10u);  // baseline services + Run + Winlogon...
}

/// One case per Figure 4 row: every *hidden* manifest hook must be
/// reported; visible hooks (commercial products) must not be.
class Figure4Test : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Figure4Test, HiddenAsepHooksDetectedExactly) {
  const auto entries = malware::registry_hiding_collection();
  const auto& entry = entries[GetParam()];
  machine::Machine m(small_config());
  const auto ghost = entry.install(m);

  const auto report =
      ScanEngine(m, registry_only()).run({.kind = ScanKind::kInside}).value();
  const auto* diff = report.diff_for(ResourceType::kAsepHook);
  ASSERT_NE(diff, nullptr) << entry.display_name;

  std::set<std::string> expected;
  for (const auto& hook : ghost->manifest().asep_hooks) {
    if (!hook.hidden) continue;
    expected.insert(
        core::asep_key(hook.key_path, hook.value_name, hook.data_item));
  }
  std::set<std::string> actual;
  for (const auto& f : diff->hidden) actual.insert(f.resource.key);
  EXPECT_EQ(actual, expected) << entry.display_name << "\n"
                              << report.to_string();
  EXPECT_FALSE(expected.empty());
}

INSTANTIATE_TEST_SUITE_P(AllSixPrograms, Figure4Test,
                         ::testing::Range<std::size_t>(0, 6));

TEST(DetectRegistry, EmbeddedNulValueNameDetected) {
  // Native-API hiding: a Run value whose name embeds a NUL is invisible
  // (truncated) through Win32 but present in the raw hive.
  machine::Machine m(small_config());
  const std::string sneaky("Updater\0Svc", 11);
  m.registry().set_value(registry::kRunKey,
                         hive::Value::string(sneaky, "C:\\evil.exe"));
  const auto report =
      ScanEngine(m, registry_only()).run({.kind = ScanKind::kInside}).value();
  const auto* diff = report.diff_for(ResourceType::kAsepHook);
  ASSERT_NE(diff, nullptr);
  bool found = false;
  for (const auto& f : diff->hidden) {
    if (f.resource.key == core::asep_key(registry::kRunKey, sneaky, "")) {
      found = true;
      // The report must render the NUL visibly.
      EXPECT_NE(f.resource.display.find("\\0"), std::string::npos);
    }
  }
  EXPECT_TRUE(found) << report.to_string();
}

TEST(DetectRegistry, OverlongValueNameDetected) {
  // Editor-bug hiding: a Run value with a 300-char name is skipped by the
  // Win32 enumeration buffer but present in the raw hive.
  machine::Machine m(small_config());
  const std::string long_name(300, 'q');
  m.registry().set_value(registry::kRunKey,
                         hive::Value::string(long_name, "C:\\evil.exe"));
  const auto report =
      ScanEngine(m, registry_only()).run({.kind = ScanKind::kInside}).value();
  const auto* diff = report.diff_for(ResourceType::kAsepHook);
  bool found = false;
  for (const auto& f : diff->hidden) {
    if (f.resource.key ==
        core::asep_key(registry::kRunKey, long_name, "")) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(DetectRegistry, RegistryCallbackHidingDetected) {
  // The "alternative" kernel-level interception of Section 3: a registry
  // callback filtering enumeration results.
  machine::Machine m(small_config());
  const std::string svc = std::string(registry::kServicesKey) + "\\cbghost";
  m.registry().set_value(svc, hive::Value::string("ImagePath", "C:\\cb.exe"));
  registry::RegistryCallback cb;
  cb.owner = "cbghost";
  cb.filter_subkeys = [](std::string_view, std::vector<std::string>& names) {
    std::erase_if(names,
                  [](const std::string& n) { return n == "cbghost"; });
  };
  m.registry().register_callback(std::move(cb));

  const auto report =
      ScanEngine(m, registry_only()).run({.kind = ScanKind::kInside}).value();
  const auto* diff = report.diff_for(ResourceType::kAsepHook);
  bool found = false;
  for (const auto& f : diff->hidden) {
    if (f.resource.key == core::asep_key(svc, "", "")) found = true;
  }
  EXPECT_TRUE(found) << report.to_string();
}

TEST(DetectRegistry, AppInitDataItemGranularity) {
  // Urbin hides only its own item inside AppInit_DLLs; a legitimate item
  // in the same value must not be flagged.
  machine::Machine m(small_config());
  m.registry().set_value(
      registry::kWindowsNtWindowsKey,
      hive::Value::string(registry::kAppInitDllsValue, "legit.dll"));
  const auto urbin = malware::install_ghostware<malware::Urbin>(m);

  const auto report =
      ScanEngine(m, registry_only()).run({.kind = ScanKind::kInside}).value();
  const auto* diff = report.diff_for(ResourceType::kAsepHook);
  ASSERT_EQ(diff->hidden.size(), 1u) << report.to_string();
  EXPECT_EQ(diff->hidden[0].resource.key,
            core::asep_key(registry::kWindowsNtWindowsKey,
                           registry::kAppInitDllsValue, "msvsres.dll"));
}

TEST(DetectRegistry, RemovalWorkflowDisablesGhostware) {
  // Section 6's Hacker Defender walkthrough: detect, remove hooks,
  // reboot, delete files, verify clean.
  machine::Machine m(small_config());
  const auto hxdef = malware::install_ghostware<malware::HackerDefender>(m);

  core::ScanConfig all;
  all.parallelism = 1;
  const auto report =
      ScanEngine(m, all).run({.kind = ScanKind::kInside}).value();
  ASSERT_TRUE(report.infection_detected());

  const auto outcome = core::remove_ghostware(m, report, all);
  EXPECT_EQ(outcome.hooks_removed, 2u);  // service + driver hooks
  EXPECT_GE(outcome.files_deleted, 4u);
  EXPECT_TRUE(outcome.rebooted);
  EXPECT_TRUE(outcome.clean()) << outcome.verification.to_string();
  // Artifacts really gone.
  EXPECT_FALSE(m.volume().exists("C:\\hxdef100.exe"));
  EXPECT_EQ(m.find_pid("hxdef100.exe"), 0u);
}

TEST(DetectRegistry, RemovalOfAppInitTrojan) {
  machine::Machine m(small_config());
  malware::install_ghostware<malware::Mersting>(m);
  core::ScanConfig cfg;
  cfg.parallelism = 1;
  const auto report =
      ScanEngine(m, cfg).run({.kind = ScanKind::kInside}).value();
  ASSERT_TRUE(report.infection_detected());
  const auto outcome = core::remove_ghostware(m, report);
  EXPECT_TRUE(outcome.clean()) << outcome.verification.to_string();
  // The AppInit value survives but no longer carries the Trojan DLL.
  const auto* v = m.registry().get_value(registry::kWindowsNtWindowsKey,
                                         registry::kAppInitDllsValue);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->as_string().find("kbddfl"), std::string::npos);
}

}  // namespace
}  // namespace gb
