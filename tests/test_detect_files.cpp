// Figure 3 reproduction: inside-the-box hidden-file detection for all ten
// file-hiding ghostware programs.
#include <gtest/gtest.h>

#include "core/scan_engine.h"
#include "malware/collection.h"

namespace gb {
namespace {

using core::ScanEngine;
using core::ScanKind;
using core::ResourceType;

machine::MachineConfig small_config() {
  machine::MachineConfig cfg;
  cfg.synthetic_files = 30;
  cfg.synthetic_registry_keys = 10;
  return cfg;
}

core::ScanConfig files_only() {
  core::ScanConfig cfg;
  cfg.resources = core::ResourceMask::kFiles;
  cfg.parallelism = 1;
  return cfg;
}

/// The report must list every manifest-hidden file and nothing else.
void expect_exact_hidden_files(const core::Report& report,
                               const malware::Manifest& manifest) {
  const auto* diff = report.diff_for(ResourceType::kFile);
  ASSERT_NE(diff, nullptr);
  std::set<std::string> expected;
  for (const auto& path : manifest.hidden_files) {
    expected.insert(core::file_key(path));
  }
  std::set<std::string> actual;
  for (const auto& f : diff->hidden) actual.insert(f.resource.key);
  EXPECT_EQ(actual, expected);
}

TEST(DetectFiles, CleanMachineHasZeroFindings) {
  machine::Machine m(small_config());
  const auto report =
      ScanEngine(m, files_only()).run({.kind = ScanKind::kInside}).value();
  const auto* diff = report.diff_for(ResourceType::kFile);
  ASSERT_NE(diff, nullptr);
  EXPECT_TRUE(diff->hidden.empty()) << report.to_string();
  EXPECT_TRUE(diff->extra.empty());
  EXPECT_GT(diff->high_count, 50u);
  EXPECT_EQ(diff->high_count, diff->low_count);
}

/// One parameterized case per Figure 3 row.
class Figure3Test : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Figure3Test, HiddenFilesDetectedExactly) {
  const auto entries = malware::file_hiding_collection();
  const auto& entry = entries[GetParam()];

  machine::Machine m(small_config());
  const auto ghost = entry.install(m);

  // Sanity: the high-level view really is lying (hidden file invisible).
  const auto report =
      ScanEngine(m, files_only()).run({.kind = ScanKind::kInside}).value();
  EXPECT_TRUE(report.infection_detected())
      << entry.display_name << "\n"
      << report.to_string();
  expect_exact_hidden_files(report, ghost->manifest());
}

INSTANTIATE_TEST_SUITE_P(AllTenPrograms, Figure3Test,
                         ::testing::Range<std::size_t>(0, 10));

TEST(DetectFiles, HackerDefenderIniPatternsHonored) {
  machine::Machine m(small_config());
  const auto hxdef = malware::install_ghostware<malware::HackerDefender>(
      m, std::vector<std::string>{"rcmd*", "secret-*"});
  // A file matching a user pattern, created after install, is hidden from
  // the API view but caught by the raw MFT scan.
  m.volume().write_file("C:\\secret-stash.dat", "loot");
  const auto report =
      ScanEngine(m, files_only()).run({.kind = ScanKind::kInside}).value();
  const auto* diff = report.diff_for(ResourceType::kFile);
  ASSERT_NE(diff, nullptr);
  bool found = false;
  for (const auto& f : diff->hidden) {
    if (f.resource.key == core::file_key("C:\\secret-stash.dat")) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_GE(hxdef->active_patterns().size(), 3u);
}

TEST(DetectFiles, NativeOnlyNamesAreDetected) {
  // Section 2's Win32-restriction exploit: files created via low-level
  // APIs with names Win32 cannot express.
  machine::Machine m(small_config());
  m.volume().write_file("C:\\windows\\payload.", "trailing dot");
  m.volume().write_file("C:\\windows\\aux", "reserved name");
  const auto report =
      ScanEngine(m, files_only()).run({.kind = ScanKind::kInside}).value();
  const auto* diff = report.diff_for(ResourceType::kFile);
  ASSERT_NE(diff, nullptr);
  std::set<std::string> keys;
  for (const auto& f : diff->hidden) keys.insert(f.resource.key);
  EXPECT_TRUE(keys.contains(core::file_key("C:\\windows\\payload.")));
  EXPECT_TRUE(keys.contains(core::file_key("C:\\windows\\aux")));
}

TEST(DetectFiles, DeepPathBeyondMaxPathDetected) {
  machine::Machine m(small_config());
  std::string deep = "C:\\d";
  while (deep.size() < 300) deep += "\\sub";
  m.volume().create_directories(deep);
  m.volume().write_file(deep + "\\buried.exe", "MZ");
  const auto report =
      ScanEngine(m, files_only()).run({.kind = ScanKind::kInside}).value();
  const auto* diff = report.diff_for(ResourceType::kFile);
  bool found = false;
  for (const auto& f : diff->hidden) {
    if (f.resource.key == core::file_key(deep + "\\buried.exe")) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(DetectFiles, MultipleGhostwareDetectedSimultaneously) {
  machine::Machine m(small_config());
  const auto hxdef = malware::install_ghostware<malware::HackerDefender>(m);
  const auto vanquish = malware::install_ghostware<malware::Vanquish>(m);
  const auto report =
      ScanEngine(m, files_only()).run({.kind = ScanKind::kInside}).value();
  const auto* diff = report.diff_for(ResourceType::kFile);
  ASSERT_NE(diff, nullptr);
  EXPECT_GE(diff->hidden.size(), hxdef->manifest().hidden_files.size() +
                                     vanquish->manifest().hidden_files.size());
}

TEST(DetectFiles, FilterDriverScopingStillCaught) {
  // A file hider scoping hiding to explorer.exe only: GhostBuster's own
  // context doesn't experience it, so the plain inside scan is clean —
  // but scanning from the targeted context catches it.
  machine::Machine m(small_config());
  auto hider = malware::make_hide_files(
      {"C:\\documents\\user\\private"},
      malware::TargetPolicy::only({"explorer.exe"}));
  hider->install(m);

  auto cfg = files_only();
  const auto plain =
      ScanEngine(m, cfg).run({.kind = ScanKind::kInside}).value();
  EXPECT_FALSE(plain.infection_detected());

  cfg.scanner_image = "explorer.exe";
  const auto targeted =
      ScanEngine(m, cfg).run({.kind = ScanKind::kInside}).value();
  EXPECT_TRUE(targeted.infection_detected());
}

TEST(DetectFiles, ReportRendersDisplayStrings) {
  machine::Machine m(small_config());
  malware::install_ghostware<malware::Vanquish>(m);
  const auto report =
      ScanEngine(m, files_only()).run({.kind = ScanKind::kInside}).value();
  const std::string text = report.to_string();
  EXPECT_NE(text.find("HIDDEN"), std::string::npos);
  EXPECT_NE(text.find("vanquish"), std::string::npos);
}

}  // namespace
}  // namespace gb
