// Cross-time (Tripwire/Strider) baseline: behaviour, noise, and the
// contrast with cross-view that motivates the paper.
#include <gtest/gtest.h>

#include "core/cross_time.h"
#include "registry/aseps.h"
#include "core/scan_engine.h"
#include "malware/hackerdefender.h"
#include "support/strings.h"

namespace gb::core {
namespace {

machine::MachineConfig small_config() {
  machine::MachineConfig cfg;
  cfg.synthetic_files = 15;
  cfg.synthetic_registry_keys = 8;
  return cfg;
}

ScanConfig serial_scan() {
  ScanConfig cfg;
  cfg.parallelism = 1;
  return cfg;
}

TEST(CrossTime, IdenticalCheckpointsAreClean) {
  machine::Machine m(small_config());
  const auto a = take_checkpoint(m);
  const auto b = take_checkpoint(m);
  EXPECT_TRUE(cross_time_diff(a, b).changes.empty());
  EXPECT_GT(a.size(), 50u);
}

TEST(CrossTime, DetectsAddRemoveModify) {
  machine::Machine m(small_config());
  m.volume().write_file("C:\\mod.txt", "v1");
  m.volume().write_file("C:\\gone.txt", "bye");
  const auto before = take_checkpoint(m);

  m.volume().write_file("C:\\new.txt", "hello");
  m.volume().write_file("C:\\mod.txt", "v2");
  m.volume().remove("C:\\gone.txt");
  m.registry().set_value("HKLM\\SOFTWARE\\Contoso\\App",
                         hive::Value::string("setting", "on"));
  const auto after = take_checkpoint(m);

  const auto diff = cross_time_diff(before, after);
  EXPECT_GE(diff.added(), 2u);  // new.txt + registry value (+ intermediates)
  EXPECT_EQ(diff.removed(), 1u);
  EXPECT_EQ(diff.modified(), 2u);  // mod.txt content + software hive? no:
  // file hash + nothing else — verify mod.txt specifically:
  bool mod_seen = false;
  for (const auto& c : diff.changes) {
    if (c.what == fold_case("C:\\mod.txt")) {
      EXPECT_EQ(c.kind, ChangeKind::kModified);
      mod_seen = true;
    }
  }
  EXPECT_TRUE(mod_seen);
}

TEST(CrossTime, ContentChangeWithSameSizeDetected) {
  machine::Machine m(small_config());
  m.volume().write_file("C:\\same-size.bin", "AAAA");
  const auto before = take_checkpoint(m);
  m.volume().write_file("C:\\same-size.bin", "BBBB");
  const auto diff = cross_time_diff(before, take_checkpoint(m));
  ASSERT_EQ(diff.modified(), 1u);
}

TEST(CrossTime, CatchesNonHidingMalwareThatCrossViewMisses) {
  // The paper's point in the other direction: cross-time is *broader* —
  // a Trojan that does NOT hide is invisible to the cross-view diff but
  // shows up as a change.
  machine::Machine m(small_config());
  const auto before = take_checkpoint(m);
  // A non-hiding backdoor: drops a file + Run key, hooks nothing.
  m.volume().write_file("C:\\windows\\system32\\backdoor.exe", "MZ evil");
  m.registry().set_value(registry::kRunKey,
                         hive::Value::string("backdoor", "backdoor.exe"));

  const auto cross_view =
      ScanEngine(m, serial_scan()).run({.kind = ScanKind::kInside}).value();
  EXPECT_FALSE(cross_view.infection_detected());

  const auto diff = cross_time_diff(before, take_checkpoint(m));
  const auto meaningful = filter_noise(diff.changes, default_noise_patterns());
  bool backdoor_seen = false;
  for (const auto& c : meaningful) {
    if (icontains(c.what, "backdoor")) backdoor_seen = true;
  }
  EXPECT_TRUE(backdoor_seen);
}

TEST(CrossTime, RoutineActivityIsNoiseUntilFiltered) {
  // The usability cost: a busy day produces legitimate changes that need
  // the noise filter; the cross-view diff needs none.
  machine::Machine m(small_config());
  const auto before = take_checkpoint(m);
  m.run_for(VirtualClock::seconds(1800));
  m.reboot();
  const auto after = take_checkpoint(m);

  const auto diff = cross_time_diff(before, after);
  EXPECT_GE(diff.changes.size(), 3u);  // log rotation, restore change log
  const auto filtered = filter_noise(diff.changes, default_noise_patterns());
  EXPECT_LT(filtered.size(), diff.changes.size());
  EXPECT_TRUE(filtered.empty())
      << "unexpected surviving change: " << filtered[0].what;

  // Meanwhile cross-view on the same machine: zero findings, no filter.
  ScanEngine engine(m, serial_scan());
  EXPECT_FALSE(
      engine.run({.kind = ScanKind::kInside}).value().infection_detected());
}

TEST(CrossTime, HidingMalwareCaughtByBothApproaches) {
  machine::Machine m(small_config());
  const auto before = take_checkpoint(m);
  malware::install_ghostware<malware::HackerDefender>(m);
  const auto diff = cross_time_diff(before, take_checkpoint(m));
  const auto meaningful = filter_noise(diff.changes, default_noise_patterns());
  bool hxdef_change = false;
  for (const auto& c : meaningful) {
    if (icontains(c.what, "hxdef")) hxdef_change = true;
  }
  EXPECT_TRUE(hxdef_change);
  ScanEngine engine(m, serial_scan());
  EXPECT_TRUE(
      engine.run({.kind = ScanKind::kInside}).value().infection_detected());
}

TEST(CrossTime, NoiseFilterIsADoubleEdgedSword) {
  // Malware that drops its payload inside a noise-filtered location
  // evades the filtered cross-time report — the maintenance trap of
  // pattern-based filtering (cross-view has no such trap).
  machine::Machine m(small_config());
  const auto before = take_checkpoint(m);
  m.volume().write_file("C:\\windows\\temp\\dropper.exe", "MZ evil");
  const auto diff = cross_time_diff(before, take_checkpoint(m));
  const auto filtered = filter_noise(diff.changes, default_noise_patterns());
  for (const auto& c : filtered) {
    EXPECT_FALSE(icontains(c.what, "dropper"));
  }
}

}  // namespace
}  // namespace gb::core
