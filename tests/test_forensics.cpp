// Forensic extras: deleted-record recovery, large-registry 'ri' lists,
// and a long soak across infect/scan/remove cycles.
#include <gtest/gtest.h>

#include "core/scan_engine.h"
#include "core/removal.h"
#include "hive/hive.h"
#include "malware/collection.h"
#include "registry/aseps.h"
#include "ntfs/mft_scanner.h"
#include "support/strings.h"

namespace gb {
namespace {

machine::MachineConfig small_config() {
  machine::MachineConfig cfg;
  cfg.synthetic_files = 15;
  cfg.synthetic_registry_keys = 8;
  return cfg;
}

TEST(DeletedRecovery, TombstonesAreRecoverable) {
  machine::Machine m(small_config());
  m.volume().write_file("C:\\evidence.doc", "incriminating");
  m.volume().remove("C:\\evidence.doc");

  ntfs::MftScanner scanner(m.disk());
  const auto deleted = scanner.scan_deleted();
  bool found = false;
  for (const auto& f : deleted) {
    if (iequals(f.path, "<deleted>\\evidence.doc")) {
      found = true;
      EXPECT_EQ(f.size, 13u);
    }
  }
  EXPECT_TRUE(found);
  // A live file never appears in the deleted view.
  for (const auto& f : deleted) {
    EXPECT_FALSE(icontains(f.path, "ntdll.dll"));
  }
}

TEST(DeletedRecovery, ReusedRecordNoLongerDeleted) {
  machine::Machine m(small_config());
  m.volume().write_file("C:\\a.tmp", "x");
  m.volume().remove("C:\\a.tmp");
  // Reuse the same record slot.
  m.volume().write_file("C:\\b.tmp", "y");
  ntfs::MftScanner scanner(m.disk());
  for (const auto& f : scanner.scan_deleted()) {
    EXPECT_FALSE(icontains(f.path, "a.tmp"));
  }
}

TEST(DeletedRecovery, PooledScanDeletedMatchesSerialAtAnyWorkerCount) {
  machine::Machine m(small_config());
  // Write everything first, then delete: a later write would reuse a
  // freed record slot and erase its tombstone.
  for (int i = 0; i < 30; ++i) {
    m.volume().write_file("C:\\temp" + std::to_string(i) + ".dat",
                          std::string(std::size_t(i + 1), 'x'));
  }
  for (int i = 0; i < 30; i += 2) {
    m.volume().remove("C:\\temp" + std::to_string(i) + ".dat");
  }
  ntfs::MftScanner scanner(m.disk());
  const auto serial = scanner.scan_deleted();
  EXPECT_FALSE(serial.empty());
  auto listing = [](const std::vector<ntfs::RawFile>& files) {
    std::string s;
    for (const auto& f : files) {
      s += std::to_string(f.record) + "|" + f.path + "|" +
           std::to_string(f.size) + "\n";
    }
    return s;
  };
  for (const std::size_t workers : {1u, 2u, 8u}) {
    support::ThreadPool pool(workers);
    // Tiny batches so even this small volume spans many of them.
    const auto pooled = scanner.scan_deleted(&pool, /*batch_records=*/64);
    EXPECT_EQ(listing(pooled), listing(serial)) << "workers=" << workers;
  }
}

TEST(DeletedRecovery, MalwareRemovalLeavesAuditTrail) {
  // After the removal workflow, the rootkit's files are deleted but
  // their tombstones still witness what was there — useful for incident
  // response.
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  core::ScanConfig cfg;
  cfg.parallelism = 1;
  const auto report =
      core::ScanEngine(m, cfg).run({.kind = core::ScanKind::kInside}).value();
  core::remove_ghostware(m, report, cfg);

  ntfs::MftScanner scanner(m.disk());
  bool hxdef_tombstone = false;
  for (const auto& f : scanner.scan_deleted()) {
    if (icontains(f.path, "hxdef100.exe")) hxdef_tombstone = true;
  }
  EXPECT_TRUE(hxdef_tombstone);
}

TEST(HiveRi, LargeSubkeyCountsRoundTripThroughRiLists) {
  hive::Key root;
  root.name = "SOFTWARE";
  hive::Key& parent = root.ensure_subkey("ManyKeys");
  for (int i = 0; i < 1500; ++i) {  // > 2 lh chunks
    parent.ensure_subkey("sub" + std::to_string(i))
        .set_value(hive::Value::dword("i", static_cast<std::uint32_t>(i)));
  }
  const auto image = hive::serialize_hive(root, "BIG");
  const auto parsed = hive::parse_hive(image);
  const auto* many = parsed.find_subkey("ManyKeys");
  ASSERT_NE(many, nullptr);
  ASSERT_EQ(many->subkeys.size(), 1500u);
  EXPECT_EQ(many->find_subkey("sub1234")->find_value("i")->as_dword(), 1234u);
}

TEST(HiveRi, ExactlyAtChunkBoundary) {
  for (const std::size_t n : {hive::kMaxLhEntries, hive::kMaxLhEntries + 1}) {
    hive::Key root;
    root.name = "X";
    for (std::size_t i = 0; i < n; ++i) {
      root.ensure_subkey("k" + std::to_string(i));
    }
    const auto parsed = hive::parse_hive(hive::serialize_hive(root, "X"));
    EXPECT_EQ(parsed.subkeys.size(), n);
  }
}

TEST(HiveRi, RegistryScanHandlesHugeServicesKey) {
  // A machine with a very large Services key (real enterprise boxes have
  // hundreds): the raw-hive ASEP scan must still agree with the API view.
  machine::Machine m(small_config());
  for (int i = 0; i < 600; ++i) {
    m.registry().set_value(
        std::string(registry::kServicesKey) + "\\svc" + std::to_string(i),
        hive::Value::string("ImagePath", "System32\\svc.exe"));
  }
  const auto report = core::ScanEngine(m, [] {
    core::ScanConfig cfg;
    cfg.resources = core::ResourceMask::kAseps;
    cfg.parallelism = 1;
    return cfg;
  }()).run({.kind = core::ScanKind::kInside}).value();
  EXPECT_FALSE(report.infection_detected()) << report.to_string();
  const auto* diff = report.diff_for(core::ResourceType::kAsepHook);
  EXPECT_GT(diff->high_count, 600u);
  EXPECT_EQ(diff->high_count, diff->low_count);
}

TEST(Soak, RepeatedInfectScanRemoveCyclesStayConsistent) {
  machine::MachineConfig cfg = small_config();
  cfg.mft_records = 32768;
  machine::Machine m(cfg);
  core::ScanConfig o;
  o.processes.scheduler_view = true;
  o.parallelism = 1;

  for (int round = 0; round < 3; ++round) {
    // Infect with two programs.
    malware::install_ghostware<malware::HackerDefender>(m);
    malware::install_ghostware<malware::Vanquish>(m);
    m.run_for(VirtualClock::seconds(120));

    const auto report =
        core::ScanEngine(m, o).run({.kind = core::ScanKind::kInside}).value();
    EXPECT_TRUE(report.infection_detected()) << "round " << round;
    EXPECT_GE(report.hidden_count(core::ResourceType::kFile), 8u);

    const auto outcome = core::remove_ghostware(m, report, o);
    EXPECT_TRUE(outcome.clean())
        << "round " << round << "\n"
        << outcome.verification.to_string();
    m.reboot();
    core::ScanEngine engine(m, o);
    EXPECT_FALSE(engine.run({.kind = core::ScanKind::kInside})
                     .value()
                     .infection_detected())
        << "round " << round;
  }
}

}  // namespace
}  // namespace gb
