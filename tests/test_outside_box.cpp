// Outside-the-box detection (Sections 2–4) and the false-positive study.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/file_scans.h"
#include "core/registry_scans.h"
#include "core/scan_engine.h"
#include "disk/disk.h"
#include "machine/services.h"
#include "malware/collection.h"
#include "ntfs/mft_record.h"
#include "ntfs/mft_scanner.h"
#include "ntfs/volume.h"
#include "support/bytes.h"
#include "support/strings.h"

namespace gb {
namespace {

using core::ScanEngine;
using core::ScanKind;
using core::ResourceType;

machine::MachineConfig small_config(bool ccm = false) {
  machine::MachineConfig cfg;
  cfg.synthetic_files = 25;
  cfg.synthetic_registry_keys = 10;
  cfg.ccm_service = ccm;
  return cfg;
}

core::ScanConfig files_and_registry() {
  core::ScanConfig cfg;
  cfg.resources = core::ResourceMask::kFiles | core::ResourceMask::kAseps;
  cfg.parallelism = 1;
  return cfg;
}

std::size_t hidden_named(const core::DiffReport& d, std::string_view needle) {
  std::size_t n = 0;
  for (const auto& f : d.hidden) {
    if (icontains(f.resource.key, needle)) ++n;
  }
  return n;
}

TEST(OutsideBox, HackerDefenderFilesAndHooksDetected) {
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  ScanEngine engine(m, files_and_registry());
  const auto report = engine.run({.kind = ScanKind::kOutside}).value();
  EXPECT_FALSE(m.running());

  const auto* files = report.diff_for(ResourceType::kFile);
  ASSERT_NE(files, nullptr);
  EXPECT_GE(hidden_named(*files, "hxdef"), 3u) << report.to_string();

  const auto* aseps = report.diff_for(ResourceType::kAsepHook);
  ASSERT_NE(aseps, nullptr);
  EXPECT_EQ(hidden_named(*aseps, "hackerdefender"), 2u);
}

TEST(OutsideBox, SsdtHookerCannotHideFromCleanBoot) {
  // ProBot's SSDT hooks only exist while its driver runs; the WinPE view
  // is taken with the machine off.
  machine::Machine m(small_config());
  const auto probot = malware::install_ghostware<malware::ProBotSe>(m);
  ScanEngine engine(m, files_and_registry());
  const auto report = engine.run({.kind = ScanKind::kOutside}).value();
  const auto* files = report.diff_for(ResourceType::kFile);
  std::size_t found = 0;
  for (const auto& path : probot->manifest().hidden_files) {
    for (const auto& f : files->hidden) {
      if (f.resource.key == core::file_key(path)) ++found;
    }
  }
  EXPECT_EQ(found, 4u);
}

TEST(OutsideBox, FalsePositivesComeFromServices) {
  // Clean machine: the outside diff is not empty — always-running
  // services created files during the shutdown window. Baseline is the
  // paper's "two or less".
  machine::Machine m(small_config(/*ccm=*/false));
  m.run_for(VirtualClock::seconds(120));
  ScanEngine engine(m, files_and_registry());
  const auto report = engine.run({.kind = ScanKind::kOutside}).value();
  const auto* files = report.diff_for(ResourceType::kFile);
  ASSERT_NE(files, nullptr);
  EXPECT_LE(files->hidden.size(), 2u) << report.to_string();
  EXPECT_GE(files->hidden.size(), 1u);
  // All FPs are service logs, recognizable by name.
  for (const auto& f : files->hidden) {
    const bool service_file = icontains(f.resource.key, "avlog") ||
                              icontains(f.resource.key, "change") ||
                              icontains(f.resource.key, "ccm");
    EXPECT_TRUE(service_file) << f.resource.display;
  }
  // The registry diff stays perfectly clean.
  const auto* aseps = report.diff_for(ResourceType::kAsepHook);
  EXPECT_TRUE(aseps->hidden.empty());
}

TEST(OutsideBox, CcmServiceRaisesFalsePositivesTo7) {
  // The paper's one problematic machine had 7 FPs; disabling CCM dropped
  // it to 2.
  machine::Machine with_ccm(small_config(/*ccm=*/true));
  with_ccm.run_for(VirtualClock::seconds(120));
  ScanEngine engine(with_ccm, files_and_registry());
  const auto report = engine.run({.kind = ScanKind::kOutside}).value();
  const auto* files = report.diff_for(ResourceType::kFile);
  EXPECT_EQ(files->hidden.size(), 7u) << report.to_string();

  // Disable CCM, reboot, rescan: back to <= 2.
  with_ccm.boot();
  with_ccm.services().set_enabled(machine::Services::kCcm, false);
  with_ccm.run_for(VirtualClock::seconds(60));
  const auto rescan = engine.run({.kind = ScanKind::kOutside}).value();
  EXPECT_LE(rescan.diff_for(ResourceType::kFile)->hidden.size(), 2u);
}

TEST(OutsideBox, InsideScanStaysFpFreeOnBusyMachine) {
  // Contrast: inside-the-box scans are back-to-back, so service activity
  // (which only appends) cannot create presence diffs.
  machine::Machine m(small_config(true));
  m.run_for(VirtualClock::seconds(600));
  ScanEngine engine(m, files_and_registry());
  const auto report = engine.run({.kind = ScanKind::kInside}).value();
  EXPECT_FALSE(report.infection_detected()) << report.to_string();
}

TEST(OutsideBox, DumpBasedProcessScanFindsDkom) {
  // Outside-the-box volatile-state scan: FU's DKOM-hidden process is in
  // the dump's thread table.
  machine::Machine m(small_config());
  const auto fu = malware::install_ghostware<malware::FuRootkit>(m);
  const auto victim =
      m.spawn_process("C:\\windows\\system32\\notepad.exe").pid();
  fu->hide_process(m, victim);

  core::ScanConfig cfg;
  cfg.resources = core::ResourceMask::kProcesses;
  cfg.parallelism = 1;
  const auto report =
      ScanEngine(m, cfg).run({.kind = ScanKind::kOutside}).value();
  const auto* procs = report.diff_for(ResourceType::kProcess);
  ASSERT_NE(procs, nullptr);
  EXPECT_EQ(hidden_named(*procs, "notepad.exe"), 1u) << report.to_string();
}

TEST(OutsideBox, DumpScrubberDefeatsDumpScan) {
  // The paper's caveat: the blue-screen dump is only a truth
  // approximation — future ghostware could trap the crash and scrub
  // itself. Verify the attack works against the dump path (and that the
  // WinPE *persistent-state* scan is unaffected).
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  m.register_bluescreen_scrubber([](std::vector<std::byte>& bytes) {
    auto dump = kernel::parse_dump(bytes);
    std::erase_if(dump.processes, [](const auto& p) {
      return icontains(p.image_name, "hxdef");
    });
    std::erase_if(dump.threads, [&dump](const kernel::Thread& t) {
      return std::ranges::none_of(dump.processes, [&](const auto& p) {
        return p.pid == t.owner_pid;
      });
    });
    bytes = kernel::serialize_dump(dump);
  });

  core::ScanConfig cfg;
  cfg.resources = core::ResourceMask::kProcesses;
  cfg.parallelism = 1;
  const auto report =
      ScanEngine(m, cfg).run({.kind = ScanKind::kOutside}).value();
  // The scrubbed dump hides the rootkit even from the outside scan —
  // the motivation for DMA-based acquisition (Copilot / Backdoors).
  const auto* procs = report.diff_for(ResourceType::kProcess);
  ASSERT_NE(procs, nullptr);
  EXPECT_EQ(hidden_named(*procs, "hxdef"), 0u) << report.to_string();
}

TEST(OutsideBox, VmHostScanHasZeroFalsePositives) {
  // Section 5's VM demonstration: power the VM down and scan the virtual
  // disk from the host; both views see exactly the same image, so the
  // diff contains the hidden files and nothing else.
  machine::Machine vm(small_config());
  malware::install_ghostware<malware::HackerDefender>(vm);
  ScanEngine engine(vm, files_and_registry());
  const auto cap = engine.capture_inside_high();
  // "Power down" without the shutdown-window service writes (the VM is
  // halted by the host, not shut down from inside).
  vm.bluescreen();
  const auto report = engine.outside_diff(cap);
  const auto* files = report.diff_for(ResourceType::kFile);
  ASSERT_NE(files, nullptr);
  for (const auto& f : files->hidden) {
    EXPECT_TRUE(icontains(f.resource.key, "hxdef") ||
                icontains(f.resource.key, "rcmd"))
        << f.resource.display;
  }
  EXPECT_EQ(files->hidden.size(), 4u);
}

// --- hostile evidence: the clean-boot mount --------------------------------
// Ghostware controls the bytes on the disk, so each probe writes a few
// of them straight to the raw device and the clean-boot view must end
// in kCorrupt naming what it rejected: never a crash, a phantom file or
// an unbounded walk.

machine::MachineConfig probe_config() {
  machine::MachineConfig cfg = small_config();
  cfg.disk_sectors = 64 * 1024;  // 32 MiB
  cfg.mft_records = 4096;
  return cfg;
}

/// Creates C:\probe\f.txt; returns \probe's record number.
std::uint64_t make_probe(machine::Machine& m) {
  m.volume().create_directories("\\probe");
  m.volume().write_file("\\probe\\f.txt", "payload");
  return m.volume().stat("\\probe")->record;
}

/// Rewrites f.txt's entry in \probe's resident index on the raw disk,
/// in place: the entry now names `record`, under the five-byte `name`.
void forge_probe_entry(machine::Machine& m, std::uint64_t record,
                       std::string_view name) {
  ASSERT_EQ(name.size(), 5u);
  const auto boot = ntfs::read_boot_sector(m.disk()).value();
  const std::uint64_t lba =
      boot.record_lba(m.volume().stat("\\probe")->record);
  std::vector<std::byte> image(ntfs::kMftRecordSize);
  m.disk().read(lba, image);
  ByteWriter entry;  // as encode_index_entries lays it out
  entry.u64(m.volume().stat("\\probe\\f.txt")->record);
  entry.u16(5);
  entry.str("f.txt");
  const auto at = std::search(image.begin(), image.end(),
                              entry.view().begin(), entry.view().end());
  ASSERT_NE(at, image.end());
  ByteWriter forged;
  forged.u64(record);
  forged.u16(5);
  forged.str(name);
  std::copy(forged.view().begin(), forged.view().end(), at);
  m.disk().write(lba, image);
}

/// The outside file view of `dev` through a fresh clean-boot mount.
support::StatusOr<core::ScanResult> clean_file_scan(disk::SectorDevice& dev) {
  const auto mount = ntfs::CleanBootMount::open(dev);
  if (!mount.ok()) return mount.status();
  return core::outside_file_scan(*mount);
}

void expect_corrupt_naming(const support::StatusOr<core::ScanResult>& scan,
                           const std::string& what) {
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), support::StatusCode::kCorrupt);
  EXPECT_NE(scan.status().message().find(what), std::string::npos)
      << scan.status().to_string();
}

TEST(OutsideBoxMount, IndexEntryPastTheMftIsCorrupt) {
  machine::Machine m(probe_config());
  make_probe(m);
  forge_probe_entry(m, std::uint64_t{1} << 40, "f.txt");
  expect_corrupt_naming(clean_file_scan(m.disk()), "1099511627776");
}

TEST(OutsideBoxMount, IndexEntryNamingAFreeSlotIsCorrupt) {
  machine::Machine m(probe_config());
  make_probe(m);
  const auto boot = ntfs::read_boot_sector(m.disk()).value();
  std::vector<std::byte> slot(ntfs::kMftRecordSize);
  m.disk().read(boot.record_lba(4000), slot);
  ASSERT_FALSE(ntfs::MftRecord::looks_live(slot));  // never used
  forge_probe_entry(m, 4000, "f.txt");
  expect_corrupt_naming(clean_file_scan(m.disk()), "record 4000");
}

TEST(OutsideBoxMount, DirectoryListingItselfIsCorrupt) {
  machine::Machine m(probe_config());
  const std::uint64_t probe = make_probe(m);
  forge_probe_entry(m, probe, "probe");
  expect_corrupt_naming(clean_file_scan(m.disk()),
                        "directory record " + std::to_string(probe));
}

TEST(OutsideBoxMount, HugeBootSectorRecordCountIsCorrupt) {
  machine::Machine m(probe_config());
  std::vector<std::byte> sector(disk::kSectorSize);
  m.disk().read(0, sector);
  std::fill_n(sector.begin() + ntfs::BootSectorLayout::kMftRecordCount, 4,
              std::byte{0xFF});
  m.disk().write(0, sector);
  expect_corrupt_naming(clean_file_scan(m.disk()),
                        "4294967295 records");
}

TEST(OutsideBoxMount, EngineRunDegradesOnlyTheFileDiff) {
  machine::Machine m(probe_config());
  make_probe(m);
  forge_probe_entry(m, std::uint64_t{1} << 40, "f.txt");
  core::ScanConfig cfg;
  cfg.parallelism = 1;
  ScanEngine engine(m, cfg);
  const auto report = engine.run({.kind = ScanKind::kOutside});
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  for (const auto& d : report->diffs) {
    if (d.type != ResourceType::kFile) {
      EXPECT_FALSE(d.degraded()) << d.status.to_string();
      continue;
    }
    ASSERT_TRUE(d.degraded());
    EXPECT_EQ(d.status.code(), support::StatusCode::kCorrupt);
    EXPECT_NE(d.status.message().find("1099511627776"), std::string::npos)
        << d.status.to_string();
  }
  ASSERT_NE(report->diff_for(ResourceType::kFile), nullptr);
}

TEST(OutsideBoxMount, GarbageInAnUnreachedSlotIsNotRead) {
  // A slot no index entry names, made to look live but not parse: the
  // clean OS never reads it, so it cannot blind the outside file diff.
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  const auto boot = ntfs::read_boot_sector(m.disk()).value();
  std::vector<std::byte> slot(ntfs::kMftRecordSize);
  const std::uint64_t lba = boot.record_lba(boot.mft_record_count - 1);
  m.disk().read(lba, slot);
  ASSERT_FALSE(ntfs::MftRecord::looks_live(slot));
  ByteWriter header;  // magic, sequence, flags, record number, used
  header.u32(ntfs::kFileRecordMagic);
  header.u16(1);
  header.u16(ntfs::kRecordInUse);
  header.u64(boot.mft_record_count - 1);
  header.u32(0xFFFFFFFF);
  std::copy(header.view().begin(), header.view().end(), slot.begin());
  m.disk().write(lba, slot);
  ASSERT_TRUE(ntfs::MftRecord::looks_live(slot));
  EXPECT_THROW((void)ntfs::MftRecord::parse(slot), ParseError);

  ScanEngine engine(m, files_and_registry());
  const auto report = engine.run({.kind = ScanKind::kOutside}).value();
  const auto* files = report.diff_for(ResourceType::kFile);
  ASSERT_NE(files, nullptr);
  EXPECT_FALSE(files->degraded()) << files->status.to_string();
  for (const char* path : {"C:\\hxdef100.exe", "C:\\hxdefdrv.sys",
                           "C:\\hxdef100.ini", "C:\\rcmd.exe"}) {
    EXPECT_TRUE(std::ranges::any_of(files->hidden, [&](const auto& f) {
      return f.resource.key == core::file_key(path);
    })) << path << "\n" << report.to_string();
  }
}

TEST(OutsideBoxMount, FileAndHiveViewsReadFewerSectorsThanTheMftHasSlots) {
  // The clean OS reads the boot sector, the root, and what its listings
  // and hive lookups reach: not every MFT slot.
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  m.shutdown();
  const auto boot = ntfs::read_boot_sector(m.disk()).value();
  disk::CountingDevice counted(m.disk());
  const auto mount = ntfs::CleanBootMount::open(counted);
  ASSERT_TRUE(mount.ok()) << mount.status().to_string();
  const auto files = core::outside_file_scan(*mount);
  const auto aseps = core::outside_registry_scan(*mount);
  ASSERT_TRUE(files.ok()) << files.status().to_string();
  ASSERT_TRUE(aseps.ok()) << aseps.status().to_string();
  EXPECT_TRUE(files->contains(core::file_key("C:\\hxdef100.exe")));
  EXPECT_FALSE(aseps->resources.empty());
  EXPECT_LT(counted.stats().sectors_read, boot.mft_record_count)
      << "MFT slots: " << boot.mft_record_count;
}

TEST(OutsideBoxMount, OutsideRunLeavesEveryDiskByteUnchanged) {
  // The evidence disk is examined, never altered: the outside run's four
  // views (files, hives, dump threads and carve, dump modules) and the
  // clean-boot mount under the first two write no byte of it.
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  const auto image = m.disk().image();
  const std::vector<std::byte> before(image.begin(), image.end());
  core::ScanConfig cfg;
  cfg.parallelism = 2;
  ScanEngine engine(m, cfg);
  const auto report = engine.run({.kind = ScanKind::kOutside});
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  ASSERT_EQ(report->diffs.size(), 4u);
  for (const auto& d : report->diffs) {
    EXPECT_FALSE(d.degraded()) << d.status.to_string();
  }
  const auto after = m.disk().image();
  EXPECT_TRUE(std::equal(before.begin(), before.end(), after.begin(),
                         after.end()));
}

}  // namespace
}  // namespace gb
