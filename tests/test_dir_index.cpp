// On-disk directory indexes and index-unlink hiding (the file-system
// DKOM analogue).
#include <gtest/gtest.h>

#include "core/file_scans.h"
#include "core/scan_engine.h"
#include "core/removal.h"
#include "malware/indexghost.h"
#include "ntfs/dir_index.h"
#include "ntfs/mft_scanner.h"
#include "ntfs/snapshot.h"
#include "support/strings.h"
#include "support/thread_pool.h"

namespace gb {
namespace {

machine::MachineConfig small_config() {
  machine::MachineConfig cfg;
  cfg.synthetic_files = 15;
  cfg.synthetic_registry_keys = 8;
  return cfg;
}

/// The chkdsk-style orphan check over a fresh MFT image of `dev`.
std::vector<ntfs::RawFile> index_orphans(disk::SectorDevice& dev,
                                         support::ThreadPool* pool = nullptr,
                                         std::uint32_t batch = 0) {
  const auto image = ntfs::MftSnapshot::capture(dev, pool, batch).value();
  return image.index_orphans();
}

TEST(DirIndexCodec, RoundTrip) {
  const std::vector<ntfs::IndexEntry> entries = {
      {20, "alpha.txt"}, {21, "Beta Dir"}, {9999, "name with space "}};
  const auto blob = ntfs::encode_index_entries(entries);
  EXPECT_EQ(ntfs::decode_index_entries(blob), entries);
  EXPECT_TRUE(ntfs::decode_index_entries(ntfs::encode_index_entries({}))
                  .empty());
}

TEST(DirIndexCodec, TruncatedBlobThrows) {
  auto blob = ntfs::encode_index_entries({{5, "x.txt"}});
  blob.resize(blob.size() - 2);
  EXPECT_THROW(ntfs::decode_index_entries(blob), ParseError);
}

TEST(DirIndex, IndexesPersistAcrossRemount) {
  disk::MemDisk disk(16 * 1024);
  ntfs::NtfsVolume::format(disk, 512);
  {
    ntfs::NtfsVolume vol(disk);
    vol.create_directories("\\windows\\system32");
    vol.write_file("\\windows\\system32\\a.dll", "x");
    vol.write_file("\\windows\\system32\\b.dll", "y");
  }
  ntfs::NtfsVolume fresh(disk);  // children must come from on-disk indexes
  EXPECT_EQ(fresh.list_directory("\\windows\\system32").size(), 2u);
  EXPECT_TRUE(fresh.exists("\\windows\\system32\\B.DLL"));
}

TEST(DirIndex, LargeDirectorySpillsIndexAndSurvives) {
  disk::MemDisk disk(32 * 1024);
  ntfs::NtfsVolume::format(disk, 2048);
  {
    ntfs::NtfsVolume vol(disk);
    vol.create_directories("\\big");
    for (int i = 0; i < 300; ++i) {
      vol.write_file("\\big\\file-" + std::to_string(i) + ".bin", "z");
    }
  }
  ntfs::NtfsVolume fresh(disk);
  EXPECT_EQ(fresh.list_directory("\\big").size(), 300u);
}

TEST(DirIndex, UnlinkHidesFromEnumerationAndResolution) {
  machine::Machine m(small_config());
  m.volume().write_file("C:\\windows\\loot.bin", "stolen data");
  const auto rec = m.volume().index_unlink("C:\\windows\\loot.bin");
  EXPECT_GE(rec, ntfs::kFirstUserRecord);

  EXPECT_FALSE(m.volume().exists("C:\\windows\\loot.bin"));
  for (const auto& e : m.volume().list_directory("C:\\windows")) {
    EXPECT_FALSE(iequals(e.name, "loot.bin"));
  }
  // The raw MFT scan still sees it (FILE_NAME parent refs).
  ntfs::MftScanner scanner(m.disk());
  bool raw_sees = false;
  for (const auto& f : scanner.scan()) {
    if (iequals(f.path, "windows\\loot.bin")) raw_sees = true;
  }
  EXPECT_TRUE(raw_sees);
  // And flags it as an index orphan (chkdsk-style inconsistency).
  const auto orphans = index_orphans(m.disk());
  ASSERT_EQ(orphans.size(), 1u);
  EXPECT_TRUE(iequals(orphans[0].path, "windows\\loot.bin"));
}

TEST(DirIndex, RelinkRestoresVisibility) {
  machine::Machine m(small_config());
  m.volume().write_file("C:\\windows\\loot.bin", "x");
  const auto rec = m.volume().index_unlink("C:\\windows\\loot.bin");
  ASSERT_TRUE(m.volume().index_relink(rec));
  EXPECT_TRUE(m.volume().exists("C:\\windows\\loot.bin"));
  EXPECT_FALSE(m.volume().index_relink(rec));  // already linked
  EXPECT_TRUE(index_orphans(m.disk()).empty());
}

TEST(DirIndex, ParallelOrphanIndexingMatchesSerial) {
  // Several unlinked files plus an untouched population: the pooled,
  // batched index_orphans must return byte-identical results to the
  // serial walk at any worker count and batch granularity.
  machine::Machine m(small_config());
  for (const char* path : {"C:\\windows\\loot1.bin", "C:\\windows\\loot2.bin",
                           "C:\\windows\\system32\\loot3.bin"}) {
    m.volume().write_file(path, "x");
    m.volume().index_unlink(path);
  }
  const auto serial = index_orphans(m.disk());
  ASSERT_EQ(serial.size(), 3u);
  for (const std::size_t workers : {1u, 2u, 8u}) {
    support::ThreadPool pool(workers);
    for (const std::uint32_t batch : {0u, 4u, 7u, 512u}) {
      const auto parallel = index_orphans(m.disk(), &pool, batch);
      ASSERT_EQ(parallel.size(), serial.size())
          << "workers=" << workers << " batch=" << batch;
      for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i].path, serial[i].path);
        EXPECT_EQ(parallel[i].record, serial[i].record);
      }
    }
  }
}

TEST(DirIndex, CleanMachineHasNoOrphans) {
  machine::Machine m(small_config());
  EXPECT_TRUE(index_orphans(m.disk()).empty());
}

TEST(IndexGhostTest, CaughtByInsideCrossViewDiff) {
  // No hook anywhere, yet the inside diff catches it: the high-level
  // walk cannot enumerate the file, the raw MFT scan can.
  machine::Machine m(small_config());
  const auto ghost = malware::install_ghostware<malware::IndexGhost>(m);
  core::ScanConfig o;
  o.resources = core::ResourceMask::kFiles;
  o.parallelism = 1;
  const auto report =
      core::ScanEngine(m, o).run({.kind = core::ScanKind::kInside}).value();
  ASSERT_TRUE(report.infection_detected());
  EXPECT_EQ(report.all_hidden()[0].resource.key,
            core::file_key(ghost->payload_path()));
  // The presence matrix names the lying layer: the doctored on-disk
  // index missed the file right alongside the API walk; only the raw
  // MFT sweep saw it.
  EXPECT_EQ(report.all_hidden()[0].found_in,
            (std::vector<std::string>{"mft"}));
  EXPECT_EQ(report.all_hidden()[0].missing_from,
            (std::vector<std::string>{"api", "index"}));
  // Mechanism detection sees nothing — data-only hiding.
  EXPECT_TRUE(m.win32().env(m.find_pid("explorer.exe"))->all_hooks().empty());
}

TEST(IndexGhostTest, SurvivesRebootUnlikeHookBasedHiding) {
  machine::Machine m(small_config());
  malware::install_ghostware<malware::IndexGhost>(m);
  m.reboot();
  // Still hidden after reboot with no code running at all.
  EXPECT_FALSE(m.volume().exists("C:\\windows\\system32\\ighost.dat"));
  core::ScanConfig o;
  o.resources = core::ResourceMask::kFiles;
  o.parallelism = 1;
  core::ScanEngine engine(m, o);
  EXPECT_TRUE(engine.run({.kind = core::ScanKind::kInside})
                  .value()
                  .infection_detected());
}

TEST(IndexGhostTest, DefeatsEnumerationBasedOutsideScanButNotRawScan) {
  // The subtle trust lesson: a WinPE scan that *enumerates* the clean
  // mount inherits the doctored index, so the outside diff is silent.
  // The raw MFT walk over the same powered-off disk is not fooled.
  machine::Machine m(small_config());
  const auto ghost = malware::install_ghostware<malware::IndexGhost>(m);
  core::ScanConfig o;
  o.resources = core::ResourceMask::kFiles;
  o.parallelism = 1;
  const auto outside = core::ScanEngine(m, o)
                           .run({.kind = core::ScanKind::kOutside})
                           .value();  // enumeration-based
  // Only the usual shutdown-window service FPs appear; the payload is
  // missing from the enumerated clean view too.
  for (const auto& f : outside.all_hidden()) {
    EXPECT_NE(f.resource.key, core::file_key(ghost->payload_path()))
        << outside.to_string();
  }

  ntfs::MftScanner scanner(m.disk());  // raw walk of the same dead disk
  bool raw_sees = false;
  for (const auto& f : scanner.scan()) {
    if (core::file_key("C:\\" + f.path) ==
        core::file_key(ghost->payload_path())) {
      raw_sees = true;
    }
  }
  EXPECT_TRUE(raw_sees);
  EXPECT_EQ(index_orphans(m.disk()).size(), 1u);
}

TEST(IndexGhostTest, RemovalWorkflowRelinksAndDeletes) {
  // The removal workflow cannot delete a file whose path does not
  // resolve; it locates the orphan in the raw MFT, re-links it, then
  // deletes. The machine ends up genuinely clean.
  machine::Machine m(small_config());
  const auto ghost = malware::install_ghostware<malware::IndexGhost>(m);
  core::ScanConfig o;
  o.resources = core::ResourceMask::kFiles;
  o.parallelism = 1;
  const auto report =
      core::ScanEngine(m, o).run({.kind = core::ScanKind::kInside}).value();
  ASSERT_TRUE(report.infection_detected());
  const auto outcome = core::remove_ghostware(m, report, o);
  EXPECT_EQ(outcome.files_deleted, 1u);
  EXPECT_TRUE(outcome.clean()) << outcome.verification.to_string();
  ntfs::MftScanner scanner(m.disk());
  EXPECT_TRUE(index_orphans(m.disk()).empty());
  EXPECT_FALSE(scanner.find(ghost->payload_path()).has_value());
}

TEST(IndexGhostTest, RestoreMakesFileVisibleAgain) {
  machine::Machine m(small_config());
  auto ghost = malware::install_ghostware<malware::IndexGhost>(m);
  EXPECT_TRUE(ghost->restore(m));
  EXPECT_TRUE(m.volume().exists(ghost->payload_path()));
  core::ScanConfig o;
  o.resources = core::ResourceMask::kFiles;
  o.parallelism = 1;
  core::ScanEngine engine(m, o);
  EXPECT_FALSE(engine.run({.kind = core::ScanKind::kInside})
                   .value()
                   .infection_detected());
}

}  // namespace
}  // namespace gb
