// ScanSession: the incremental re-scan contract. The headline property
// is byte-identity — a session rescan's report (normalized for wall
// fields and the "incremental" provenance block) must equal a cold
// full-scan report at every worker count and every churn rate, including
// the fallback paths (journal wrap, journal reset, stale cursor, digest
// mismatch under verify_spliced). Plus the operational surface: store
// save/restore, scheduler-submitted session jobs, and the report differ
// the fleet uses on the emitted JSON.
#include "core/scan_session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <cstdio>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/report_diff.h"
#include "core/scan_engine.h"
#include "core/scan_scheduler.h"
#include "hive/hive.h"
#include "machine/machine.h"
#include "malware/hackerdefender.h"
#include "ntfs/dir_index.h"
#include "ntfs/mft_scanner.h"
#include "ntfs/ntfs_format.h"
#include "ntfs/snapshot.h"
#include "obs/trace.h"
#include "support/bytes.h"
#include "support/checksum.h"

namespace gb {
namespace {

/// Zeroes wall-clock fields and blanks the "incremental" provenance
/// block — the only bytes allowed to differ between a session rescan and
/// a cold scan of the same machine state.
std::string normalize(const std::string& j) {
  return core::normalize_report_json(j, /*drop_incremental=*/true);
}

machine::MachineConfig small_config() {
  machine::MachineConfig mc;
  mc.disk_sectors = 64 * 1024;  // 32 MiB
  mc.mft_records = 4096;
  mc.synthetic_files = 60;
  mc.synthetic_registry_keys = 30;
  return mc;
}

/// A cold full scan through the one non-deprecated entry point.
core::Report cold_scan(machine::Machine& m, std::size_t workers) {
  core::ScanConfig cfg;
  cfg.parallelism = workers;
  core::JobSpec job;
  job.kind = core::ScanKind::kInside;
  return std::move(core::ScanEngine(m, cfg).run(std::move(job))).value();
}

/// Deterministic mixed churn: creates, overwrites, delete cycles and
/// renames, `ops` operations total.
void apply_churn(machine::Machine& m, int ops) {
  auto& vol = m.volume();
  if (ops > 0) vol.create_directories("\\churn");
  for (int i = 0; i < ops; ++i) {
    const std::string base = "\\churn\\f" + std::to_string(i);
    switch (i % 4) {
      case 0: vol.write_file(base + ".txt", "payload " + std::to_string(i));
        break;
      case 1:
        vol.write_file(base + ".dat", "data");
        vol.write_file(base + ".dat", "data, second write");
        break;
      case 2:
        vol.write_file(base + ".tmp", "transient");
        vol.remove(base + ".tmp");
        break;
      case 3:
        vol.write_file(base + ".old", "renamed payload");
        vol.rename(base + ".old", base + ".new");
        break;
    }
  }
}

// --- the byte-identity matrix ----------------------------------------------

TEST(ScanSessionDeterminism, RescanMatchesColdScanAcrossWorkersAndChurn) {
  for (const int ops : {0, 6, 120}) {
    std::string reference;  // the workers=1 rescan bytes for this churn
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      machine::Machine m(small_config());
      malware::install_ghostware<malware::HackerDefender>(m);
      core::ScanConfig cfg;
      cfg.parallelism = workers;
      core::ScanEngine engine(m, cfg);
      core::ScanSession session = engine.open_session();
      (void)session.rescan();  // prime the snapshot store
      apply_churn(m, ops);

      const std::string cold = normalize(cold_scan(m, workers).to_json());
      const std::string inc = normalize(session.rescan().to_json());
      EXPECT_EQ(inc, cold) << "churn=" << ops << " workers=" << workers;
      EXPECT_TRUE(session.last_sync().incremental)
          << session.last_sync().fallback_reason;
      EXPECT_GT(session.last_sync().records_spliced, 0u);

      if (reference.empty()) reference = inc;
      EXPECT_EQ(inc, reference)
          << "rescan bytes vary with worker count at churn=" << ops;
    }
  }
}

TEST(ScanSessionDeterminism, ZeroChurnRescanSplicesAlmostEverything) {
  machine::Machine m(small_config());
  core::ScanConfig cfg;
  cfg.parallelism = 1;
  core::ScanEngine engine(m, cfg);
  core::ScanSession session = engine.open_session();

  (void)session.rescan();
  EXPECT_FALSE(session.last_sync().incremental);
  EXPECT_EQ(session.last_sync().fallback_reason, "cold start");
  EXPECT_EQ(session.last_sync().records_reparsed, 4096u);

  (void)session.rescan();
  EXPECT_TRUE(session.last_sync().incremental);
  // The engine's own hive flush is the only journal traffic, so the
  // refresh touches a handful of records and splices the rest.
  EXPECT_LT(session.last_sync().records_reparsed, 16u);
  EXPECT_GT(session.last_sync().records_spliced, 4000u);
}

// --- fallback paths --------------------------------------------------------

TEST(ScanSession, JournalWrapFallsBackToFullWalkThenRecovers) {
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  core::ScanConfig cfg;
  cfg.parallelism = 2;
  core::ScanEngine engine(m, cfg);
  core::ScanSession session = engine.open_session();
  (void)session.rescan();

  m.volume().journal().set_capacity(4);
  apply_churn(m, 24);  // far more journal records than the ring holds

  const std::string cold = normalize(cold_scan(m, 2).to_json());
  const std::string inc = normalize(session.rescan().to_json());
  EXPECT_EQ(inc, cold);
  EXPECT_FALSE(session.last_sync().incremental);
  EXPECT_EQ(session.last_sync().fallback_reason, "journal wrapped");
  EXPECT_EQ(session.last_sync().records_reparsed, 4096u);

  // The fallback resynced the cursor: the next quiet rescan is
  // incremental again.
  (void)session.rescan();
  EXPECT_TRUE(session.last_sync().incremental);
}

TEST(ScanSession, JournalResetAndStaleCursorForceFullWalks) {
  machine::Machine m(small_config());
  core::ScanConfig cfg;
  cfg.parallelism = 1;
  core::ScanEngine engine(m, cfg);
  core::ScanSession session = engine.open_session();
  (void)session.rescan();

  // New incarnation id: the cursor belongs to a dead journal.
  const std::uint64_t id = m.volume().journal().journal_id();
  m.volume().journal().reset(id + 1);
  (void)session.rescan();
  EXPECT_FALSE(session.last_sync().incremental);
  EXPECT_EQ(session.last_sync().fallback_reason, "journal reset");

  // Same id but USNs restarted (what a remount does): the cursor is
  // ahead of the counter.
  (void)session.rescan();  // resync under the new id
  m.volume().journal().reset(id + 1);
  (void)session.rescan();
  EXPECT_FALSE(session.last_sync().incremental);
  EXPECT_EQ(session.last_sync().fallback_reason, "stale journal cursor");
}

TEST(ScanSession, VerifySplicedCatchesOutOfBandDeviceWrites) {
  machine::Machine m(small_config());
  core::ScanConfig cfg;
  cfg.parallelism = 1;
  // The payload is small enough to live resident in the MFT record, so
  // tampering with it below is an MFT-byte change the journal never saw.
  const std::string marker = "TAMPER-SENTINEL-3141592653589793";
  m.volume().write_file("\\victim.txt", marker);

  core::ScanEngine engine(m, cfg);
  core::SessionSpec spec;
  spec.verify_spliced = true;
  core::ScanSession paranoid = engine.open_session(spec);
  (void)paranoid.rescan();

  core::ScanEngine engine2(m, cfg);
  core::ScanSession trusting = engine2.open_session();
  (void)trusting.rescan();

  // Flip one payload byte straight on the device, behind the driver's
  // (and therefore the journal's) back.
  const auto image = m.disk().image();
  const std::byte* found = std::search(
      image.data(), image.data() + image.size(),
      reinterpret_cast<const std::byte*>(marker.data()),
      reinterpret_cast<const std::byte*>(marker.data() + marker.size()));
  ASSERT_NE(found, image.data() + image.size());
  const std::size_t offset = static_cast<std::size_t>(found - image.data());
  std::vector<std::byte> sector(disk::kSectorSize);
  m.disk().read(offset / disk::kSectorSize, sector);
  sector[offset % disk::kSectorSize] ^= std::byte{0xff};
  m.disk().write(offset / disk::kSectorSize, sector);

  (void)paranoid.rescan();
  EXPECT_FALSE(paranoid.last_sync().incremental);
  EXPECT_EQ(paranoid.last_sync().fallback_reason, "digest mismatch");

  // The default session trades that detection away for splice speed —
  // the documented verify_spliced trade-off.
  (void)trusting.rescan();
  EXPECT_TRUE(trusting.last_sync().incremental);
}

// --- the scenario the feature exists for -----------------------------------

TEST(ScanSession, MalwareInstalledBetweenScansIsCaughtIncrementally) {
  machine::Machine m(small_config());
  core::ScanConfig cfg;
  cfg.parallelism = 2;
  core::ScanEngine engine(m, cfg);
  core::ScanSession session = engine.open_session();

  const core::Report clean = session.rescan();
  EXPECT_FALSE(clean.infection_detected());

  malware::install_ghostware<malware::HackerDefender>(m);

  const core::Report infected = session.rescan();
  // The install went through the journaled write paths, so the session
  // did NOT need a full walk to see it.
  EXPECT_TRUE(session.last_sync().incremental)
      << session.last_sync().fallback_reason;
  EXPECT_TRUE(infected.infection_detected());
  EXPECT_GT(infected.hidden_count(core::ResourceType::kFile), 0u);
  EXPECT_EQ(normalize(infected.to_json()),
            normalize(cold_scan(m, 2).to_json()));
}

// --- the one MFT image ------------------------------------------------------

/// Spans named `name` the default tracer has recorded.
std::size_t spans_named(std::string_view name) {
  std::size_t n = 0;
  for (const auto& e : obs::default_tracer().snapshot()) {
    if (e.name == name) ++n;
  }
  return n;
}

TEST(ScanSessionImage, EachScanWalksTheMftOnceAndAQuietRescanNever) {
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  core::ScanConfig cfg;
  cfg.parallelism = 2;
  core::ScanEngine engine(m, cfg);
  obs::Tracer& tracer = obs::default_tracer();
  tracer.enable();
  for (const auto kind : {core::ScanKind::kInside, core::ScanKind::kInjected}) {
    tracer.clear();
    ASSERT_TRUE(engine.run({.kind = kind}).ok());
    EXPECT_EQ(spans_named("mft.scan"), 1u) << core::scan_kind_name(kind);
    EXPECT_EQ(spans_named("mft.index_batch"), 0u);
    EXPECT_EQ(spans_named("mft.orphan_check"), 0u);
  }

  // Without the engine's hive flush nothing reaches the journal between
  // rescans, so the refresh has nothing to read.
  cfg.registry.flush_hives_first = false;
  core::ScanEngine quiet(m, cfg);
  core::ScanSession session = quiet.open_session();
  (void)session.rescan();
  tracer.clear();
  (void)session.rescan();
  EXPECT_TRUE(session.last_sync().incremental);
  EXPECT_EQ(session.last_sync().journal_records, 0u);
  EXPECT_EQ(spans_named("mft.scan"), 0u);
  tracer.disable();
  tracer.clear();
}

/// \\probe with 60 files f000.dat..f059.dat: enough entries that the
/// directory's index blob lives outside its record.
void make_probe_directory(machine::Machine& m) {
  auto& vol = m.volume();
  vol.create_directories("\\probe");
  char name[32];
  for (int i = 0; i < 60; ++i) {
    std::snprintf(name, sizeof name, "\\probe\\f%03d.dat", i);
    vol.write_file(name, "x");
  }
}

TEST(ScanSession, DirtyDirectoryRereadsItsIndexWhenItsRecordIsUnchanged) {
  machine::Machine m(small_config());
  auto& vol = m.volume();
  make_probe_directory(m);
  core::ScanConfig cfg;
  cfg.parallelism = 1;
  core::ScanEngine engine(m, cfg);
  core::ScanSession session = engine.open_session();
  (void)session.rescan();

  const auto boot = ntfs::read_boot_sector(m.disk()).value();
  const auto dir = ntfs::MftScanner(m.disk()).find("C:\\probe");
  ASSERT_TRUE(dir.has_value());
  const auto dir_record = [&] {
    std::vector<std::byte> image(ntfs::kMftRecordSize);
    m.disk().read(boot.record_lba(*dir), image);
    return image;
  };
  const std::vector<std::byte> before = dir_record();
  // persist_index frees the directory's index blob and re-allocates it
  // first-fit: after one create and one remove the blob lands where it
  // was, at its old size, so the directory record is byte-identical
  // while the entries the blob lists changed.
  vol.write_file("\\probe\\g007.dat", "x");
  vol.remove("\\probe\\f007.dat");
  ASSERT_EQ(dir_record(), before);

  const std::string inc = normalize(session.rescan().to_json());
  EXPECT_TRUE(session.last_sync().incremental);
  EXPECT_EQ(inc, normalize(cold_scan(m, 1).to_json()));
}

TEST(ScanSession, VerifySplicedCatchesOutOfBandIndexBlobWrites) {
  machine::Machine m(small_config());
  make_probe_directory(m);
  core::ScanConfig cfg;
  cfg.parallelism = 1;
  core::ScanEngine engine(m, cfg);
  core::SessionSpec spec;
  spec.verify_spliced = true;
  core::ScanSession paranoid = engine.open_session(spec);
  (void)paranoid.rescan();
  core::ScanEngine engine2(m, cfg);
  core::ScanSession trusting = engine2.open_session();
  (void)trusting.rescan();
  const std::string untampered = normalize(cold_scan(m, 1).to_json());

  // Drop f007.dat from the directory's index blob straight on the
  // device: the directory record is untouched and nothing is journaled,
  // so only the blob says the file left the index.
  const auto boot = ntfs::read_boot_sector(m.disk()).value();
  const auto dir = ntfs::MftScanner(m.disk()).find("C:\\probe");
  ASSERT_TRUE(dir.has_value());
  std::vector<std::byte> record(ntfs::kMftRecordSize);
  m.disk().read(boot.record_lba(*dir), record);
  const ntfs::MftRecord rec = ntfs::MftRecord::parse(record);
  ASSERT_TRUE(rec.index.has_value());
  ASSERT_FALSE(rec.index->resident);
  auto entries = ntfs::decode_index_entries(
      ntfs::read_attr_payload(m.disk(), *rec.index));
  const auto gone = std::ranges::find(entries, std::string("f007.dat"),
                                      &ntfs::IndexEntry::name);
  ASSERT_NE(gone, entries.end());
  entries.erase(gone);
  std::vector<std::byte> blob = ntfs::encode_index_entries(entries);
  std::size_t at = 0;
  for (const ntfs::Run& run : rec.index->runs) {
    for (std::uint64_t c = run.lcn; c < run.lcn + run.length; ++c) {
      std::vector<std::byte> cluster(ntfs::kClusterSize);
      m.disk().read(c * ntfs::kSectorsPerCluster, cluster);
      for (std::size_t i = 0; i < cluster.size() && at < blob.size(); ++i) {
        cluster[i] = blob[at++];
      }
      m.disk().write(c * ntfs::kSectorsPerCluster, cluster);
    }
  }
  ASSERT_EQ(at, blob.size());

  const std::string cold = normalize(cold_scan(m, 1).to_json());
  ASSERT_NE(cold, untampered);  // a cold scan reports the unlinked file
  const std::string rescan = normalize(paranoid.rescan().to_json());
  EXPECT_FALSE(paranoid.last_sync().incremental);
  EXPECT_EQ(paranoid.last_sync().fallback_reason, "digest mismatch");
  EXPECT_EQ(rescan, cold);

  // The default session trusts index blobs as it trusts records: the
  // same verify_spliced trade-off as for record bytes.
  (void)trusting.rescan();
  EXPECT_TRUE(trusting.last_sync().incremental);
}

TEST(ScanSession, CorruptBootSectorDegradesARescanLikeAColdScan) {
  machine::Machine m(small_config());
  core::ScanConfig cfg;
  cfg.parallelism = 2;
  core::ScanEngine engine(m, cfg);
  core::ScanSession session = engine.open_session();
  (void)session.rescan();

  // Behind the journal's back: no record write, just the OEM id.
  std::vector<std::byte> sector(disk::kSectorSize);
  m.disk().read(0, sector);
  sector[ntfs::BootSectorLayout::kOemOffset] = std::byte{'X'};
  m.disk().write(0, sector);

  const core::Report rescan = session.rescan();
  const core::Report cold = cold_scan(m, 2);
  EXPECT_TRUE(cold.degraded());
  EXPECT_FALSE(session.last_sync().incremental);
  EXPECT_EQ(normalize(rescan.to_json()), normalize(cold.to_json()));
}

// --- persistence -----------------------------------------------------------

TEST(ScanSession, SaveRestoreResumesIncrementallyAcrossSessions) {
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  core::ScanConfig cfg;
  cfg.parallelism = 1;
  const std::string path = ::testing::TempDir() + "/gb_snapshot_store.bin";

  core::ScanEngine engine(m, cfg);
  {
    core::ScanSession session = engine.open_session();
    (void)session.rescan();
    ASSERT_TRUE(session.save(path).ok());
  }

  apply_churn(m, 10);

  core::ScanSession resumed = engine.open_session();
  ASSERT_TRUE(resumed.restore(path).ok());
  const std::string inc = normalize(resumed.rescan().to_json());
  EXPECT_TRUE(resumed.last_sync().incremental)
      << resumed.last_sync().fallback_reason;
  EXPECT_EQ(inc, normalize(cold_scan(m, 1).to_json()));
}

TEST(ScanSession, RestoredCursorFromPreviousMountForcesFullWalk) {
  machine::Machine m(small_config());
  core::ScanConfig cfg;
  cfg.parallelism = 1;
  core::ScanEngine engine(m, cfg);
  const std::string path = ::testing::TempDir() + "/gb_cross_mount_store.bin";
  {
    core::ScanSession session = engine.open_session();
    (void)session.rescan();
    ASSERT_TRUE(session.save(path).ok());
  }
  const std::uint64_t saved_cursor = m.volume().journal().next_usn();

  // Power-cycle the volume, then install hidden malware among the new
  // mount's earliest journaled writes and churn until the new journal
  // counts past the saved cursor. The cursor is now numerically
  // serveable against the new incarnation — the trap: a journal id
  // reused across mounts would splice the pre-remount snapshot over the
  // malware's records and the rescan would miss the infection.
  m.remount_volume();
  malware::install_ghostware<malware::HackerDefender>(m);
  for (int round = 0; m.volume().journal().next_usn() <= saved_cursor;
       ++round) {
    m.volume().write_file("\\wash" + std::to_string(round) + ".txt", "tick");
  }
  ASSERT_GE(m.volume().journal().next_usn(), saved_cursor);

  core::ScanSession resumed = engine.open_session();
  ASSERT_TRUE(resumed.restore(path).ok());
  const core::Report report = resumed.rescan();
  EXPECT_FALSE(resumed.last_sync().incremental);
  EXPECT_EQ(resumed.last_sync().fallback_reason, "journal reset");
  EXPECT_TRUE(report.infection_detected());
  EXPECT_GT(report.hidden_count(core::ResourceType::kFile), 0u);
  EXPECT_EQ(normalize(report.to_json()), normalize(cold_scan(m, 1).to_json()));
}

std::vector<std::byte> read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  const std::vector<char> raw((std::istreambuf_iterator<char>(is)),
                              std::istreambuf_iterator<char>());
  const auto* begin = reinterpret_cast<const std::byte*>(raw.data());
  return {begin, begin + raw.size()};
}

void write_bytes(const std::string& path, std::span<const std::byte> bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

TEST(ScanSession, SavedStoreHoldsNoHiveParseAndStaysFlatUnderRegistryChurn) {
  machine::Machine m(small_config());
  const auto set_setting = [&](int i) {
    char data[32];
    std::snprintf(data, sizeof data, "value %02d", i);
    m.registry().set_value("HKLM\\SOFTWARE\\Contoso\\App",
                           hive::Value::string("setting", data));
  };
  set_setting(0);
  core::ScanConfig cfg;
  cfg.parallelism = 1;
  core::ScanEngine engine(m, cfg);
  core::ScanSession session = engine.open_session();
  const std::string path = ::testing::TempDir() + "/gb_registry_churn_store.bin";
  (void)session.rescan();
  ASSERT_TRUE(session.save(path).ok());
  const std::vector<std::byte> primed = read_bytes(path);
  const std::string_view regf = "regf";  // every hive's base-block magic
  EXPECT_EQ(std::search(primed.begin(), primed.end(), regf.begin(),
                        regf.end(),
                        [](std::byte b, char c) {
                          return b == static_cast<std::byte>(c);
                        }),
            primed.end());

  // One SOFTWARE value change before each rescan: the flush rewrites the
  // hive with new bytes every time, and nothing of it may accumulate.
  for (int i = 1; i <= 40; ++i) {
    set_setting(i);
    (void)session.rescan();
    ASSERT_TRUE(session.last_sync().incremental);
    ASSERT_TRUE(session.save(path).ok());
    EXPECT_EQ(read_bytes(path).size(), primed.size()) << "after change " << i;
  }
}

TEST(ScanSession, VerifySplicedCatchesAForgedSlotInARestoredStore) {
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  core::ScanConfig cfg;
  cfg.parallelism = 1;
  core::ScanEngine engine(m, cfg);
  const std::string path = ::testing::TempDir() + "/gb_forged_slot_store.bin";
  {
    core::ScanSession session = engine.open_session();
    (void)session.rescan();
    ASSERT_TRUE(session.save(path).ok());
  }

  // Forge rcmd.exe's saved slot into a nameless one: kind kNoName and no
  // node, but the real record's digest — a parse no device byte backs.
  const auto boot = ntfs::read_boot_sector(m.disk()).value();
  const auto record = ntfs::MftScanner(m.disk()).find("C:\\rcmd.exe");
  ASSERT_TRUE(record.has_value());
  std::vector<std::byte> image(ntfs::kMftRecordSize);
  m.disk().read(boot.record_lba(*record), image);
  ByteWriter saved;  // the slot's head as saved: record, kind, digest, name
  saved.u32(static_cast<std::uint32_t>(*record));
  saved.u8(static_cast<std::uint8_t>(ntfs::MftSlotKind::kLive));
  saved.u64(support::fnv1a(image));
  saved.u16(8);
  saved.str("rcmd.exe");
  std::vector<std::byte> store = read_bytes(path);
  const auto head = saved.view();
  const auto at =
      std::search(store.begin(), store.end(), head.begin(), head.end());
  ASSERT_NE(at, store.end());
  // Name (2 + 8), parent (8), directory flag (1), attributes (4), stream
  // count (2, no streams) and size (8); the index flag follows.
  constexpr std::ptrdiff_t kNodeBytes = 2 + 8 + 8 + 1 + 4 + 2 + 8;
  const auto node = at + 4 + 1 + 8;
  ASSERT_EQ(node[kNodeBytes], std::byte{0});
  at[4] = static_cast<std::byte>(ntfs::MftSlotKind::kNoName);
  store.erase(node, node + kNodeBytes);
  write_bytes(path, store);

  core::SessionSpec spec;
  spec.verify_spliced = true;
  core::ScanSession paranoid = engine.open_session(spec);
  ASSERT_TRUE(paranoid.restore(path).ok());
  core::ScanSession trusting = engine.open_session();
  ASSERT_TRUE(trusting.restore(path).ok());

  const core::Report cold = cold_scan(m, 1);
  ASSERT_EQ(cold.hidden_count(core::ResourceType::kFile), 4u);
  const core::Report checked = paranoid.rescan();
  EXPECT_FALSE(paranoid.last_sync().incremental);
  EXPECT_EQ(paranoid.last_sync().fallback_reason, "digest mismatch");
  EXPECT_EQ(normalize(checked.to_json()), normalize(cold.to_json()));

  // A default session trusts a restored store as it trusts the journal:
  // the forged slot hides rcmd.exe until the next full walk.
  const core::Report trusted = trusting.rescan();
  EXPECT_TRUE(trusting.last_sync().incremental);
  EXPECT_EQ(trusted.hidden_count(core::ResourceType::kFile), 3u);
}

TEST(ScanSession, RestoreRejectsHugeSlotCountWithoutCrashing) {
  // A store whose headers all validate but whose MFT slot count is a
  // 4-billion lie. restore() must classify it as corrupt — the resize it
  // implies could never be satisfied by the input — not die in bad_alloc.
  ByteWriter w;
  w.u32(0x53534247);  // store magic "GBSS"
  w.u16(2);           // store version
  w.u64(0);           // journal_id
  w.u64(0);           // cursor
  w.u8(1);            // primed
  w.u32(0x50414E53);  // snapshot magic "SNAP"
  w.u16(2);           // snapshot version
  w.u64(0);           // mft_start_cluster
  w.u32(4096);        // mft record count
  w.u32(0xffffffff);  // slot count far beyond the bytes that follow
  const std::string path = ::testing::TempDir() + "/gb_huge_count_store.bin";
  write_bytes(path, w.view());

  machine::Machine m(small_config());
  core::ScanConfig cfg;
  cfg.parallelism = 1;
  core::ScanEngine engine(m, cfg);
  core::ScanSession session = engine.open_session();
  const auto st = session.restore(path);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), support::StatusCode::kCorrupt);
}

TEST(ScanSession, RestoreRejectsStoreFromAnotherVolume) {
  machine::Machine big(small_config());
  machine::MachineConfig small_cfg = small_config();
  small_cfg.mft_records = 1024;
  machine::Machine little(small_cfg);
  core::ScanConfig cfg;
  cfg.parallelism = 1;
  const std::string path = ::testing::TempDir() + "/gb_foreign_store.bin";

  core::ScanEngine big_engine(big, cfg);
  core::ScanSession big_session = big_engine.open_session();
  (void)big_session.rescan();
  ASSERT_TRUE(big_session.save(path).ok());

  core::ScanEngine little_engine(little, cfg);
  core::ScanSession little_session = little_engine.open_session();
  const auto st = little_session.restore(path);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), support::StatusCode::kCorrupt);

  // And garbage on disk is rejected as garbage, not crashed on.
  const std::string junk = ::testing::TempDir() + "/gb_junk_store.bin";
  { std::ofstream(junk, std::ios::binary) << "not a snapshot store"; }
  EXPECT_FALSE(little_session.restore(junk).ok());
}

// --- scheduler integration -------------------------------------------------

TEST(ScanSessionScheduler, SubmittedSessionJobsReuseTheSnapshot) {
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  core::ScanConfig cfg;
  cfg.parallelism = 1;
  core::ScanEngine engine(m, cfg);
  core::ScanSession session = engine.open_session();
  (void)session.rescan();  // prime before handing the session to the fleet
  apply_churn(m, 8);

  core::ScanScheduler sched;
  core::JobSpec spec;
  spec.tenant = "fleet";
  spec.kind = core::ScanKind::kInside;
  spec.session = &session;
  auto job = sched.submit(std::move(spec));
  ASSERT_TRUE(job.ok()) << job.status().to_string();
  auto& result = job->wait();
  ASSERT_TRUE(result.ok()) << result.status().to_string();

  ASSERT_TRUE(result->incremental.has_value());
  EXPECT_TRUE(result->incremental->incremental)
      << result->incremental->fallback_reason;
  EXPECT_GT(result->incremental->records_spliced, 0u);
  EXPECT_TRUE(result->scheduler.has_value());
  EXPECT_EQ(result->scheduler->tenant, "fleet");
  EXPECT_TRUE(result->infection_detected());

  // Only the inside scan has an incremental form — and the direct run()
  // path enforces the same contract as submit().
  core::JobSpec bad;
  bad.kind = core::ScanKind::kOutside;
  bad.session = &session;
  EXPECT_FALSE(sched.submit(std::move(bad)).ok());
  core::JobSpec bad_direct;
  bad_direct.kind = core::ScanKind::kOutside;
  bad_direct.session = &session;
  const auto direct = engine.run(std::move(bad_direct));
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(),
            support::StatusCode::kFailedPrecondition);
}

TEST(ScanSessionScheduler, AtMostOneOutstandingJobPerSession) {
  machine::Machine m(small_config());
  core::ScanConfig cfg;
  cfg.parallelism = 1;
  core::ScanEngine engine(m, cfg);
  core::ScanSession session = engine.open_session();

  core::ScanScheduler::Options opts;
  opts.workers = 2;
  opts.start_paused = true;
  core::ScanScheduler sched(opts);
  const auto session_spec = [&] {
    core::JobSpec spec;
    spec.kind = core::ScanKind::kInside;
    spec.session = &session;
    return spec;
  };

  // ScanSession is not thread-safe, so a second job for the same session
  // is rejected while the first is still outstanding...
  auto first = sched.submit(session_spec());
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  const auto overlapping = sched.submit(session_spec());
  ASSERT_FALSE(overlapping.ok());
  EXPECT_EQ(overlapping.status().code(),
            support::StatusCode::kFailedPrecondition);

  // ...cancelling the queued job releases the session...
  EXPECT_TRUE(first->cancel());
  EXPECT_EQ(first->wait().status().code(), support::StatusCode::kCancelled);
  auto second = sched.submit(session_spec());
  ASSERT_TRUE(second.ok()) << second.status().to_string();

  // ...and so does normal completion.
  sched.resume();
  ASSERT_TRUE(second->wait().ok()) << second->wait().status().to_string();
  auto third = sched.submit(session_spec());
  ASSERT_TRUE(third.ok()) << third.status().to_string();
  ASSERT_TRUE(third->wait().ok());
}

// --- the report differ the fleet runs on yesterday's JSON ------------------

std::string report_with(const std::string& hidden_entries) {
  return "{\"schema_version\":\"2.4\",\"diffs\":[{\"type\":\"file\","
         "\"low_view\":\"raw MFT walk\",\"high_view\":\"Win32 listing\","
         "\"hidden\":[" + hidden_entries + "]}]}";
}

TEST(ReportDiff, DetectsAddedRemovedAndChangedFindings) {
  const std::string a = report_with(
      "{\"key\":\"c:\\\\old.sys\",\"display\":\"C:\\\\old.sys\"},"
      "{\"key\":\"c:\\\\same.sys\",\"display\":\"C:\\\\same.sys\"}");
  const std::string b = report_with(
      "{\"key\":\"c:\\\\same.sys\",\"display\":\"C:\\\\SAME.sys\"},"
      "{\"key\":\"c:\\\\new.sys\",\"display\":\"C:\\\\new.sys\"}");
  const auto delta = core::diff_reports_json(a, b);
  ASSERT_TRUE(delta.ok()) << delta.status().to_string();
  EXPECT_TRUE(delta->drift());
  ASSERT_EQ(delta->added.size(), 1u);
  EXPECT_EQ(delta->added[0].key, "c:\\new.sys");
  EXPECT_NE(delta->added[0].detail.find("raw MFT walk"), std::string::npos);
  ASSERT_EQ(delta->removed.size(), 1u);
  EXPECT_EQ(delta->removed[0].key, "c:\\old.sys");
  ASSERT_EQ(delta->changed.size(), 1u);
  EXPECT_EQ(delta->changed[0].display, "C:\\SAME.sys");

  const auto text = delta->to_string();
  EXPECT_NE(text.find("+ [file] C:\\new.sys"), std::string::npos);
  EXPECT_NE(text.find("- [file] C:\\old.sys"), std::string::npos);
  EXPECT_NE(text.find("~ [file] C:\\SAME.sys"), std::string::npos);
}

TEST(ReportDiff, IdenticalReportsShowNoDrift) {
  const std::string a = report_with(
      "{\"key\":\"c:\\\\x.sys\",\"display\":\"C:\\\\x.sys\"}");
  const auto delta = core::diff_reports_json(a, a);
  ASSERT_TRUE(delta.ok());
  EXPECT_FALSE(delta->drift());
}

TEST(ReportDiff, PrefersV25ViewProvenanceOverPairwiseProjection) {
  // A v2.5 finding carries its own found_in/missing_from view-id sets;
  // the drift detail should name those, not the per-diff projection.
  const std::string before = report_with("");
  const std::string after =
      "{\"schema_version\":\"2.5\",\"diffs\":[{\"type\":\"process\","
      "\"low_view\":\"signature carve\",\"high_view\":\"process list\","
      "\"hidden\":[{\"key\":\"pid:77\",\"display\":\"77 evil.exe\","
      "\"found_in\":[\"carve\"],"
      "\"missing_from\":[\"api\",\"threads\"]}]}]}";
  const auto delta = core::diff_reports_json(before, after);
  ASSERT_TRUE(delta.ok()) << delta.status().to_string();
  ASSERT_EQ(delta->added.size(), 1u);
  EXPECT_NE(delta->added[0].detail.find("found in carve"), std::string::npos);
  EXPECT_NE(delta->added[0].detail.find("missing from api+threads"),
            std::string::npos);
  EXPECT_EQ(delta->version_b, "2.5");
}

TEST(ReportDiff, RejectsMalformedInput) {
  const std::string good = report_with("");
  EXPECT_EQ(core::diff_reports_json("{not json", good).status().code(),
            support::StatusCode::kCorrupt);
  EXPECT_EQ(core::diff_reports_json(good, "{\"no_diffs\":1}").status().code(),
            support::StatusCode::kCorrupt);
}

TEST(ReportDiff, WorksOnLiveEngineOutput) {
  machine::Machine clean(small_config());
  machine::Machine dirty(small_config());
  malware::install_ghostware<malware::HackerDefender>(dirty);
  const std::string before = cold_scan(clean, 1).to_json();
  const std::string after = cold_scan(dirty, 1).to_json();

  const auto delta = core::diff_reports_json(before, after);
  ASSERT_TRUE(delta.ok()) << delta.status().to_string();
  EXPECT_TRUE(delta->drift());
  EXPECT_GT(delta->added.size(), 0u);
  EXPECT_TRUE(delta->removed.empty());

  const auto self = core::diff_reports_json(after, after);
  ASSERT_TRUE(self.ok());
  EXPECT_FALSE(self->drift());
}

}  // namespace
}  // namespace gb
