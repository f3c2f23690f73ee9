// The signature-carving process view (kernel/carve.h): recovery of
// orphaned records, robustness against damaged dump images (truncated /
// scrubbed-to-garbage / all-zero), byte-identical sweeps at any worker
// and chunk configuration, and the DoubleFu acceptance scenario —
// double DKOM plus dump scrubbing, invisible to every traversal-based
// view and caught only by the carver.
#include <gtest/gtest.h>

#include "core/scan_engine.h"
#include "kernel/carve.h"
#include "kernel/dump.h"
#include "malware/doublefu.h"
#include "malware/hackerdefender.h"
#include "support/strings.h"
#include "support/thread_pool.h"

namespace gb {
namespace {

using core::ResourceType;
using core::ScanEngine;
using core::ScanKind;

machine::MachineConfig small_config() {
  machine::MachineConfig cfg;
  cfg.synthetic_files = 20;
  cfg.synthetic_registry_keys = 10;
  return cfg;
}

core::ScanConfig proc_only(bool advanced = false,
                           core::CarveMode carve =
                               core::CarveMode::kOutsideOnly) {
  core::ScanConfig cfg;
  cfg.resources = core::ResourceMask::kProcesses;
  cfg.processes.scheduler_view = advanced;
  cfg.processes.carve = carve;
  cfg.parallelism = 1;
  return cfg;
}

std::size_t hidden_named(const core::DiffReport& d, std::string_view needle) {
  std::size_t n = 0;
  for (const auto& f : d.hidden) {
    if (f.resource.key.find(fold_case(needle)) != std::string::npos) ++n;
  }
  return n;
}

const core::ViewSummary* view_by_id(const core::DiffReport& d,
                                    std::string_view id) {
  for (const auto& v : d.views) {
    if (v.id == id) return &v;
  }
  return nullptr;
}

// --- kernel::carve_dump ----------------------------------------------------

TEST(CarveDump, RecoversEveryRecordFromHealthyDump) {
  machine::Machine m(small_config());
  const auto image = kernel::write_dump(m.kernel());
  const auto carved = kernel::carve_dump(image);
  ASSERT_TRUE(carved.ok()) << carved.status().to_string();
  EXPECT_EQ(carved->processes.size(), m.kernel().id_table().size());
  EXPECT_EQ(carved->orphan_count(), 0u);  // all records still referenced
  EXPECT_EQ(carved->stats.recovered, carved->processes.size());
  EXPECT_EQ(carved->stats.bytes_swept, image.size());
  // Offsets ascend: the merge preserves file order.
  for (std::size_t i = 1; i < carved->processes.size(); ++i) {
    EXPECT_LT(carved->processes[i - 1].offset, carved->processes[i].offset);
  }
}

TEST(CarveDump, TruncatedDumpIsCorruptNotACrash) {
  machine::Machine m(small_config());
  auto image = kernel::write_dump(m.kernel());
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{5}, image.size() / 2, image.size() - 1}) {
    std::vector<std::byte> cut(image.begin(),
                               image.begin() + static_cast<long>(keep));
    const auto carved = kernel::carve_dump(cut);
    ASSERT_FALSE(carved.ok()) << "keep=" << keep;
    EXPECT_EQ(carved.status().code(), support::StatusCode::kCorrupt);
  }
}

TEST(CarveDump, GarbageAndAllZeroImagesAreCorrupt) {
  std::vector<std::byte> zeros(4096);
  const auto z = kernel::carve_dump(zeros);
  ASSERT_FALSE(z.ok());
  EXPECT_EQ(z.status().code(), support::StatusCode::kCorrupt);

  std::vector<std::byte> garbage(4096);
  for (std::size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<std::byte>((i * 37 + 11) & 0xff);
  }
  const auto g = kernel::carve_dump(garbage);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), support::StatusCode::kCorrupt);
}

TEST(CarveDump, ByteIdenticalAcrossWorkersAndChunkSizes) {
  machine::Machine m(small_config());
  const auto image = kernel::write_dump(m.kernel());
  const auto serial = kernel::carve_dump(image);
  ASSERT_TRUE(serial.ok());
  ASSERT_FALSE(serial->processes.empty());

  for (const std::size_t workers : {1u, 2u, 8u}) {
    support::ThreadPool pool(workers);
    for (const std::uint32_t chunk : {0u, 4096u, 4097u, 1u << 16}) {
      const auto carved = kernel::carve_dump(image, &pool, chunk);
      ASSERT_TRUE(carved.ok()) << "workers=" << workers << " chunk=" << chunk;
      ASSERT_EQ(carved->processes.size(), serial->processes.size());
      for (std::size_t i = 0; i < serial->processes.size(); ++i) {
        EXPECT_EQ(carved->processes[i].offset, serial->processes[i].offset);
        EXPECT_EQ(carved->processes[i].image.pid,
                  serial->processes[i].image.pid);
        EXPECT_EQ(carved->processes[i].image.image_name,
                  serial->processes[i].image.image_name);
        EXPECT_EQ(carved->processes[i].referenced,
                  serial->processes[i].referenced);
      }
      EXPECT_EQ(carved->stats.recovered, serial->stats.recovered);
      EXPECT_EQ(carved->stats.rejected, serial->stats.rejected);
      EXPECT_EQ(carved->stats.bytes_swept, serial->stats.bytes_swept);
    }
  }
}

// --- the carve view inside the engine --------------------------------------

TEST(CarveView, ScrubbedToGarbageDumpDegradesCarveViewWithoutTearing) {
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  m.register_bluescreen_scrubber([](std::vector<std::byte>& bytes) {
    for (auto& b : bytes) b = std::byte{0xA5};  // total overwrite
  });
  const auto report =
      ScanEngine(m, proc_only()).run({.kind = ScanKind::kOutside}).value();
  const auto* procs = report.diff_for(ResourceType::kProcess);
  ASSERT_NE(procs, nullptr);
  EXPECT_TRUE(report.degraded());
  EXPECT_TRUE(procs->degraded());
  EXPECT_TRUE(procs->hidden.empty());
  // Both evidence views report their own failure; the API view is fine.
  ASSERT_EQ(procs->views.size(), 3u);
  EXPECT_FALSE(view_by_id(*procs, "api")->degraded());
  EXPECT_TRUE(view_by_id(*procs, "threads")->degraded());
  EXPECT_TRUE(view_by_id(*procs, "carve")->degraded());
  EXPECT_EQ(view_by_id(*procs, "carve")->status.code(),
            support::StatusCode::kCorrupt);
  // The report is degraded, not torn: it still serializes end to end.
  EXPECT_NE(report.to_json().find("\"status\":\"degraded\""),
            std::string::npos);
}

TEST(CarveView, TruncatedDumpDegradesBothEvidenceViews) {
  machine::Machine m(small_config());
  m.register_bluescreen_scrubber([](std::vector<std::byte>& bytes) {
    bytes.resize(bytes.size() / 2);
  });
  const auto report =
      ScanEngine(m, proc_only()).run({.kind = ScanKind::kOutside}).value();
  const auto* procs = report.diff_for(ResourceType::kProcess);
  ASSERT_NE(procs, nullptr);
  EXPECT_TRUE(procs->degraded());
  EXPECT_TRUE(view_by_id(*procs, "threads")->degraded());
  EXPECT_TRUE(view_by_id(*procs, "carve")->degraded());
  EXPECT_TRUE(procs->hidden.empty());
}

TEST(CarveView, CarveModeOffUnregistersTheView) {
  machine::Machine m(small_config());
  ScanEngine engine(m, proc_only(false, core::CarveMode::kOff));
  const auto report = engine.run({.kind = ScanKind::kOutside}).value();
  const auto* procs = report.diff_for(ResourceType::kProcess);
  ASSERT_NE(procs, nullptr);
  ASSERT_EQ(procs->views.size(), 2u);  // api + threads only
  EXPECT_EQ(view_by_id(*procs, "carve"), nullptr);
}

// --- DoubleFu: three misses, one hit ---------------------------------------

TEST(DoubleFu, InvisibleToHighActiveListAndThreadTableViews) {
  machine::Machine m(small_config());
  auto fu2 = malware::install_ghostware<malware::DoubleFu>(m);
  const auto victim =
      m.spawn_process("C:\\windows\\system32\\notepad.exe").pid();
  ASSERT_TRUE(fu2->hide_process(m, victim));

  // Miss 1 (API view) and miss 2 (Active Process List): the basic inside
  // scan diffs exactly those two views and stays silent.
  const auto basic =
      ScanEngine(m, proc_only(false)).run({.kind = ScanKind::kInside}).value();
  const auto* basic_procs = basic.diff_for(ResourceType::kProcess);
  ASSERT_NE(basic_procs, nullptr);
  EXPECT_EQ(hidden_named(*basic_procs, "notepad.exe"), 0u)
      << basic.to_string();

  // Miss 3 (scheduler thread table): advanced mode — which catches
  // plain FU — is defeated by the second unlinking.
  const auto advanced =
      ScanEngine(m, proc_only(true)).run({.kind = ScanKind::kInside}).value();
  const auto* adv_procs = advanced.diff_for(ResourceType::kProcess);
  ASSERT_NE(adv_procs, nullptr);
  ASSERT_NE(view_by_id(*adv_procs, "threads"), nullptr);
  EXPECT_EQ(hidden_named(*adv_procs, "notepad.exe"), 0u)
      << advanced.to_string();
}

TEST(DoubleFu, OutsideCarveViewRecoversTheOrphanedRecord) {
  machine::Machine m(small_config());
  auto fu2 = malware::install_ghostware<malware::DoubleFu>(m);
  const auto victim =
      m.spawn_process("C:\\windows\\system32\\notepad.exe").pid();
  ASSERT_TRUE(fu2->hide_process(m, victim));

  // The blue-screen scrubber erases the victim's linkage entries, so the
  // parsed dump's thread traversal misses it too — only the raw-bytes
  // signature sweep still sees the orphaned record.
  const auto report =
      ScanEngine(m, proc_only()).run({.kind = ScanKind::kOutside}).value();
  const auto* procs = report.diff_for(ResourceType::kProcess);
  ASSERT_NE(procs, nullptr);
  EXPECT_FALSE(procs->degraded()) << procs->status.to_string();
  ASSERT_EQ(hidden_named(*procs, "notepad.exe"), 1u) << report.to_string();
  for (const auto& f : procs->hidden) {
    if (f.resource.key.find("notepad.exe") == std::string::npos) continue;
    EXPECT_EQ(f.found_in, (std::vector<std::string>{"carve"}));
    EXPECT_EQ(f.missing_from, (std::vector<std::string>{"api", "threads"}));
  }
}

TEST(DoubleFu, LiveCarveViewCatchesItInsideTheBox) {
  machine::Machine m(small_config());
  auto fu2 = malware::install_ghostware<malware::DoubleFu>(m);
  const auto victim =
      m.spawn_process("C:\\windows\\system32\\notepad.exe").pid();
  ASSERT_TRUE(fu2->hide_process(m, victim));

  // --carve: the live sweep serializes kernel memory directly, so the
  // blue-screen scrubber never runs and the record carves right out.
  ScanEngine engine(m, proc_only(true, core::CarveMode::kOn));
  const auto report = engine.run({.kind = ScanKind::kInside}).value();
  const auto* procs = report.diff_for(ResourceType::kProcess);
  ASSERT_NE(procs, nullptr);
  EXPECT_EQ(hidden_named(*procs, "notepad.exe"), 1u) << report.to_string();
  // And the machine is still running: no blue screen happened.
  EXPECT_TRUE(m.running());
}

TEST(DoubleFu, UnhideRestoresEveryLinkage) {
  machine::Machine m(small_config());
  auto fu2 = malware::install_ghostware<malware::DoubleFu>(m);
  const auto victim =
      m.spawn_process("C:\\windows\\system32\\cmd.exe").pid();
  ASSERT_TRUE(fu2->hide_process(m, victim));
  ASSERT_TRUE(fu2->unhide_process(m, victim));
  const auto report =
      ScanEngine(m, proc_only(true)).run({.kind = ScanKind::kInside}).value();
  const auto* procs = report.diff_for(ResourceType::kProcess);
  ASSERT_NE(procs, nullptr);
  EXPECT_TRUE(procs->hidden.empty()) << report.to_string();
  // The scrubber pid list is empty again: an outside scan's dump keeps
  // its linkage and the thread view sees the process normally.
  const auto outside =
      ScanEngine(m, proc_only()).run({.kind = ScanKind::kOutside}).value();
  EXPECT_FALSE(outside.infection_detected()) << outside.to_string();
}

}  // namespace
}  // namespace gb
