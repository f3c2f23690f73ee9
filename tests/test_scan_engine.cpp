// ScanEngine: parallel scans must be byte-identical to the serial path
// at any worker count, the sharded differ must match the serial differ,
// and the v2.1 report schema must carry the timing and status fields.
#include <gtest/gtest.h>


#include "core/scan_engine.h"
#include "malware/collection.h"

namespace gb::core {
namespace {

machine::MachineConfig small_config() {
  machine::MachineConfig cfg;
  cfg.synthetic_files = 20;
  cfg.synthetic_registry_keys = 10;
  return cfg;
}

/// JSON with the nondeterministic wall-clock fields zeroed and the
/// worker count masked — everything else must match exactly.
std::string normalized(const Report& r) {
  return normalize_report_json(r.to_json());
}

/// Non-overlapping occurrences of `needle` in `text`.
long occurrences(std::string_view text, std::string_view needle) {
  long n = 0;
  for (std::size_t at = text.find(needle); at != std::string_view::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

/// The default 16,384-record volume spans 16 MFT batches, so every
/// parallelism level below runs several lanes.
ScanConfig parallel_config(std::size_t parallelism) {
  ScanConfig cfg;
  cfg.parallelism = parallelism;
  return cfg;
}

TEST(ScanEngineDeterminism, InsideScanIdenticalAt1_2_8Threads) {
  std::string baseline;
  for (const std::size_t p : {1u, 2u, 8u}) {
    machine::Machine m(small_config());
    malware::install_ghostware<malware::HackerDefender>(m);
    ScanEngine engine(m, parallel_config(p));
    const auto report = engine.run({.kind = ScanKind::kInside}).value();
    EXPECT_EQ(report.hidden_count(ResourceType::kFile), 4u);
    EXPECT_EQ(report.hidden_count(ResourceType::kAsepHook), 2u);
    EXPECT_EQ(report.hidden_count(ResourceType::kProcess), 1u);
    const auto j = normalized(report);
    if (baseline.empty()) {
      baseline = j;
    } else {
      EXPECT_EQ(j, baseline) << "parallelism=" << p;
    }
  }
}

TEST(ScanEngineDeterminism, InjectedScanIdenticalAt1_2_8Threads) {
  std::string baseline;
  for (const std::size_t p : {1u, 2u, 8u}) {
    machine::Machine m(small_config());
    malware::install_ghostware<malware::Aphex>(
        m, "~", malware::TargetPolicy::only({"taskmgr.exe"}));
    malware::install_ghostware<malware::Vanquish>(
        m, malware::TargetPolicy::only({"explorer.exe"}));
    ScanConfig cfg = parallel_config(p);
    cfg.resources = ResourceMask::kFiles;
    ScanEngine engine(m, cfg);
    const auto report = engine.run({.kind = ScanKind::kInjected}).value();
    EXPECT_TRUE(report.infection_detected()) << "parallelism=" << p;
    const auto j = normalized(report);
    if (baseline.empty()) {
      baseline = j;
    } else {
      EXPECT_EQ(j, baseline) << "parallelism=" << p;
    }
  }
}

TEST(ScanEngineDeterminism, FuAdvancedModeIdenticalAt1_2_8Threads) {
  std::string baseline;
  for (const std::size_t p : {1u, 2u, 8u}) {
    machine::Machine m(small_config());
    auto fu = malware::install_ghostware<malware::FuRootkit>(m);
    const auto victim =
        m.spawn_process("C:\\windows\\system32\\notepad.exe").pid();
    fu->hide_process(m, victim);
    ScanConfig cfg = parallel_config(p);
    cfg.resources = ResourceMask::kProcesses;
    cfg.processes.scheduler_view = true;
    ScanEngine engine(m, cfg);
    const auto report = engine.run({.kind = ScanKind::kInside}).value();
    EXPECT_EQ(report.hidden_count(ResourceType::kProcess), 1u);
    const auto j = normalized(report);
    if (baseline.empty()) {
      baseline = j;
    } else {
      EXPECT_EQ(j, baseline) << "parallelism=" << p;
    }
  }
}

TEST(ScanEngineDeterminism, OutsideScanIdenticalAcrossWorkerCounts) {
  std::string baseline;
  for (const std::size_t p : {1u, 4u}) {
    machine::Machine m(small_config());
    malware::install_ghostware<malware::HackerDefender>(m);
    ScanEngine engine(m, parallel_config(p));
    const auto report = engine.run({.kind = ScanKind::kOutside}).value();
    EXPECT_TRUE(report.infection_detected());
    const auto j = normalized(report);
    if (baseline.empty()) {
      baseline = j;
    } else {
      EXPECT_EQ(j, baseline) << "parallelism=" << p;
    }
  }
}

TEST(ShardedDiff, MatchesSerialDiffOnLargeInputs) {
  // Large synthetic snapshots with hidden, extra, and common resources —
  // past the sharding threshold so the parallel path actually shards.
  ScanResult high, low;
  high.type = low.type = ResourceType::kFile;
  high.view_name = "api";
  low.view_name = "raw";
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "c:\\common\\" + std::to_string(i);
    if (i % 5 != 0) high.resources.push_back(Resource{key, key});
    if (i % 7 != 0) low.resources.push_back(Resource{key, key});
  }
  high.normalize();
  low.normalize();
  const auto serial = cross_view_diff(high, low);
  ASSERT_FALSE(serial.hidden.empty());
  ASSERT_FALSE(serial.extra.empty());

  support::ThreadPool pool(3);
  for (const std::size_t shards : {0u, 1u, 7u, 64u}) {
    const auto sharded = cross_view_diff(high, low, &pool, shards);
    ASSERT_EQ(sharded.hidden.size(), serial.hidden.size());
    ASSERT_EQ(sharded.extra.size(), serial.extra.size());
    for (std::size_t i = 0; i < serial.hidden.size(); ++i) {
      EXPECT_EQ(sharded.hidden[i].resource.key, serial.hidden[i].resource.key);
    }
    for (std::size_t i = 0; i < serial.extra.size(); ++i) {
      EXPECT_EQ(sharded.extra[i].resource.key, serial.extra[i].resource.key);
    }
  }
}

TEST(ReportJson, SchemaV25CarriesTimingWorkerAndStatusFields) {
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  ScanEngine engine(m, parallel_config(2));
  const auto report = engine.run({.kind = ScanKind::kInside}).value();
  const auto json = report.to_json();
  EXPECT_NE(json.find("\"schema_version\":\"2.5\""), std::string::npos);
  // A direct engine run has no fleet provenance: scheduler is null.
  EXPECT_NE(json.find("\"scheduler\":null"), std::string::npos);
  EXPECT_NE(json.find("\"degraded\":false"), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"worker_threads\":2"), std::string::npos);
  EXPECT_NE(json.find("\"simulated_seconds\":"), std::string::npos);
  EXPECT_EQ(report.worker_threads, engine.worker_count());
  // Per-diff timing: every diff object carries both clocks.
  const auto diff_count = static_cast<long>(report.diffs.size());
  EXPECT_EQ(occurrences(json, "\"wall_seconds\":"),
            diff_count + 1);  // one per diff + the report total
  // Healthy scans: every diff and every contributing view carries an OK
  // status and an empty error.
  long view_count = 0;
  for (const auto& d : report.diffs) {
    view_count += static_cast<long>(d.views.size());
  }
  EXPECT_EQ(occurrences(json, "\"status\":\"ok\""),
            diff_count + view_count);
  EXPECT_EQ(json.find("\"status\":\"degraded\""), std::string::npos);
  EXPECT_FALSE(report.degraded());
}

TEST(ResourceMaskOps, BitmaskAlgebra) {
  constexpr auto fp = ResourceMask::kFiles | ResourceMask::kProcesses;
  static_assert(has(fp, ResourceMask::kFiles));
  static_assert(!has(fp, ResourceMask::kAseps));
  static_assert((~fp & fp) == ResourceMask::kNone);
  static_assert(has(~fp, ResourceMask::kModules));
  static_assert((ResourceMask::kAll & fp) == fp);
  EXPECT_EQ(mask_for(ResourceType::kAsepHook), ResourceMask::kAseps);
}

TEST(ScanEngineConfig, SelectiveMaskProducesSelectiveDiffs) {
  machine::Machine m(small_config());
  ScanConfig cfg;
  cfg.parallelism = 2;
  cfg.resources = ResourceMask::kAseps | ResourceMask::kProcesses;
  const auto report =
      ScanEngine(m, cfg).run({.kind = ScanKind::kInside}).value();
  EXPECT_EQ(report.diffs.size(), 2u);
  EXPECT_EQ(report.diff_for(ResourceType::kFile), nullptr);
  EXPECT_NE(report.diff_for(ResourceType::kAsepHook), nullptr);
  EXPECT_NE(report.diff_for(ResourceType::kProcess), nullptr);
}

}  // namespace
}  // namespace gb::core
