// Figure 4: GhostBuster hidden ASEP hook detection for the six
// registry-hiding programs; Section 3 reports 18–63 s inside-the-box.
#include "bench/bench_util.h"
#include "core/registry_scans.h"
#include "core/scan_engine.h"
#include "malware/collection.h"
#include "support/strings.h"

namespace {

using namespace gb;

machine::MachineConfig bench_config() {
  machine::MachineConfig cfg;
  cfg.synthetic_files = 100;
  cfg.synthetic_registry_keys = 150;
  return cfg;
}

core::ScanConfig registry_only() {
  core::ScanConfig cfg;
  cfg.resources = core::ResourceMask::kAseps;
  cfg.parallelism = 1;
  return cfg;
}

/// Expected hidden-hook count per Figure 4 row (Urbin, Mersting,
/// HackerDefender, Vanquish, ProBot SE, Aphex).
const std::size_t kExpectedHooks[] = {1, 1, 2, 1, 3, 1};

void print_table() {
  bench::heading(
      "Figure 4 — Experimental Results for GhostBuster Hidden ASEP Hook "
      "Detection");
  const auto collection = malware::registry_hiding_collection();
  std::printf("%-24s %-7s %-9s %-6s hidden hooks\n", "ghostware", "found",
              "expected", "exact?");
  for (std::size_t i = 0; i < collection.size(); ++i) {
    machine::Machine m(bench_config());
    const auto ghost = collection[i].install(m);
    core::ScanEngine engine(m, registry_only());
    const auto report = engine.run({.kind = core::ScanKind::kInside}).value();
    const auto* diff = report.diff_for(core::ResourceType::kAsepHook);

    std::set<std::string> expected, actual;
    for (const auto& h : ghost->manifest().asep_hooks) {
      if (h.hidden) {
        expected.insert(core::asep_key(h.key_path, h.value_name, h.data_item));
      }
    }
    for (const auto& f : diff->hidden) actual.insert(f.resource.key);

    std::printf("%-24s %-7zu %-9zu %-6s\n", collection[i].display_name.c_str(),
                diff->hidden.size(), kExpectedHooks[i],
                bench::mark(actual == expected &&
                            actual.size() == kExpectedHooks[i]));
    for (const auto& f : diff->hidden) {
      std::printf("    %s\n", f.resource.display.c_str());
    }
  }
  std::printf(
      "\nEvery hidden Services/Run/AppInit_DLLs hook exposed by the\n"
      "high-level-API vs raw-hive-parse diff; ghostware removal can now\n"
      "delete these keys and reboot (Section 3).\n");
}

void BM_InsideRegistryScan(benchmark::State& state) {
  machine::MachineConfig cfg = bench_config();
  cfg.synthetic_registry_keys = static_cast<std::size_t>(state.range(0));
  machine::Machine m(cfg);
  malware::install_ghostware<malware::ProBotSe>(m);
  core::ScanEngine gb(m, registry_only());
  for (auto _ : state) {
    auto report = gb.run({.kind = core::ScanKind::kInside}).value();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InsideRegistryScan)->Arg(100)->Arg(500)->Arg(2000);

void BM_RawHiveParseOnly(benchmark::State& state) {
  machine::MachineConfig cfg = bench_config();
  cfg.synthetic_registry_keys = static_cast<std::size_t>(state.range(0));
  machine::Machine m(cfg);
  for (auto _ : state) {
    auto scan = core::low_level_registry_scan(m);
    benchmark::DoNotOptimize(scan);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RawHiveParseOnly)->Arg(100)->Arg(500)->Arg(2000);

}  // namespace

GB_BENCH_MAIN(print_table)
