// Figure 3: GhostBuster hidden-file detection for the ten file-hiding
// ghostware programs, plus wall-clock cost of the inside-the-box file
// scan at several machine sizes.
#include "bench/bench_util.h"
#include "core/file_scans.h"
#include "core/scan_engine.h"
#include "malware/collection.h"
#include "support/strings.h"

namespace {

using namespace gb;

machine::MachineConfig bench_config(std::size_t files = 200) {
  machine::MachineConfig cfg;
  cfg.synthetic_files = files;
  cfg.synthetic_registry_keys = 50;
  return cfg;
}

core::ScanConfig files_only() {
  core::ScanConfig cfg;
  cfg.resources = core::ResourceMask::kFiles;
  cfg.parallelism = 1;
  return cfg;
}

/// Paper's expected hidden-file counts per row ("3+" means at least).
struct Expectation {
  std::size_t min_hidden;
  const char* note;
};
const Expectation kExpected[] = {
    {1, "msvsres.dll"},
    {1, "kbddfl.dll"},
    {3, "vanquish.exe/.dll/.log + *vanquish*"},
    {1, "configurable-prefix files"},
    {3, "hxdef100.exe/.sys/.ini + ini patterns"},
    {4, "<random>.exe/.dll + two <random>.sys"},
    {1, "user-selected files/folders"},
    {1, "user-selected files/folders"},
    {1, "user-selected files/folders"},
    {1, "user-selected files/folders"},
};

void print_table() {
  bench::heading(
      "Figure 3 — Experimental Results for GhostBuster Hidden-File "
      "Detection");
  std::printf("%-24s %-10s %-8s %-7s %s\n", "ghostware", "detected",
              "expected", "exact?", "paper row");
  const auto collection = malware::file_hiding_collection();
  for (std::size_t i = 0; i < collection.size(); ++i) {
    machine::Machine m(bench_config());
    const auto ghost = collection[i].install(m);
    core::ScanEngine engine(m, files_only());
    const auto report = engine.run({.kind = core::ScanKind::kInside}).value();
    const auto* diff = report.diff_for(core::ResourceType::kFile);

    // Exactness: the findings must be precisely the manifest's hidden set.
    std::set<std::string> expected_keys, actual_keys;
    for (const auto& p : ghost->manifest().hidden_files) {
      expected_keys.insert(core::file_key(p));
    }
    for (const auto& f : diff->hidden) actual_keys.insert(f.resource.key);
    const bool exact = expected_keys == actual_keys;
    const bool meets_paper = diff->hidden.size() >= kExpected[i].min_hidden;

    std::printf("%-24s %-10zu >=%-6zu %-7s %s\n",
                collection[i].display_name.c_str(), diff->hidden.size(),
                kExpected[i].min_hidden,
                bench::mark(exact && meets_paper), kExpected[i].note);
  }
  std::printf(
      "\nAll ten interception techniques (IAT, inline patch, detour,\n"
      "NtDll detour, SSDT, filter driver) detected uniformly by the same\n"
      "high-vs-raw-MFT cross-view diff, as the paper reports.\n");
}

void BM_InsideFileScan(benchmark::State& state) {
  machine::Machine m(bench_config(static_cast<std::size_t>(state.range(0))));
  malware::install_ghostware<malware::HackerDefender>(m);
  core::ScanEngine gb(m, files_only());
  for (auto _ : state) {
    auto report = gb.run({.kind = core::ScanKind::kInside}).value();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(state.range(0)));
}
BENCHMARK(BM_InsideFileScan)->Arg(100)->Arg(400)->Arg(1600);

void BM_RawMftScanOnly(benchmark::State& state) {
  machine::Machine m(bench_config(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    auto scan = core::low_level_file_scan(m);
    benchmark::DoNotOptimize(scan);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(state.range(0)));
}
BENCHMARK(BM_RawMftScanOnly)->Arg(100)->Arg(400)->Arg(1600);

void BM_CrossViewDiffOnly(benchmark::State& state) {
  machine::Machine m(bench_config(static_cast<std::size_t>(state.range(0))));
  const auto ctx = m.context_for(m.ensure_process(
      "C:\\windows\\system32\\ghostbuster.exe"));
  const auto high = core::high_level_file_scan(m, ctx).value();
  const auto low = core::low_level_file_scan(m).value();
  for (auto _ : state) {
    auto diff = core::cross_view_diff(high, low);
    benchmark::DoNotOptimize(diff);
  }
}
BENCHMARK(BM_CrossViewDiffOnly)->Arg(400)->Arg(1600);

}  // namespace

GB_BENCH_MAIN(print_table)
