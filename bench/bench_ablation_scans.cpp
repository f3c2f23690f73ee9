// Ablation B: scanner building blocks.
//
//   * raw MFT parse vs Win32 recursive enumeration throughput;
//   * raw hive parse vs API ASEP walk;
//   * hook-chain overhead: enumeration cost as rootkit detour chains
//     stack up (why interception is cheap enough that ghostware uses it);
//   * mechanism (hook) detector vs behaviour (cross-view) detector
//     coverage of the full malware collection.
#include <chrono>
#include <thread>

#include "bench/bench_util.h"
#include "core/file_scans.h"
#include "core/hook_detector.h"
#include "core/registry_scans.h"
#include "core/scan_engine.h"
#include "malware/collection.h"
#include "malware/indexghost.h"
#include "obs/metrics.h"

namespace {

using namespace gb;

machine::MachineConfig sized(std::size_t files, std::size_t keys = 100) {
  machine::MachineConfig cfg;
  cfg.synthetic_files = files;
  cfg.synthetic_registry_keys = keys;
  return cfg;
}

void BM_HighLevelFileWalk(benchmark::State& state) {
  machine::Machine m(sized(static_cast<std::size_t>(state.range(0))));
  const auto ctx = m.context_for(
      m.ensure_process("C:\\windows\\system32\\ghostbuster.exe"));
  for (auto _ : state) {
    auto scan = core::high_level_file_scan(m, ctx);
    benchmark::DoNotOptimize(scan);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HighLevelFileWalk)->Arg(200)->Arg(800)->Arg(3200);

void BM_RawMftParse(benchmark::State& state) {
  machine::Machine m(sized(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    auto scan = core::low_level_file_scan(m);
    benchmark::DoNotOptimize(scan);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RawMftParse)->Arg(200)->Arg(800)->Arg(3200);

void BM_HighLevelAsepWalk(benchmark::State& state) {
  machine::Machine m(sized(100, static_cast<std::size_t>(state.range(0))));
  const auto ctx = m.context_for(
      m.ensure_process("C:\\windows\\system32\\ghostbuster.exe"));
  for (auto _ : state) {
    auto scan = core::high_level_registry_scan(m, ctx);
    benchmark::DoNotOptimize(scan);
  }
}
BENCHMARK(BM_HighLevelAsepWalk)->Arg(200)->Arg(2000);

void BM_RawHiveParse(benchmark::State& state) {
  machine::Machine m(sized(100, static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    auto scan = core::low_level_registry_scan(m);
    benchmark::DoNotOptimize(scan);
  }
}
BENCHMARK(BM_RawHiveParse)->Arg(200)->Arg(2000);

void BM_EnumerationUnderHookChains(benchmark::State& state) {
  // Cost of one directory enumeration as detour chains stack up.
  machine::Machine m(sized(200));
  const auto pid = m.ensure_process("C:\\windows\\system32\\ghostbuster.exe");
  const auto ctx = m.context_for(pid);
  auto* env = m.win32().env(pid);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    env->ntdll_query_directory_file.install(
        {"layer" + std::to_string(i), HookType::kDetour, "NtQueryDirectoryFile"},
        [](const auto& next, const winapi::Ctx& c, const std::string& d) {
          return next(c, d);  // pass-through detour
        });
  }
  for (auto _ : state) {
    bool ok = false;
    auto entries = env->find_files(ctx, "C:\\windows\\system32", &ok);
    benchmark::DoNotOptimize(entries);
  }
}
BENCHMARK(BM_EnumerationUnderHookChains)->Arg(0)->Arg(4)->Arg(16);

/// The default 16,384-record volume spans 16 MFT batches, enough to
/// keep every executor of a 4-worker engine busy through the parse.
core::ScanConfig engine_config(std::size_t parallelism) {
  core::ScanConfig cfg;
  cfg.parallelism = parallelism;
  return cfg;
}

void BM_InsideScanWorkers(benchmark::State& state) {
  machine::Machine m(sized(3200, 400));
  core::ScanEngine engine(
      m, engine_config(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    auto report = engine.run({.kind = core::ScanKind::kInside}).value();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * 3200);
}
BENCHMARK(BM_InsideScanWorkers)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/// Findings with the wall-clock noise removed, for the byte-identical
/// comparison between the serial and parallel engines.
std::string normalized_findings(const core::Report& report) {
  return core::normalize_report_json(report.to_json());
}

/// Runs the executor sweep; appends one JSON row per executor count to
/// *rows when rows is non-null.
void print_parallel_table(obs::MetricsRegistry* registry,
                          std::string* rows) {
  bench::heading("Parallel engine - inside scan wall time vs executors");
  std::printf("%-12s %-14s %-10s %s\n", "executors", "seconds", "speedup",
              "findings");

  std::string baseline_findings;
  double baseline_seconds = 0;
  for (const std::size_t p : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
    // Best of three one-shot runs on identical machines.
    double best = 1e9;
    std::string findings;
    for (int rep = 0; rep < 3; ++rep) {
      machine::Machine m(sized(3200, 400));
      malware::install_ghostware<malware::HackerDefender>(m);
      core::ScanConfig cfg = engine_config(p);
      cfg.metrics = registry;
      core::ScanEngine engine(m, cfg);
      const auto t0 = std::chrono::steady_clock::now();
      const auto report = engine.run({.kind = core::ScanKind::kInside}).value();
      const double s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (s < best) best = s;
      findings = normalized_findings(report);
    }
    if (p == 1) {
      baseline_findings = findings;
      baseline_seconds = best;
    }
    const bool identical = findings == baseline_findings;
    std::printf("%-12zu %-14.4f %-10.2f %s\n", p, best,
                baseline_seconds / best,
                identical ? "byte-identical" : "MISMATCH");
    if (rows != nullptr) {
      if (!rows->empty()) *rows += ",";
      *rows += "{\"executors\":" + std::to_string(p) +
               ",\"seconds\":" + std::to_string(best) +
               ",\"speedup\":" + std::to_string(baseline_seconds / best) +
               ",\"byte_identical\":" + (identical ? "true" : "false") + "}";
    }
  }
  std::printf(
      "\n(%u hardware core%s visible: wall speedup is bounded by physical "
      "cores;\n on a single-core host expect ~1.0x here while the "
      "BM_InsideScanWorkers\n CPU column shows the per-thread work split)\n",
      std::thread::hardware_concurrency(),
      std::thread::hardware_concurrency() == 1 ? "" : "s");
}

void print_table(const std::string& json_path) {
  obs::MetricsRegistry registry;
  std::string parallel_rows;
  print_parallel_table(json_path.empty() ? nullptr : &registry,
                       json_path.empty() ? nullptr : &parallel_rows);
  bench::heading(
      "Ablation B - mechanism detection vs behaviour detection coverage");
  std::printf("%-24s %-28s %-12s %-12s\n", "ghostware", "technique",
              "hook-detect", "cross-view");

  std::size_t hook_caught = 0, diff_caught = 0, total = 0;
  auto run_case = [&](const std::string& label, const std::string& owner,
                      machine::Machine& m, bool expect_hooks) {
    const auto hooks = core::suspicious_hooks(m, {});
    bool hooked = false;
    for (const auto& h : hooks) {
      if (h.info.owner == owner) hooked = true;
    }
    core::ScanConfig scan_cfg;
    scan_cfg.processes.scheduler_view = true;
    scan_cfg.parallelism = 1;
    core::ScanEngine engine(m, scan_cfg);
    const auto report = engine.run({.kind = core::ScanKind::kInside}).value();
    const bool diffed = report.infection_detected();
    ++total;
    hook_caught += hooked;
    diff_caught += diffed;
    std::printf("%-24s %-28s %-12s %-12s\n", label.c_str(),
                expect_hooks ? "API/SSDT/filter hooks" : "data-only hiding",
                hooked ? "flagged" : "silent", diffed ? "detected" : "missed");
  };

  for (const auto& entry : malware::file_hiding_collection()) {
    machine::Machine m(sized(60, 30));
    const auto g = entry.install(m);
    run_case(entry.display_name, g->name(), m, true);
  }
  {  // FU: DKOM — no hooks at all.
    machine::Machine m(sized(60, 30));
    auto fu = malware::install_ghostware<malware::FuRootkit>(m);
    const auto victim =
        m.spawn_process("C:\\windows\\system32\\notepad.exe").pid();
    fu->hide_process(m, victim);
    run_case("FU (DKOM)", "fu", m, false);
  }
  {  // IndexGhost: directory-index unlinking — also data-only.
    machine::Machine m(sized(60, 30));
    auto g = malware::install_ghostware<malware::IndexGhost>(m);
    run_case("IndexGhost (index unlink)", g->name(), m, false);
  }

  std::printf(
      "\ncoverage: hook detector %zu/%zu, cross-view diff %zu/%zu "
      "(the two data-only cases are why behaviour beats mechanism)\n",
      hook_caught, total, diff_caught, total);

  if (!json_path.empty()) {
    // Executor sweep rows plus the engines' metric registry (provider
    // scan counts, pool task latency histogram), machine-readable.
    std::string payload = "{\"bench\":\"bench_ablation_scans\"";
    payload += ",\"parallel\":[" + parallel_rows + "]";
    payload += ",\"coverage\":{\"hook_detector\":" +
               std::to_string(hook_caught) +
               ",\"cross_view\":" + std::to_string(diff_caught) +
               ",\"total\":" + std::to_string(total) + "}";
    payload += ",\"metrics\":" + registry.to_json() + "}";
    if (bench::write_json_file(json_path, payload)) {
      std::printf("json results written to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = gb::bench::take_json_flag(argc, argv);
  print_table(json_path);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
