// Section 5 extensions: ghostware targeting vs the DLL-injection mode,
// the eTrust dilemma, and mass-hiding anomaly detection.
#include "bench/bench_util.h"
#include "core/ads_scan.h"
#include "core/anomaly.h"
#include "core/hook_detector.h"
#include "core/scan_engine.h"
#include "malware/ads_stasher.h"
#include "malware/indexghost.h"
#include "malware/collection.h"
#include "support/strings.h"

namespace {

using namespace gb;

machine::MachineConfig cfgs() {
  machine::MachineConfig cfg;
  cfg.synthetic_files = 80;
  cfg.synthetic_registry_keys = 40;
  return cfg;
}

core::ScanConfig files_only() {
  core::ScanConfig cfg;
  cfg.resources = core::ResourceMask::kFiles;
  cfg.parallelism = 1;
  return cfg;
}

void print_table() {
  bench::heading("Section 5 - Extensions");
  std::printf("%-52s %-10s %-10s %s\n", "scenario", "plain/classic",
              "extension", "expected");

  {  // hide only from Task Manager / tlist
    machine::Machine m(cfgs());
    malware::install_ghostware<malware::HackerDefender>(
        m, std::vector<std::string>{"rcmd*"},
        malware::TargetPolicy::only({"taskmgr.exe", "tlist.exe"}));
    core::ScanEngine gb(m, files_only());
    const bool plain =
        gb.run({.kind = core::ScanKind::kInside}).value().infection_detected();
    const bool injected = gb
                              .run({.kind = core::ScanKind::kInjected})
                              .value()
                              .infection_detected();
    std::printf("%-52s %-10s %-10s %-22s %s\n",
                "HxDef hiding only from taskmgr/tlist",
                plain ? "detected" : "missed",
                injected ? "detected" : "missed", "missed / detected",
                bench::mark(!plain && injected));
  }
  {  // hide from everyone except ghostbuster.exe
    machine::Machine m(cfgs());
    malware::install_ghostware<malware::Vanquish>(
        m, malware::TargetPolicy::everyone_except({"ghostbuster.exe"}));
    core::ScanEngine gb(m, files_only());
    const bool plain =
        gb.run({.kind = core::ScanKind::kInside}).value().infection_detected();
    const bool injected = gb
                              .run({.kind = core::ScanKind::kInjected})
                              .value()
                              .infection_detected();
    std::printf("%-52s %-10s %-10s %-22s %s\n",
                "Vanquish exempting ghostbuster.exe",
                plain ? "detected" : "missed",
                injected ? "detected" : "missed", "missed / detected",
                bench::mark(!plain && injected));
  }
  {  // ordinary (untargeted) hiding: both modes catch it
    machine::Machine m(cfgs());
    malware::install_ghostware<malware::HackerDefender>(m);
    core::ScanEngine gb(m, files_only());
    const bool plain =
        gb.run({.kind = core::ScanKind::kInside}).value().infection_detected();
    const bool injected = gb
                              .run({.kind = core::ScanKind::kInjected})
                              .value()
                              .infection_detected();
    std::printf("%-52s %-10s %-10s %-22s %s\n", "HxDef hiding from everyone",
                plain ? "detected" : "missed",
                injected ? "detected" : "missed", "detected / detected",
                bench::mark(plain && injected));
  }
  {  // eTrust dilemma
    machine::Machine m(cfgs());
    malware::install_ghostware<malware::HackerDefender>(m);
    core::ScanConfig av = files_only();
    av.scanner_image = "inocit.exe";
    const bool from_av =
        core::ScanEngine(m, av)
            .run({.kind = core::ScanKind::kInside})
            .value()
            .infection_detected();
    std::printf("%-52s %-10s %-10s %-22s %s\n",
                "GhostBuster DLL injected into eTrust InocIT.exe", "-",
                from_av ? "detected" : "missed", "detected",
                bench::mark(from_av));
  }
  {  // mass hiding
    machine::Machine m(cfgs());
    for (int i = 0; i < 100; ++i) {
      m.volume().write_file(
          "C:\\documents\\user\\innocent" + std::to_string(i) + ".doc", "x");
    }
    auto hider = std::make_shared<malware::Aphex>("innocent");
    hider->install(m);
    core::ScanEngine engine(m, files_only());
    const auto report = engine.run({.kind = core::ScanKind::kInside}).value();
    const auto a = core::assess_anomaly(report.diffs);
    std::printf("%-52s %-10zu %-10s %-22s %s\n",
                "mass hiding (100 innocent files + ghostware)",
                a.hidden_files, a.mass_hiding ? "ANOMALY" : "quiet",
                "serious anomaly", bench::mark(a.mass_hiding));
  }
  {  // directory-index unlinking (data-only persistent file hiding)
    machine::Machine m(cfgs());
    auto ghost = malware::install_ghostware<malware::IndexGhost>(m);
    core::ScanEngine gb(m, files_only());
    const bool inside =
        gb.run({.kind = core::ScanKind::kInside}).value().infection_detected();
    const bool hooks_seen =
        !core::suspicious_hooks(m, {}).empty();
    std::printf("%-52s %-10s %-10s %-22s %s\n",
                "directory-index unlinking (file-system DKOM)",
                hooks_seen ? "hooked?!" : "no hooks",
                inside ? "detected" : "missed", "hookless / detected",
                bench::mark(!hooks_seen && inside));
    (void)ghost;
  }
  {  // ADS stashing (Section 6 future work, implemented here)
    machine::Machine m(cfgs());
    auto stasher = malware::install_ghostware<malware::AdsStasher>(m);
    core::ScanEngine gb(m, files_only());
    const bool classic =
        gb.run({.kind = core::ScanKind::kInside}).value().infection_detected();
    const auto ads = core::ads_scan(m);
    std::printf("%-52s %-10s %-10s %-22s %s\n",
                "payload in alternate data stream",
                classic ? "detected" : "missed",
                ads.hidden.empty() ? "missed" : "detected",
                "missed / ADS-scan hit", bench::mark(!classic && !ads.hidden.empty()));
    (void)stasher;
  }
}

void BM_InjectedScanAllProcesses(benchmark::State& state) {
  machine::Machine m(cfgs());
  malware::install_ghostware<malware::HackerDefender>(m);
  core::ScanEngine gb(m, files_only());
  for (auto _ : state) {
    auto report = gb.run({.kind = core::ScanKind::kInjected}).value();
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_InjectedScanAllProcesses)->Unit(benchmark::kMillisecond);

void BM_PlainScanForComparison(benchmark::State& state) {
  machine::Machine m(cfgs());
  malware::install_ghostware<malware::HackerDefender>(m);
  core::ScanEngine gb(m, files_only());
  for (auto _ : state) {
    auto report = gb.run({.kind = core::ScanKind::kInside}).value();
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_PlainScanForComparison)->Unit(benchmark::kMillisecond);

}  // namespace

GB_BENCH_MAIN(print_table)
