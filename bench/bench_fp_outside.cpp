// Section 2's false-positive study for the outside-the-box scan:
//   * zero FPs on all inside-the-box scans;
//   * outside-the-box: "on all but one machine, the number of false
//     positives was two or less"; the CCM machine had 7, dropping to 2
//     once CCM was disabled;
//   * Section 5's VM variant: zero FPs (both scans see the same image).
#include "bench/bench_util.h"
#include "core/scan_engine.h"
#include "machine/services.h"
#include "malware/hackerdefender.h"

namespace {

using namespace gb;

machine::MachineConfig fp_config(bool ccm) {
  machine::MachineConfig cfg;
  cfg.synthetic_files = 120;
  cfg.synthetic_registry_keys = 60;
  cfg.ccm_service = ccm;
  return cfg;
}

core::ScanConfig files_and_registry() {
  core::ScanConfig cfg;
  cfg.resources = core::ResourceMask::kFiles | core::ResourceMask::kAseps;
  cfg.parallelism = 1;
  return cfg;
}

std::size_t outside_file_fps(machine::Machine& m) {
  core::ScanEngine gb(m, files_and_registry());
  const auto report = gb.run({.kind = core::ScanKind::kOutside}).value();
  const auto* files = report.diff_for(core::ResourceType::kFile);
  return files ? files->hidden.size() : 0;
}

void print_table() {
  bench::heading(
      "Section 2 - False positives: inside vs outside-the-box (clean "
      "machines)");
  std::printf("%-44s %-9s %s\n", "configuration", "FP count", "paper");

  {  // inside-the-box on a busy machine: zero.
    machine::Machine m(fp_config(true));
    m.run_for(VirtualClock::seconds(600));
    core::ScanEngine engine(m, files_and_registry());
    const auto report = engine.run({.kind = core::ScanKind::kInside}).value();
    const auto fps = report.all_hidden().size();
    std::printf("%-44s %-9zu %-16s %s\n", "inside-the-box, busy machine",
                fps, "0", bench::mark(fps == 0));
  }
  {  // outside, typical machine.
    machine::Machine m(fp_config(false));
    m.run_for(VirtualClock::seconds(120));
    const auto fps = outside_file_fps(m);
    std::printf("%-44s %-9zu %-16s %s\n",
                "outside-the-box, typical services", fps, "<= 2",
                bench::mark(fps <= 2));
  }
  std::size_t ccm_fps = 0;
  {  // outside, CCM machine: 7, then disable CCM -> 2.
    machine::Machine m(fp_config(true));
    m.run_for(VirtualClock::seconds(120));
    ccm_fps = outside_file_fps(m);
    std::printf("%-44s %-9zu %-16s %s\n", "outside-the-box, CCM enabled",
                ccm_fps, "7", bench::mark(ccm_fps == 7));
    m.boot();
    m.services().set_enabled(machine::Services::kCcm, false);
    m.run_for(VirtualClock::seconds(60));
    const auto rerun = outside_file_fps(m);
    std::printf("%-44s %-9zu %-16s %s\n",
                "  ... CCM disabled, re-run", rerun, "2",
                bench::mark(rerun <= 2));
  }
  {  // VM variant: halt (no shutdown-window writes), scan from host.
    machine::Machine vm(fp_config(false));
    malware::install_ghostware<malware::HackerDefender>(vm);
    core::ScanEngine gb(vm, files_and_registry());
    const auto cap = gb.capture_inside_high();
    vm.bluescreen();  // host powers the VM down; no shutdown activity
    const auto report = gb.outside_diff(cap);
    const auto* files = report.diff_for(core::ResourceType::kFile);
    std::size_t fps = 0;
    for (const auto& f : files->hidden) {
      if (f.resource.key.find("hxdef") == std::string::npos &&
          f.resource.key.find("rcmd") == std::string::npos) {
        ++fps;
      }
    }
    std::printf("%-44s %-9zu %-16s %s   (4 true positives kept)\n",
                "VM powered down, scanned from host", fps, "0",
                bench::mark(fps == 0 && files->hidden.size() == 4));
  }
  std::printf(
      "\nFP sources match the paper: AV log rotation, System Restore\n"
      "change logs, and the CCM inventory (5 files) on the 7-FP machine.\n");
}

void BM_OutsideScanFull(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    machine::Machine m(fp_config(false));
    core::ScanEngine gb(m, files_and_registry());
    state.ResumeTiming();
    auto report = gb.run({.kind = core::ScanKind::kOutside}).value();
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_OutsideScanFull)->Unit(benchmark::kMillisecond);

}  // namespace

GB_BENCH_MAIN(print_table)
