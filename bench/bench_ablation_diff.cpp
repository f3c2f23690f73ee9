// Ablation A: the cross-view differ itself.
//
// DESIGN.md decision 3: one generic sorted-merge differ over canonical
// keys serves all four resource types. This bench characterizes its cost
// against snapshot size (linear) and contrasts cross-view vs cross-time
// noise: a cross-time diff on a machine with routine churn reports many
// legitimate changes, while the cross-view diff stays at zero — the
// paper's core usability argument against Tripwire-style comparison.
#include <set>

#include "bench/bench_util.h"
#include "core/cross_time.h"
#include "core/differ.h"
#include "core/file_scans.h"
#include "core/scan_engine.h"
#include "machine/machine.h"
#include "support/rng.h"

namespace {

using namespace gb;

core::ScanResult synth_snapshot(std::size_t n, std::uint64_t seed,
                                std::size_t missing = 0) {
  Rng rng(seed);
  core::ScanResult out;
  out.type = core::ResourceType::kFile;
  out.view_name = "synthetic";
  for (std::size_t i = 0; i < n; ++i) {
    const std::string path = "c:\\data\\" + rng.identifier(12);
    if (i < missing) continue;  // drop the first `missing` entries
    out.resources.push_back(core::Resource{path, path});
  }
  out.normalize();
  return out;
}

void BM_DifferScaling(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto high = synth_snapshot(n, 7, /*missing=*/8);
  const auto low = synth_snapshot(n, 7);
  for (auto _ : state) {
    auto diff = core::cross_view_diff(high, low);
    benchmark::DoNotOptimize(diff);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DifferScaling)
    ->RangeMultiplier(4)
    ->Range(1 << 10, 1 << 18)
    ->Complexity(benchmark::oN);

void print_table() {
  bench::heading(
      "Ablation A - Cross-view vs cross-time diff (noise comparison)");

  // One machine, observed over a busy day with reboots (content churn),
  // no malware. The Tripwire-style checkpoint differ (core/cross_time)
  // vs the cross-view diff, on the same machine.
  machine::MachineConfig cfg;
  cfg.synthetic_files = 150;
  machine::Machine m(cfg);
  const auto before = core::take_checkpoint(m);

  // Two busy hours with a reboot in the middle.
  m.run_for(VirtualClock::seconds(3600));
  m.reboot();
  m.run_for(VirtualClock::seconds(3600));

  const auto after = core::take_checkpoint(m);
  const auto ct = core::cross_time_diff(before, after);
  const auto filtered =
      core::filter_noise(ct.changes, core::default_noise_patterns());

  const auto report = core::ScanEngine(m, [] {
    core::ScanConfig scan_cfg;
    scan_cfg.resources = core::ResourceMask::kFiles;
    scan_cfg.parallelism = 1;
    return scan_cfg;
  }()).run({.kind = core::ScanKind::kInside}).value();
  const auto cross_view_noise = report.all_hidden().size();

  std::printf("%-46s %zu changes (%zu after noise filtering)\n",
              "cross-time diff (t0 vs t0+2h, 1 reboot):", ct.changes.size(),
              filtered.size());
  std::printf("%-46s %zu findings, no filter needed\n",
              "cross-view diff (same instant, two views):", cross_view_noise);
  std::printf("\n%s cross-view stays at zero while cross-time needs a "
              "maintained noise filter\n",
              bench::mark(cross_view_noise == 0 && !ct.changes.empty()));
}

void BM_CheckpointCapture(benchmark::State& state) {
  machine::MachineConfig cfg;
  cfg.synthetic_files = static_cast<std::size_t>(state.range(0));
  machine::Machine m(cfg);
  for (auto _ : state) {
    auto cp = core::take_checkpoint(m);
    benchmark::DoNotOptimize(cp);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CheckpointCapture)->Arg(200)->Arg(800);

}  // namespace

GB_BENCH_MAIN(print_table)
