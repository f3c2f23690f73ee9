// Fleet-scheduler characterization: throughput of a fixed fleet served
// through ScanScheduler as the shared pool widens, and queue latency for
// a light tenant while a heavy tenant floods the queue (the weighted
// fair-queuing story). On a single-core host the pool-width sweep is
// flat — fan-out needs cores — but the fairness ratios still hold, since
// deficit round-robin is a property of dispatch order, not parallelism.
#include <algorithm>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "core/scan_scheduler.h"
#include "malware/collection.h"
#include "obs/metrics.h"

namespace {

using namespace gb;

machine::MachineConfig fleet_box_config(std::uint64_t seed) {
  machine::MachineConfig cfg;
  cfg.seed = seed;
  cfg.disk_sectors = 32 * 1024;  // 16 MiB: a bench fleet fits in RAM
  cfg.mft_records = 2048;
  cfg.synthetic_files = 40;
  cfg.synthetic_registry_keys = 20;
  return cfg;
}

std::vector<std::unique_ptr<machine::Machine>> build_fleet(std::size_t n) {
  std::vector<std::unique_ptr<machine::Machine>> fleet;
  for (std::size_t i = 0; i < n; ++i) {
    fleet.push_back(
        std::make_unique<machine::Machine>(fleet_box_config(400 + i)));
    if (i % 3 == 0) {
      malware::install_ghostware<malware::HackerDefender>(*fleet.back());
    }
  }
  return fleet;
}

/// Jobs served per second over a fixed 8-machine fleet, as the shared
/// pool widens. Machines are rebuilt per iteration (a scan advances the
/// virtual clock, so reuse would not be apples-to-apples).
void BM_FleetThroughputByWorkers(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kFleet = 8;
  for (auto _ : state) {
    state.PauseTiming();
    auto fleet = build_fleet(kFleet);
    state.ResumeTiming();
    core::ScanScheduler::Options opts;
    opts.workers = workers;
    core::ScanScheduler sched(opts);
    std::vector<core::ScanJob> jobs;
    for (auto& m : fleet) {
      core::JobSpec spec;
      spec.machine = m.get();
      jobs.push_back(sched.submit(std::move(spec)).value());
    }
    for (auto& job : jobs) benchmark::DoNotOptimize(job.wait().ok());
  }
  state.SetItemsProcessed(state.iterations() * kFleet);
}
BENCHMARK(BM_FleetThroughputByWorkers)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Scheduling overhead in isolation: empty-mask jobs (no scan work), so
/// the measurement is submit + DRR dispatch + handle completion.
void BM_SchedulerDispatchOverhead(benchmark::State& state) {
  auto box = std::make_unique<machine::Machine>(fleet_box_config(1));
  for (auto _ : state) {
    core::ScanScheduler::Options opts;
    opts.workers = 1;
    core::ScanScheduler sched(opts);
    std::vector<core::ScanJob> jobs;
    for (int i = 0; i < 32; ++i) {
      core::JobSpec spec;
      spec.machine = box.get();
      spec.tenant = (i % 2 != 0) ? "odd" : "even";
      spec.config.resources = core::ResourceMask::kNone;
      jobs.push_back(sched.submit(std::move(spec)).value());
    }
    for (auto& job : jobs) benchmark::DoNotOptimize(job.wait().ok());
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_SchedulerDispatchOverhead)->Unit(benchmark::kMillisecond);

void print_table(const std::string& json_path) {
  bench::heading("Fleet scheduler - weighted fairness under a flood");

  // A heavy tenant floods 12 jobs; a light tenant submits 4. With
  // weights 2:1 the light tenant's jobs must interleave at one per
  // three dispatches rather than waiting behind the whole flood.
  auto fleet = build_fleet(2);
  obs::MetricsRegistry registry;
  core::ScanScheduler::Options opts;
  opts.workers = 1;
  opts.start_paused = true;
  opts.metrics = &registry;
  core::ScanScheduler sched(opts);
  sched.set_tenant_weight("heavy", 2);
  sched.set_tenant_weight("light", 1);

  std::vector<core::ScanJob> heavy_jobs, light_jobs;
  for (int i = 0; i < 12; ++i) {
    core::JobSpec spec;
    spec.machine = fleet[0].get();
    spec.tenant = "heavy";
    heavy_jobs.push_back(sched.submit(std::move(spec)).value());
  }
  for (int i = 0; i < 4; ++i) {
    core::JobSpec spec;
    spec.machine = fleet[1].get();
    spec.tenant = "light";
    light_jobs.push_back(sched.submit(std::move(spec)).value());
  }
  sched.resume();
  sched.wait_idle();

  double heavy_queue_max = 0, light_queue_max = 0;
  for (auto& j : heavy_jobs) {
    heavy_queue_max =
        std::max(heavy_queue_max, j.wait().value().scheduler->queue_seconds);
  }
  for (auto& j : light_jobs) {
    light_queue_max =
        std::max(light_queue_max, j.wait().value().scheduler->queue_seconds);
  }
  const auto stats = sched.stats();
  std::printf("%-28s %8s %8s\n", "tenant", "served", "maxq(ms)");
  std::printf("%-28s %8llu %8.2f\n", "heavy (w=2, 12 jobs)",
              static_cast<unsigned long long>(stats.tenants[0].served),
              heavy_queue_max * 1e3);
  std::printf("%-28s %8llu %8.2f\n", "light (w=1, 4 jobs)",
              static_cast<unsigned long long>(stats.tenants[1].served),
              light_queue_max * 1e3);
  // The light tenant's worst wait must beat waiting behind the flood:
  // under FIFO its last job would queue behind all 12 heavy jobs.
  const bool fair = light_queue_max <= heavy_queue_max;
  std::printf("%s light tenant never waits behind the full flood\n",
              bench::mark(fair));
  std::printf("(single-core CI note: widen-the-pool speedups need real "
              "cores; fairness ratios hold at any width)\n");

  if (!json_path.empty()) {
    // Machine-readable result: the fairness verdict plus the scheduler's
    // whole registry (per-tenant counters, queue-wait histogram, pool
    // task latencies), so CI can trend any series without new plumbing.
    std::string payload = "{\"bench\":\"bench_scheduler\"";
    payload += ",\"fair\":" + std::string(fair ? "true" : "false");
    payload +=
        ",\"heavy_maxq_seconds\":" + std::to_string(heavy_queue_max);
    payload +=
        ",\"light_maxq_seconds\":" + std::to_string(light_queue_max);
    payload += ",\"stats\":" + stats.to_json();
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
