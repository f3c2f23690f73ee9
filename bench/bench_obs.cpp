// Telemetry overhead on the hot inside-scan path.
//
// The observability layer's contract is "free when off, near-free when
// on": metrics are one relaxed atomic add per event, spans are a couple
// of steady-clock reads, the flight recorder is one framed write per
// job lifecycle step — none of it on the per-record hot loop. This
// bench prices that claim: the same machine scanned with telemetry
// fully off (no registry, tracer disabled) vs fully on (registry
// attached, tracer enabled under a propagated TraceContext, event log
// appending per job), at workers 1 and 8. The arms alternate scan by
// scan, so drift in the host's load falls on both alike, and each rep
// sums enough scans per arm for a 3% budget to stand above scheduler
// noise. It asserts two invariants the check.sh gate greps for:
//
//   * overhead_ok    — telemetry-on wall time within 3% of telemetry-off
//   * byte_identical — normalized reports identical on vs off
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/scan_engine.h"
#include "machine/machine.h"
#include "malware/hackerdefender.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using namespace gb;

constexpr double kOverheadLimitPct = 3.0;
/// Scans per arm per rep. One inside scan of bench_machine() takes a few
/// milliseconds at 8 workers and its run-to-run jitter is several
/// percent, so a rep sums 64 of them (a quarter second) to bring the
/// median ratio's spread well inside the 3% budget.
constexpr int kScansPerRep = 64;

machine::MachineConfig bench_machine() {
  machine::MachineConfig cfg;
  cfg.disk_sectors = 256 * 1024;  // 128 MiB image
  cfg.mft_records = 32768;
  cfg.synthetic_files = 200;
  cfg.synthetic_registry_keys = 150;
  return cfg;
}

std::string normalized(const core::Report& report) {
  return core::normalize_report_json(report.to_json());
}

double seconds_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

core::Report scan_once(machine::Machine& m, std::size_t workers,
                       obs::MetricsRegistry* registry) {
  core::ScanConfig cfg;
  cfg.parallelism = workers;
  cfg.metrics = registry;  // report tallies stay on in both arms; only
                           // the registry sink differs
  return core::ScanEngine(m, cfg)
      .run({.kind = core::ScanKind::kInside})
      .value();
}

/// The middle of an odd number of values.
double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

void print_table(const std::string& json_path) {
  bench::heading("Telemetry overhead - inside scan, on vs off");
  std::printf("%-9s %-12s %-12s %-10s %-9s %s\n", "workers", "off (s)",
              "on (s)", "overhead", "<3%", "report");

  constexpr int kReps = 7;
  const std::string events_path =
      (std::filesystem::temp_directory_path() / "bench_obs.events").string();

  std::string rows;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    machine::Machine m(bench_machine());
    malware::install_ghostware<malware::HackerDefender>(m);

    std::filesystem::remove(events_path);
    obs::MetricsRegistry reg;
    obs::EventLog log;
    const bool attached = log.attach(events_path).ok();
    std::uint64_t job_id = 0;
    // Telemetry off: no registry sink, tracer disabled.
    auto scan_off = [&] {
      obs::default_tracer().disable();
      return scan_once(m, workers, nullptr);
    };
    // Telemetry on: registry attached, tracer recording under a job
    // context, flight recorder appending the lifecycle steps a daemon
    // job would.
    auto scan_on = [&] {
      obs::default_tracer().enable();
      ++job_id;
      const obs::TraceContextScope scope(obs::TraceContext::for_job(job_id));
      log.append(obs::EventType::kStart, job_id, "bench inside scan");
      core::Report report = scan_once(m, workers, &reg);
      log.append(obs::EventType::kComplete, job_id, "");
      obs::default_tracer().clear();
      return report;
    };

    // Each rep sums its arms' seconds over kScansPerRep (off, on) pairs,
    // the pair order alternating so neither arm always runs second.
    std::vector<double> off_s(kReps, 0.0);
    std::vector<double> on_s(kReps, 0.0);
    std::vector<double> ratio(kReps, 0.0);
    core::Report off_report;
    core::Report on_report;
    for (std::size_t rep = 0; rep < off_s.size(); ++rep) {
      for (int i = 0; i < kScansPerRep; ++i) {
        const bool on_first = i % 2 != 0;
        for (const bool on : {on_first, !on_first}) {
          core::Report report;
          const double s =
              seconds_of([&] { report = on ? scan_on() : scan_off(); });
          (on ? on_s : off_s)[rep] += s;
          (on ? on_report : off_report) = std::move(report);
        }
      }
      ratio[rep] = on_s[rep] / off_s[rep];
    }
    obs::default_tracer().disable();
    obs::default_tracer().clear();
    std::filesystem::remove(events_path);

    const double off_seconds = median(off_s);
    const double on_seconds = median(on_s);
    const double overhead_pct = (median(ratio) - 1.0) * 100.0;
    const bool overhead_ok = overhead_pct < kOverheadLimitPct;
    const bool identical = normalized(off_report) == normalized(on_report);

    std::printf("%-9zu %-12.4f %-12.4f %-+9.2f%% %-9s %s\n", workers,
                off_seconds, on_seconds, overhead_pct,
                bench::mark(overhead_ok),
                identical ? "byte-identical" : "MISMATCH");

    if (!rows.empty()) rows += ",";
    rows += "{\"workers\":" + std::to_string(workers) +
            ",\"off_seconds\":" + std::to_string(off_seconds) +
            ",\"on_seconds\":" + std::to_string(on_seconds) +
            ",\"overhead_pct\":" + std::to_string(overhead_pct) +
            ",\"overhead_ok\":" + (overhead_ok ? "true" : "false") +
            ",\"event_log_attached\":" + (attached ? "true" : "false") +
            ",\"byte_identical\":" + (identical ? "true" : "false") + "}";
  }
  std::printf(
      "\n(off = no registry, tracer disabled; on = registry + tracer +"
      "\n flight recorder. Seconds are the median over %d reps of each"
      "\n arm's %d scans, the arms alternating scan by scan; overhead is"
      "\n the median of the reps' on/off ratios. Reports compared after"
      "\n zeroing wall-clock fields only.)\n",
      kReps, kScansPerRep);

  if (!json_path.empty()) {
    const std::string payload =
        "{\"bench\":\"bench_obs\",\"rows\":[" + rows + "]}";
    if (bench::write_json_file(json_path, payload)) {
      std::printf("json results written to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    }
  }
}

void BM_InsideScanTelemetryOff(benchmark::State& state) {
  machine::Machine m(bench_machine());
  malware::install_ghostware<malware::HackerDefender>(m);
  obs::default_tracer().disable();
  const auto workers = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto report = scan_once(m, workers, nullptr);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_InsideScanTelemetryOff)->Arg(1)->Arg(8);

void BM_InsideScanTelemetryOn(benchmark::State& state) {
  machine::Machine m(bench_machine());
  malware::install_ghostware<malware::HackerDefender>(m);
  obs::MetricsRegistry reg;
  obs::default_tracer().enable();
  const auto workers = static_cast<std::size_t>(state.range(0));
  std::uint64_t job_id = 0;
  for (auto _ : state) {
    const obs::TraceContextScope scope(obs::TraceContext::for_job(++job_id));
    auto report = scan_once(m, workers, &reg);
    benchmark::DoNotOptimize(report);
    obs::default_tracer().clear();
  }
  obs::default_tracer().disable();
}
BENCHMARK(BM_InsideScanTelemetryOn)->Arg(1)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = gb::bench::take_json_flag(argc, argv);
  print_table(json_path);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
