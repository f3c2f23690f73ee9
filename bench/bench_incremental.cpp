// Incremental re-scan speedup vs churn.
//
// The paper's fleet deployment re-scans millions of endpoints on a
// cadence, and between scans almost nothing on a given volume changes.
// A ScanSession keeps the parsed MFT image behind a change-journal
// cursor, so a re-scan re-parses only the dirtied records and
// splices the rest. This bench quantifies the payoff: wall-clock cold
// scan vs session rescan at several churn rates, asserting along the way
// that the rescan report stays byte-identical to the cold scan's.
#include <chrono>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/scan_engine.h"
#include "core/scan_session.h"
#include "malware/hackerdefender.h"

namespace {

using namespace gb;

machine::MachineConfig bench_machine() {
  machine::MachineConfig cfg;
  cfg.disk_sectors = 384 * 1024;  // 192 MiB image
  cfg.mft_records = 65536;        // the MFT walk dominates the cold scan
  cfg.synthetic_files = 300;
  cfg.synthetic_registry_keys = 200;
  return cfg;
}

core::ScanConfig serial_config() {
  core::ScanConfig cfg;
  cfg.parallelism = 1;  // serial on both sides: a pure algorithmic compare
  return cfg;
}

core::Report cold_scan(machine::Machine& m) {
  core::JobSpec job;
  job.kind = core::ScanKind::kInside;
  return std::move(core::ScanEngine(m, serial_config()).run(std::move(job)))
      .value();
}

std::string normalized(const core::Report& report) {
  return core::normalize_report_json(report.to_json(),
                                     /*drop_incremental=*/true);
}

double seconds_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Overwrites `ops` pre-created churn files — touching existing records
/// keeps the volume's shape constant across repetitions, so the cold
/// scans timed between rescans see identical work.
void overwrite_churn(machine::Machine& m, int ops, int rep) {
  for (int i = 0; i < ops; ++i) {
    m.volume().write_file("\\churn\\f" + std::to_string(i) + ".dat",
                          "rep " + std::to_string(rep) + " payload " +
                              std::to_string(i));
  }
}

void print_table(const std::string& json_path) {
  bench::heading(
      "Incremental rescan - wall time vs churn (cold scan baseline)");
  std::printf("%-10s %-10s %-12s %-12s %-9s %-10s %s\n", "churn", "dirtied",
              "cold (s)", "rescan (s)", "speedup", "spliced", "report");

  std::string rows;
  for (const int churn_pct : {0, 1, 5, 20}) {
    machine::Machine m(bench_machine());
    malware::install_ghostware<malware::HackerDefender>(m);
    const int ops = static_cast<int>(
        m.volume().live_record_count() * churn_pct / 100);
    m.volume().create_directories("\\churn");
    for (int i = 0; i < ops; ++i) {
      m.volume().write_file("\\churn\\f" + std::to_string(i) + ".dat",
                            "initial payload");
    }

    core::ScanEngine engine(m, serial_config());
    core::ScanSession session = engine.open_session();
    (void)session.rescan();  // build the session's MFT image (full walk)

    double cold_best = 1e9, rescan_best = 1e9;
    bool identical = true;
    for (int rep = 0; rep < 3; ++rep) {
      overwrite_churn(m, ops, rep);
      core::Report cold_report, rescan_report;
      const double cold_s = seconds_of([&] { cold_report = cold_scan(m); });
      const double rescan_s =
          seconds_of([&] { rescan_report = session.rescan(); });
      if (cold_s < cold_best) cold_best = cold_s;
      if (rescan_s < rescan_best) rescan_best = rescan_s;
      identical =
          identical && normalized(rescan_report) == normalized(cold_report);
    }

    const auto& sync = session.last_sync();
    const double speedup = cold_best / rescan_best;
    std::printf("%-10s %-10llu %-12.4f %-12.4f %-9.1f %-10llu %s\n",
                (std::to_string(churn_pct) + "%").c_str(),
                static_cast<unsigned long long>(sync.records_reparsed),
                cold_best, rescan_best, speedup,
                static_cast<unsigned long long>(sync.records_spliced),
                identical ? "byte-identical" : "MISMATCH");

    if (!rows.empty()) rows += ",";
    rows += "{\"churn_pct\":" + std::to_string(churn_pct) +
            ",\"records_reparsed\":" + std::to_string(sync.records_reparsed) +
            ",\"records_spliced\":" + std::to_string(sync.records_spliced) +
            ",\"cold_seconds\":" + std::to_string(cold_best) +
            ",\"rescan_seconds\":" + std::to_string(rescan_best) +
            ",\"speedup\":" + std::to_string(speedup) +
            ",\"byte_identical\":" + (identical ? "true" : "false") + "}";
  }
  std::printf(
      "\n(cold = one MFT image build + hive parse; rescan = journal replay"
      "\n + digest-checked splice + hive parse. Low churn is the fleet's"
      "\n steady state.)\n");

  if (!json_path.empty()) {
    const std::string payload =
        "{\"bench\":\"bench_incremental\",\"rows\":[" + rows + "]}";
    if (bench::write_json_file(json_path, payload)) {
      std::printf("json results written to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    }
  }
}

void BM_ColdInsideScan(benchmark::State& state) {
  machine::Machine m(bench_machine());
  malware::install_ghostware<malware::HackerDefender>(m);
  for (auto _ : state) {
    auto report = cold_scan(m);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_ColdInsideScan);

void BM_SessionRescan(benchmark::State& state) {
  // Arg = files overwritten between rescans.
  machine::Machine m(bench_machine());
  malware::install_ghostware<malware::HackerDefender>(m);
  const int ops = static_cast<int>(state.range(0));
  m.volume().create_directories("\\churn");
  overwrite_churn(m, ops, -1);
  core::ScanEngine engine(m, serial_config());
  core::ScanSession session = engine.open_session();
  (void)session.rescan();
  int rep = 0;
  for (auto _ : state) {
    state.PauseTiming();
    overwrite_churn(m, ops, rep++);
    state.ResumeTiming();
    auto report = session.rescan();
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_SessionRescan)->Arg(0)->Arg(32)->Arg(512);

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
