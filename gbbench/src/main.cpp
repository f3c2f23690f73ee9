// gbbench: the repo's end-to-end benchmark.
//
//   gbbench run --workload NAME --seed N --seconds S --trace 0|1
//               [--workdir DIR] [--spans FILE]
//   gbbench selftest
//
// `run` prints a host block and a table, then one JSON result object as
// the last line of stdout: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. gbbench/README.md is the catalogue.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "obs/trace.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace gbbench;

struct Metric {
  const char* name;
  const char* unit;
};

/// End-to-end metrics of an untraced run, in BENCHMARK.json order.
const std::vector<Metric> kEndToEnd = {
    {"scan_ms_p50", "ms"}, {"scan_ms_p90", "ms"},   {"jobs_per_s", "1/s"},
    {"setup_s", "s"},      {"peak_rss_mib", "MiB"},
};

/// Printed with the end-to-end table but carried in the per-layer set:
/// CPU per job is dominated by the pool's spin-yield waits and spreads by
/// a quarter between runs, and failed_frac is 0 whenever the run is good.
const std::vector<Metric> kEndToEndExtra = {
    {"cpu_ms_per_job", "ms"},
    {"failed_frac", "ratio"},
};

/// Per-layer metrics of a traced run, in BENCHMARK.json order. A layer a
/// workload does not exercise reads 0.
const std::vector<Metric> kPerLayer = {
    {"winapi.files_api_ms", "ms"},
    {"winapi.aseps_api_ms", "ms"},
    {"winapi.processes_api_ms", "ms"},
    {"winapi.modules_api_ms", "ms"},
    {"ntfs.mft_view_ms", "ms"},
    {"ntfs.index_view_ms", "ms"},
    {"ntfs.disk_view_ms", "ms"},
    {"registry.hive_view_ms", "ms"},
    {"registry.outside_hive_ms", "ms"},
    {"kernel.active_list_ms", "ms"},
    {"kernel.threads_ms", "ms"},
    {"kernel.carve_ms", "ms"},
    {"kernel.dump_threads_ms", "ms"},
    {"kernel.module_ms", "ms"},
    {"kernel.dump_module_ms", "ms"},
    {"kernel.dump_bytes", "bytes"},
    {"core.differ.files_ms", "ms"},
    {"core.differ.aseps_ms", "ms"},
    {"core.differ.processes_ms", "ms"},
    {"core.differ.modules_ms", "ms"},
    {"core.differ.findings", "count"},
    {"core.engine.self_ms", "ms"},
    {"support.thread_pool.view_wait_ms", "ms"},
    {"core.session.records_reparsed", "count"},
    {"core.session.records_spliced", "count"},
    {"core.session.splice_ratio", "ratio"},
    {"core.session.journal_records", "count"},
    {"core.session.fallbacks", "count"},
    {"ntfs.volume_write_ms", "ms"},
    {"ntfs.records_charged", "count"},
    {"ntfs.bytes_charged", "bytes"},
    {"core.report.to_json_ms", "ms"},
    {"core.report.bytes", "bytes"},
    {"core.scheduler.queue_wait_ms_p50", "ms"},
    {"core.engine.run_ms_p50", "ms"},
    {"daemon.serving_ms_p50", "ms"},
    {"daemon.submit_rpc_ms_p50", "ms"},
    {"daemon.journal_bytes_per_job", "bytes"},
    {"daemon.result_bytes_per_job", "bytes"},
    {"daemon.rejected", "count"},
    {"cpu_ms_per_job", "ms"},
    {"failed_frac", "ratio"},
    {"trace_overhead_ms", "ms"},
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Full-precision JSON number (finite values only).
std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& catalogue,
                         const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const Metric& m : catalogue) {
    if (out.size() > 1) out += ',';
    const auto it = values.find(m.name);
    out += std::string("\"") + m.name + "\":{\"value\":" +
           num(it == values.end() ? 0 : it->second) + ",\"unit\":\"" + m.unit +
           "\"}";
  }
  return out + "}";
}

void print_table(const char* title, const std::vector<Metric>& catalogue,
                 const std::map<std::string, double>& values) {
  std::printf("\n%s\n", title);
  for (const Metric& m : catalogue) {
    const auto it = values.find(m.name);
    std::printf("  %-36s %16.4f %s\n", m.name,
                it == values.end() ? 0.0 : it->second, m.unit);
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: gbbench run --workload NAME --seed N --seconds S "
               "--trace 0|1 [--workdir DIR] [--spans FILE]\n"
               "       gbbench selftest\n");
  return 2;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

int run(int argc, char** argv) {
  std::string name, spans_path;
  RunOptions o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      name = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = o.seconds > 0;
    } else if (a == "--trace" && has_value) {
      const std::string t = argv[++i];
      if (t != "0" && t != "1") return usage();
      o.trace = t == "1";
      have_trace = true;
    } else if (a == "--workdir" && has_value) {
      o.workdir = argv[++i];
    } else if (a == "--spans" && has_value) {
      spans_path = argv[++i];
    } else {
      return usage();
    }
  }
  const Workload* w = find_workload(name);
  if (w == nullptr || !have_seed || !have_seconds || !have_trace) {
    return usage();
  }

  // Telemetry stays off in both runs: every measurement here is taken
  // from outside the library.
  gb::obs::default_tracer().disable();

  std::printf("host: nproc=%u cpu=\"%s\" build=%s\n",
              std::thread::hardware_concurrency(), cpu_model().c_str(),
              GBBENCH_BUILD_TYPE);
  std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
              w->name.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::fflush(stdout);

  const Result r = w->run(o);
  const double rss = peak_rss_mib();

  std::printf("setup: %zu repetition(s):", r.setup_s.size());
  for (double s : r.setup_s) std::printf(" %.4f s", s);
  std::printf("\nchecks: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const std::string& f : r.failures) std::printf("  FAILED: %s\n", f.c_str());

  const double failed_frac =
      r.attempted == 0 ? 1.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  const std::size_t n = r.latency_ms.size();
  std::map<std::string, double> e2e;
  e2e["scan_ms_p50"] = median(r.latency_ms);
  e2e["scan_ms_p90"] = percentile(r.latency_ms, 0.9);
  e2e["jobs_per_s"] =
      r.phase_wall_s > 0 ? static_cast<double>(r.ok) / r.phase_wall_s : 0;
  e2e["cpu_ms_per_job"] = n == 0 ? 0 : r.phase_cpu_s * 1e3 / static_cast<double>(n);
  e2e["setup_s"] = median(r.setup_s);
  e2e["peak_rss_mib"] = rss;
  e2e["failed_frac"] = failed_frac;

  std::printf("operations: %zu untraced (p90 %s: %zu beyond it)", n,
              percentile_reportable(n, 0.9) ? "reportable" : "NOT reportable",
              samples_beyond(n, 0.9));
  if (o.trace) std::printf(", %zu traced", r.traced_latency_ms.size());
  std::printf("\n");
  std::vector<Metric> e2e_table = kEndToEnd;
  e2e_table.insert(e2e_table.end(), kEndToEndExtra.begin(),
                   kEndToEndExtra.end());
  print_table(o.trace ? "end-to-end (untraced half of this run)"
                      : "end-to-end (tracing off)",
              e2e_table, e2e);

  std::map<std::string, double> layers = r.layers;
  if (o.trace) {
    for (const Metric& m : kEndToEndExtra) layers[m.name] = e2e[m.name];
    layers["trace_overhead_ms"] =
        median(r.traced_latency_ms) - median(r.latency_ms);
    print_table("per-layer (traced run)", kPerLayer, layers);
    std::printf("\ntracing overhead: traced p50 %.4f ms - untraced p50 %.4f ms"
                " = %.4f ms\n",
                median(r.traced_latency_ms), median(r.latency_ms),
                layers["trace_overhead_ms"]);
    if (!spans_path.empty()) {
      std::ofstream(spans_path) << r.spans_jsonl;
      std::printf("spans: %s\n", spans_path.c_str());
    }
  }

  const bool ok_shape = percentile_reportable(n, 0.9) || o.trace;
  const bool correct = r.failed == 0 && r.attempted > 0 && ok_shape;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(r.attempted, 1)),
              static_cast<unsigned long long>(r.failed),
              o.trace ? json_metrics(kPerLayer, layers).c_str()
                      : json_metrics(kEndToEnd, e2e).c_str());
  return 0;
}

/// Unit checks of the benchmark's own arithmetic and checks, then a tiny
/// run of every workload, traced and untraced.
int selftest() {
  int wrong = 0;
  auto expect = [&](const char* what, bool good) {
    std::printf("  %-4s %s\n", good ? "ok" : "FAIL", what);
    if (!good) ++wrong;
  };
  std::printf("percentile rule\n");
  expect("p90 of 100 samples has 10 beyond it", samples_beyond(100, 0.9) == 10);
  expect("p90 of 100 samples is reportable", percentile_reportable(100, 0.9));
  expect("p90 of 99 samples is not", !percentile_reportable(99, 0.9));
  expect("p90 needs 100 samples", min_samples_for(0.9) == 100);
  expect("p50 needs 20 samples", min_samples_for(0.5) == 20);
  {
    std::vector<double> v;
    for (int i = 100; i >= 1; --i) v.push_back(i);
    expect("nearest-rank p90 of 1..100 is 90", percentile(v, 0.9) == 90);
    expect("nearest-rank p50 of 1..100 is 50", median(v) == 50);
  }
  expect("empty percentile is 0", percentile({}, 0.5) == 0);

  std::printf("self time\n");
  expect("no children: whole span", self_time({0, 10}, {}) == 10);
  expect("disjoint children subtract their sum",
         self_time({0, 10}, {{1, 3}, {5, 6}}) == 7);
  expect("overlapping concurrent children subtract their union",
         self_time({0, 10}, {{1, 5}, {2, 6}, {3, 4}}) == 5);
  expect("children past the parent are clipped",
         self_time({0, 10}, {{-2, 1}, {9, 14}}) == 8);
  expect("nested child inside a child counts once",
         self_time({0, 10}, {{0, 10}, {2, 3}}) == 0);

  std::printf("checks fire on doctored reports\n");
  wrong += self_test_checks();

  std::printf("tiny smoke run of every workload\n");
  char dir_template[] = "gbbench-selftest-XXXXXX";
  const char* dir = mkdtemp(dir_template);
  for (const Workload& w : workloads()) {
    for (const bool trace : {false, true}) {
      RunOptions o;
      o.seed = 7;
      o.seconds = 0.2;
      o.trace = trace;
      o.tiny = true;
      o.workdir = dir != nullptr ? dir : ".";
      const Result r = w.run(o);
      const std::string what = w.name + (trace ? " traced" : " untraced") +
                               ": " + std::to_string(r.attempted) +
                               " checked, " + std::to_string(r.failed) +
                               " failed" +
                               (r.failures.empty() ? "" : " (" + r.failures[0] + ")");
      expect(what.c_str(), r.failed == 0 && !r.latency_ms.empty() &&
                               (!trace || !r.layers.empty()));
    }
  }
  if (dir != nullptr) rmdir(dir);
  std::printf("%s: %d failure(s)\n", wrong == 0 ? "PASS" : "FAIL", wrong);
  return wrong == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "run") return run(argc, argv);
  if (cmd == "selftest") return selftest();
  return usage();
}
