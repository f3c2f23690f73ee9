// gb — the GhostBuster command line, structured as subcommands.
//
// Because the substrate is simulated, the CLI builds the machines it
// scans: pick infections, pick scan modes, optionally round-trip the
// disk image through a host file (the Section 5 VM workflow), or run a
// whole simulated fleet through the client API / the crash-safe daemon.
//
//   gb scan    [scan flags]        one machine, or --fleet N through the
//                                  gb::client API
//   gb diff    A.json B.json       drift between two saved reports
//   gb submit  --journal F ...     durably enqueue fleet jobs (no scan)
//   gb serve   --journal F ...     replay the journal, run every pending
//                                  job to completion, print stats
//   gb poll    --journal F ...     inspect a journal's restart image
//   gb trace   N --journal F ...   one merged cross-process Chrome trace
//                                  of job N (client+wire+daemon+engine)
//   gb status  --journal F ...     daemon health/SLO surface (kHealth)
//
// gb scan
// -------
//   gb scan [--infect name[,name...]] [--mode inside|injected|outside]
//           [--advanced] [--carve|--no-carve] [--ads] [--attribute]
//           [--remove]
//           [--json [FILE]] [--save-image FILE | --scan-image FILE]
//           [--seed N] [--fleet N [--workers N]] [--rescan N]
//           [--metrics [FILE]] [--trace FILE] [--corrupt-hive]
//
//   --json emits the schema-v2.5 machine-readable report on stdout, or
//   into FILE when one is given (for SIEM/automation pipelines).
//
//   --carve / --no-carve control the signature-carving process view.
//   The default carves the blue-screen dump during outside scans only;
//   --carve additionally sweeps live kernel memory during inside scans,
//   --no-carve disables the view entirely.
//
//   --rescan N (inside mode) scans through an incremental ScanSession:
//   the first scan primes the snapshot store, then N re-scans splice
//   unchanged MFT records from it, narrating each sync's
//   journal/splice provenance on stderr. The final report goes to
//   stdout/--json exactly as a plain scan's would.
//
//   --metrics dumps the process-wide obs::MetricsRegistry in Prometheus
//   text exposition format after the scan (stdout, or FILE). --trace
//   FILE enables span tracing and writes Chrome trace_event JSON —
//   load it in chrome://tracing or https://ui.perfetto.dev to see the
//   scheduler dispatch / engine / provider / diff-shard nesting.
//   --corrupt-hive zeroes the first byte of the SOFTWARE hive's backing
//   file before the scan (and suppresses the engine's re-flush), forcing
//   the degraded-registry-diff path for demos and metrics checks.
//
//   --fleet N scans N desktops (every third one infected from the
//   file-hiding catalogue) through gb::client::InProcessClient: tenants
//   corp / branch / lab share --workers pool slots under weighted fair
//   queuing. With --json the output is one envelope:
//   {"schema_version":"2.5","fleet":[report...],"stats":{...}}.
//
//   names: urbin mersting vanquish aphex hackerdefender probotse
//          hidefiles berbew fu doublefu adsstasher indexghost
//
// gb diff
// -------
//   gb diff A.json B.json — load two saved schema-v2.x reports and
//   print the drift in hidden-resource findings (added / removed /
//   changed, with view provenance). Exit code: 0 = no drift, 1 = drift,
//   2 = usage error, 3 = unreadable or unparsable report.
//
// gb submit / serve / poll — the daemon workflow, one journal shared
// across processes (the fleet catalog is a pure function of
// --fleet/--seed, so every process rebuilds identical machines):
//
//   gb submit --journal F [--fleet N] [--seed N] [--machine ID]...
//             [--mode M] [--advanced]
//     Appends durable submit records for the named machines (default:
//     the whole fleet) and exits *without* scanning — exactly the state
//     a daemon that crashed right after acknowledging leaves behind.
//
//   gb serve --journal F [--fleet N] [--seed N] [--shards N]
//            [--workers N] [--json] [--metrics [FILE]]
//     Starts the daemon on the journal: pending jobs replay, re-queue
//     and run to completion (journaled), then stats print and it exits.
//
//   gb poll --journal F [--job ID]
//     Prints the journal's restart image — completed jobs with status,
//     pending jobs with their requeue state; --job ID dumps that job's
//     stored report JSON. Exit 3 if the job is unknown or has no report.
//
//   gb trace JOB --journal F [--fleet N] [--seed N] [--out FILE]
//     Runs/attaches job JOB through a daemon on the journal, fetches the
//     daemon's span tree over the kTrace verb, merges it with the
//     client-side spans recorded in this process, and writes one Chrome
//     trace_event file (default gb_trace_<JOB>.json) whose every span
//     shares the job's trace id — client submit/wait, wire exchanges,
//     shard dispatch, scheduler queue-wait, engine providers.
//
//   gb status --journal F [--fleet N] [--seed N] [--json]
//     Prints the daemon's health surface (kHealth verb): per-subsystem
//     ok/DEGRADED verdicts with reasons, and p50/p95/p99 of queue-wait
//     and run latency. --json emits the raw health document.
//
// Examples:
//   gb scan --infect hackerdefender,fu --advanced --attribute
//   gb scan --infect vanquish --save-image /tmp/infected.img
//   gb scan --scan-image /tmp/infected.img
//   gb scan --fleet 12 --workers 4 --json
//   gb submit --journal /tmp/j.gbj --fleet 6
//   gb serve  --journal /tmp/j.gbj --fleet 6 --shards 2
//   gb poll   --journal /tmp/j.gbj --job 3
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/ads_scan.h"
#include "core/attribution.h"
#include "core/file_scans.h"
#include "core/registry_scans.h"
#include "core/report_diff.h"
#include "core/scan_scheduler.h"
#include "core/removal.h"
#include "daemon/client.h"
#include "daemon/daemon.h"
#include "daemon/job_journal.h"
#include "gb_daemond/sim_fleet.h"
#include "malware/ads_stasher.h"
#include "malware/doublefu.h"
#include "malware/indexghost.h"
#include "malware/collection.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using namespace gb;

std::shared_ptr<malware::Ghostware> infect(machine::Machine& m,
                                           const std::string& name) {
  using namespace malware;
  if (name == "urbin") return install_ghostware<Urbin>(m);
  if (name == "mersting") return install_ghostware<Mersting>(m);
  if (name == "vanquish") return install_ghostware<Vanquish>(m);
  if (name == "aphex") return install_ghostware<Aphex>(m);
  if (name == "hackerdefender") return install_ghostware<HackerDefender>(m);
  if (name == "probotse") return install_ghostware<ProBotSe>(m);
  if (name == "berbew") return install_ghostware<Berbew>(m);
  if (name == "adsstasher") return install_ghostware<AdsStasher>(m);
  if (name == "indexghost") return install_ghostware<IndexGhost>(m);
  if (name == "hidefiles") {
    auto h = make_hide_files({"C:\\documents\\user\\private"});
    h->install(m);
    return h;
  }
  if (name == "fu") {
    auto fu = install_ghostware<FuRootkit>(m);
    const auto victim =
        m.spawn_process("C:\\windows\\system32\\svch0st.exe").pid();
    fu->hide_process(m, victim);
    return fu;
  }
  if (name == "doublefu") {
    auto fu2 = install_ghostware<DoubleFu>(m);
    const auto victim =
        m.spawn_process("C:\\windows\\system32\\svch1st.exe").pid();
    fu2->hide_process(m, victim);
    return fu2;
  }
  std::fprintf(stderr, "unknown ghostware: %s\n", name.c_str());
  std::exit(2);
}

bool write_text(const std::string& path, const std::string& text) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) return false;
  std::fwrite(text.data(), 1, text.size(), out);
  if (text.empty() || text.back() != '\n') std::fputc('\n', out);
  std::fclose(out);
  return true;
}

/// Dumps --metrics / --trace output after the scan work is done. Returns
/// an exit code: 0, or 3 when a requested file cannot be written.
int emit_telemetry(bool metrics, const std::string& metrics_path,
                   const std::string& trace_path) {
  if (metrics) {
    const std::string text = gb::obs::default_registry().to_prometheus_text();
    if (metrics_path.empty()) {
      std::fputs(text.c_str(), stdout);
    } else if (write_text(metrics_path, text)) {
      std::printf("metrics written to %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
      return 3;
    }
  }
  if (!trace_path.empty()) {
    if (write_text(trace_path, gb::obs::default_tracer().to_chrome_json())) {
      std::printf("trace written to %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 3;
    }
  }
  return 0;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

/// Pulls a bare numeric field out of report JSON (the CLI consumes its
/// own reports through the client API, which delivers JSON only).
double json_number_field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

bool json_reports_infected(const std::string& json) {
  return json.find("\"infected\":true") != std::string::npos;
}

core::ScanKind parse_kind_or_exit(const std::string& mode) {
  if (mode == "inside") return core::ScanKind::kInside;
  if (mode == "injected") return core::ScanKind::kInjected;
  if (mode == "outside") return core::ScanKind::kOutside;
  std::fprintf(stderr, "unknown mode: %s\n", mode.c_str());
  std::exit(2);
}

/// `gb diff A.json B.json`.
int cmd_diff(int argc, char** argv, int first) {
  if (argc - first != 2) {
    std::fprintf(stderr, "usage: gb diff A.json B.json\n");
    return 2;
  }
  const std::string path_a = argv[first], path_b = argv[first + 1];
  auto slurp = [](const std::string& path) -> std::optional<std::string> {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    return std::move(buf).str();
  };
  const auto a = slurp(path_a);
  const auto b = slurp(path_b);
  if (!a || !b) {
    std::fprintf(stderr, "cannot read %s\n", (!a ? path_a : path_b).c_str());
    return 3;
  }
  const auto delta = core::diff_reports_json(*a, *b);
  if (!delta.ok()) {
    std::fprintf(stderr, "report diff failed: %s\n",
                 delta.status().to_string().c_str());
    return 3;
  }
  std::printf("%s", delta->to_string().c_str());
  return delta->drift() ? 1 : 0;
}

/// Shared by submit/serve/poll: one journal, one deterministic catalog.
struct DaemonFlags {
  std::string journal;
  std::size_t fleet = 6;
  std::uint64_t seed = 1;
  std::size_t shards = 1;
  std::size_t workers = 2;
  std::vector<std::string> machines;  // submit targets; empty = all
  core::ScanKind kind = core::ScanKind::kInside;
  bool advanced = false;
  bool json = false;
  bool metrics = false;
  std::string metrics_path;
  std::uint64_t job_id = 0;
  bool have_job_id = false;
  std::string out;  // trace: merged Chrome trace output path
};

DaemonFlags parse_daemon_flags(int argc, char** argv, int first,
                               const char* cmd) {
  DaemonFlags flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "gb %s: %s needs a value\n", cmd, arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--journal") flags.journal = need_value();
    else if (arg == "--fleet") flags.fleet = std::stoull(need_value());
    else if (arg == "--seed") flags.seed = std::stoull(need_value());
    else if (arg == "--shards") flags.shards = std::stoull(need_value());
    else if (arg == "--workers") flags.workers = std::stoull(need_value());
    else if (arg == "--machine") flags.machines.push_back(need_value());
    else if (arg == "--mode") flags.kind = parse_kind_or_exit(need_value());
    else if (arg == "--advanced") flags.advanced = true;
    else if (arg == "--json") flags.json = true;
    else if (arg == "--metrics") {
      flags.metrics = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') flags.metrics_path = argv[++i];
    }
    else if (arg == "--job") {
      flags.job_id = std::stoull(need_value());
      flags.have_job_id = true;
    }
    else if (arg == "--out") flags.out = need_value();
    else if (!arg.empty() &&
             arg.find_first_not_of("0123456789") == std::string::npos) {
      // Bare numeric operand = job id (`gb trace 3` reads naturally).
      flags.job_id = std::stoull(arg);
      flags.have_job_id = true;
    }
    else {
      std::fprintf(stderr, "gb %s: unknown argument: %s\n", cmd, arg.c_str());
      std::exit(2);
    }
  }
  if (flags.journal.empty()) {
    std::fprintf(stderr, "gb %s: --journal is required\n", cmd);
    std::exit(2);
  }
  return flags;
}

/// `gb submit` — durably enqueue jobs, scan nothing. The journal then
/// holds acknowledged-but-unserved submits: the exact state a daemon
/// crash leaves, which `gb serve` recovers from.
int cmd_submit(int argc, char** argv, int first) {
  const DaemonFlags flags = parse_daemon_flags(argc, argv, first, "submit");
  fleet_sim::SimFleet fleet =
      fleet_sim::build_sim_fleet(flags.fleet, flags.seed);

  std::vector<const fleet_sim::SimBox*> targets;
  if (flags.machines.empty()) {
    for (const auto& box : fleet.boxes) targets.push_back(&box);
  } else {
    for (const std::string& id : flags.machines) {
      const auto* box = [&]() -> const fleet_sim::SimBox* {
        for (const auto& b : fleet.boxes)
          if (b.id == id) return &b;
        return nullptr;
      }();
      if (box == nullptr) {
        std::fprintf(stderr, "gb submit: machine %s is not in a --fleet %zu "
                     "--seed %llu catalog\n",
                     id.c_str(), flags.fleet,
                     static_cast<unsigned long long>(flags.seed));
        return 2;
      }
      targets.push_back(box);
    }
  }

  auto journal = daemon::JobJournal::open(flags.journal);
  if (!journal.ok()) {
    std::fprintf(stderr, "gb submit: cannot open %s: %s\n",
                 flags.journal.c_str(),
                 journal.status().to_string().c_str());
    return 3;
  }
  std::uint64_t next_id = journal->replay().next_job_id;
  for (const fleet_sim::SimBox* box : targets) {
    daemon::JobRequest request;
    request.machine_id = box->id;
    request.tenant = box->tenant;
    request.kind = flags.kind;
    request.advanced = flags.advanced;
    if (auto s = journal->append_submit(next_id, request); !s.ok()) {
      std::fprintf(stderr, "gb submit: journal append failed: %s\n",
                   s.to_string().c_str());
      return 3;
    }
    std::printf("submitted job %llu: %s (%s)\n",
                static_cast<unsigned long long>(next_id), box->id.c_str(),
                box->tenant.c_str());
    next_id += 1;
  }
  std::printf("%zu job(s) journaled in %s; run `gb serve --journal %s "
              "--fleet %zu --seed %llu` to execute them\n",
              targets.size(), flags.journal.c_str(), flags.journal.c_str(),
              flags.fleet, static_cast<unsigned long long>(flags.seed));
  return 0;
}

/// `gb serve` — start the daemon on the journal, drain, report.
int cmd_serve(int argc, char** argv, int first) {
  const DaemonFlags flags = parse_daemon_flags(argc, argv, first, "serve");
  fleet_sim::SimFleet fleet =
      fleet_sim::build_sim_fleet(flags.fleet, flags.seed);

  daemon::DaemonOptions opts;
  opts.journal_path = flags.journal;
  opts.shards = flags.shards;
  opts.workers_per_shard = flags.workers;
  opts.resolve_machine = fleet.resolver();
  opts.tenant_weights["corp"] = 2;
  auto daemon = daemon::Daemon::start(std::move(opts));
  if (!daemon.ok()) {
    std::fprintf(stderr, "gb serve: %s\n",
                 daemon.status().to_string().c_str());
    return 3;
  }
  (*daemon)->wait_idle();
  const daemon::DaemonStats stats = (*daemon)->stats();
  if (flags.json) {
    std::printf("%s\n", stats.to_json().c_str());
  } else {
    std::printf("%s", stats.to_string().c_str());
  }
  if (flags.metrics) {
    const std::string text = (*daemon)->metrics_text();
    if (flags.metrics_path.empty()) {
      std::fputs(text.c_str(), stdout);
    } else if (!write_text(flags.metrics_path, text)) {
      std::fprintf(stderr, "cannot write %s\n", flags.metrics_path.c_str());
      return 3;
    }
  }
  return 0;
}

/// `gb poll` — inspect a journal's restart image without serving.
int cmd_poll(int argc, char** argv, int first) {
  const DaemonFlags flags = parse_daemon_flags(argc, argv, first, "poll");
  auto journal = daemon::JobJournal::open(flags.journal);
  if (!journal.ok()) {
    std::fprintf(stderr, "gb poll: cannot open %s: %s\n",
                 flags.journal.c_str(), journal.status().to_string().c_str());
    return 3;
  }
  const daemon::JournalReplay& replay = journal->replay();
  if (flags.have_job_id) {
    const auto it = replay.completed.find(flags.job_id);
    if (it == replay.completed.end()) {
      std::fprintf(stderr, "gb poll: job %llu has no stored result\n",
                   static_cast<unsigned long long>(flags.job_id));
      return 3;
    }
    if (!it->second.status.ok()) {
      std::fprintf(stderr, "job %llu terminal status: %s\n",
                   static_cast<unsigned long long>(flags.job_id),
                   it->second.status.to_string().c_str());
      return 3;
    }
    std::printf("%s\n", it->second.report_json.c_str());
    return 0;
  }
  std::printf("journal %s: %llu record(s), %zu completed, %zu pending",
              flags.journal.c_str(),
              static_cast<unsigned long long>(replay.records),
              replay.completed.size(), replay.pending.size());
  if (replay.truncated_bytes > 0) {
    std::printf(", %llu torn byte(s) truncated",
                static_cast<unsigned long long>(replay.truncated_bytes));
  }
  std::printf("\n");
  for (const auto& [id, done] : replay.completed) {
    std::printf("  job %5llu  %-14s %-7s done: %s%s\n",
                static_cast<unsigned long long>(id),
                done.request.machine_id.c_str(), done.request.tenant.c_str(),
                done.status.ok() ? "ok" : done.status.to_string().c_str(),
                done.status.ok() && json_reports_infected(done.report_json)
                    ? " [INFECTED]"
                    : "");
  }
  for (const auto& pending : replay.pending) {
    std::printf("  job %5llu  %-14s %-7s pending%s\n",
                static_cast<unsigned long long>(pending.id),
                pending.request.machine_id.c_str(),
                pending.request.tenant.c_str(),
                pending.started ? " (was mid-scan at crash)" : "");
  }
  return 0;
}

/// `gb trace <job-id>` — the cross-process distributed trace. Starts
/// the daemon on the journal (a pending job runs now; a completed one
/// is served from the store), drives attach/wait over the wire so the
/// client-side spans exist, then asks the daemon for its half (kTrace)
/// and writes ONE merged Chrome/Perfetto trace: client submit/wait,
/// wire exchanges, daemon shard dispatch, scheduler queue-wait and
/// engine providers, all under a single trace id derived from the job.
int cmd_trace(int argc, char** argv, int first) {
  const DaemonFlags flags = parse_daemon_flags(argc, argv, first, "trace");
  if (!flags.have_job_id) {
    std::fprintf(stderr, "usage: gb trace <job-id> --journal FILE "
                 "[--fleet N] [--seed N] [--out PATH]\n");
    return 2;
  }
  obs::default_tracer().enable();

  fleet_sim::SimFleet fleet =
      fleet_sim::build_sim_fleet(flags.fleet, flags.seed);
  daemon::DaemonOptions opts;
  opts.journal_path = flags.journal;
  opts.shards = flags.shards;
  opts.workers_per_shard = flags.workers;
  opts.resolve_machine = fleet.resolver();
  opts.tenant_weights["corp"] = 2;
  auto daemon = daemon::Daemon::start(std::move(opts));
  if (!daemon.ok()) {
    std::fprintf(stderr, "gb trace: %s\n",
                 daemon.status().to_string().c_str());
    return 3;
  }
  daemon::PipePair pipe = daemon::make_pipe();
  (*daemon)->serve(pipe.server);
  client::DaemonClient client(pipe.client);

  client::JobHandle handle = client.attach(flags.job_id);
  const client::JobResult& result = handle.wait();
  std::fprintf(stderr, "gb trace: job %llu terminal: %s\n",
               static_cast<unsigned long long>(flags.job_id),
               result.status.to_string().c_str());

  auto daemon_events = client.trace(flags.job_id);
  if (!daemon_events.ok()) {
    std::fprintf(stderr, "gb trace: kTrace failed: %s\n",
                 daemon_events.status().to_string().c_str());
    return 3;
  }
  const obs::TraceContext ctx = obs::TraceContext::for_job(flags.job_id);
  std::vector<obs::TraceEvent> local =
      obs::default_tracer().snapshot(ctx.trace_id);
  const std::size_t daemon_count = daemon_events->size();
  const std::vector<obs::TraceEvent> merged =
      client::merge_trace_events(std::move(daemon_events).value(),
                                 std::move(local));

  const std::string path =
      flags.out.empty()
          ? "gb_trace_" + std::to_string(flags.job_id) + ".json"
          : flags.out;
  if (!write_text(path, obs::chrome_trace_json(merged))) {
    std::fprintf(stderr, "gb trace: cannot write %s\n", path.c_str());
    return 3;
  }
  std::printf("merged trace: %zu event(s) (%zu daemon-side), trace id "
              "%016llx -> %s\n",
              merged.size(), daemon_count,
              static_cast<unsigned long long>(ctx.trace_id), path.c_str());
  return result.status.ok() ? 0 : 1;
}

/// `gb status` — the daemon's health/SLO surface over the kHealth verb:
/// per-subsystem verdicts plus rolling latency quantiles.
int cmd_status(int argc, char** argv, int first) {
  const DaemonFlags flags = parse_daemon_flags(argc, argv, first, "status");
  fleet_sim::SimFleet fleet =
      fleet_sim::build_sim_fleet(flags.fleet, flags.seed);
  daemon::DaemonOptions opts;
  opts.journal_path = flags.journal;
  opts.shards = flags.shards;
  opts.workers_per_shard = flags.workers;
  opts.resolve_machine = fleet.resolver();
  opts.tenant_weights["corp"] = 2;
  auto daemon = daemon::Daemon::start(std::move(opts));
  if (!daemon.ok()) {
    std::fprintf(stderr, "gb status: %s\n",
                 daemon.status().to_string().c_str());
    return 3;
  }
  (*daemon)->wait_idle();  // replayed pending jobs settle first
  daemon::PipePair pipe = daemon::make_pipe();
  (*daemon)->serve(pipe.server);
  client::DaemonClient client(pipe.client);
  auto health = client.health_json();
  if (!health.ok()) {
    std::fprintf(stderr, "gb status: kHealth failed: %s\n",
                 health.status().to_string().c_str());
    return 3;
  }
  if (flags.json) {
    std::printf("%s\n", health->c_str());
    return 0;
  }
  // Fixed-shape render: the schema is ours (see docs/observability.md),
  // so a scan for each subsystem object is enough — no JSON parser.
  const bool overall = health->find("\"ok\":true") != std::string::npos &&
                       health->find("\"ok\":true") <
                           health->find("\"subsystems\"");
  std::printf("daemon: %s\n", overall ? "healthy" : "DEGRADED");
  for (const char* name : {"journal", "shards", "pool", "admission",
                           "flight_recorder"}) {
    const std::string key = "\"" + std::string(name) + "\":{";
    const std::size_t at = health->find(key);
    if (at == std::string::npos) continue;
    const std::size_t end = health->find('}', at);
    const std::string body = health->substr(at, end - at);
    const bool ok = body.find("\"ok\":true") != std::string::npos;
    std::string reason;
    const std::size_t r = body.find("\"reason\":\"");
    if (r != std::string::npos) {
      const std::size_t rs = r + 10;
      reason = body.substr(rs, body.find('"', rs) - rs);
    }
    std::printf("  %-16s %s%s%s\n", name, ok ? "ok" : "DEGRADED",
                reason.empty() ? "" : " — ", reason.c_str());
  }
  for (const char* window : {"queue_wait", "run"}) {
    const std::string key = "\"" + std::string(window) + "\":{";
    const std::size_t at = health->find(key);
    if (at == std::string::npos) continue;
    double p50 = 0, p95 = 0, p99 = 0;
    std::sscanf(health->c_str() + at + key.size(),
                "\"p50\":%lf,\"p95\":%lf,\"p99\":%lf", &p50, &p95, &p99);
    std::printf("  %-16s p50 %.3fs  p95 %.3fs  p99 %.3fs\n", window, p50,
                p95, p99);
  }
  return 0;
}

/// `gb scan` — every pre-daemon workflow: single machine, offline
/// image, incremental sessions, or an in-process fleet sweep.
int cmd_scan(int argc, char** argv, int first) {
  std::vector<std::string> infections;
  std::string mode = "inside";
  std::string save_image, scan_image;
  bool advanced = false, ads = false, attribute = false, remove = false;
  core::CarveMode carve = core::CarveMode::kOutsideOnly;
  bool json = false;
  std::string json_path;
  bool metrics = false;
  std::string metrics_path;
  std::string trace_path;
  bool corrupt_hive = false;
  std::uint64_t seed = 1;
  std::size_t fleet_size = 0;
  std::size_t fleet_workers = 2;
  std::size_t rescans = 0;

  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--infect") infections = split_csv(need_value());
    else if (arg == "--mode") mode = need_value();
    else if (arg == "--advanced") advanced = true;
    else if (arg == "--carve") carve = core::CarveMode::kOn;
    else if (arg == "--no-carve") carve = core::CarveMode::kOff;
    else if (arg == "--ads") ads = true;
    else if (arg == "--attribute") attribute = true;
    else if (arg == "--remove") remove = true;
    else if (arg == "--json") {
      json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    }
    else if (arg == "--metrics") {
      metrics = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') metrics_path = argv[++i];
    }
    else if (arg == "--trace") trace_path = need_value();
    else if (arg == "--corrupt-hive") corrupt_hive = true;
    else if (arg == "--save-image") save_image = need_value();
    else if (arg == "--scan-image") scan_image = need_value();
    else if (arg == "--seed") seed = std::stoull(need_value());
    else if (arg == "--fleet") fleet_size = std::stoull(need_value());
    else if (arg == "--workers") fleet_workers = std::stoull(need_value());
    else if (arg == "--rescan") rescans = std::stoull(need_value());
    else {
      std::fprintf(stderr, "unknown argument: %s (see header comment)\n",
                   arg.c_str());
      return 2;
    }
  }

  if (!trace_path.empty()) obs::default_tracer().enable();

  // Offline mode: scan a saved disk image file from "the host".
  if (!scan_image.empty()) {
    auto loaded = disk::MemDisk::load_image_or(scan_image);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", scan_image.c_str(),
                   loaded.status().to_string().c_str());
      return 3;
    }
    auto& disk = *loaded;
    const auto files = core::outside_file_scan(disk);
    const auto aseps = core::outside_registry_scan(disk);
    if (!files.ok() || !aseps.ok()) {
      const auto& bad = files.ok() ? aseps.status() : files.status();
      std::fprintf(stderr, "image scan failed: %s\n",
                   bad.to_string().c_str());
      return 3;
    }
    std::printf("offline image scan of %s:\n  %zu files, %zu ASEP hooks "
                "(clean-boot truth view)\n",
                scan_image.c_str(), files->resources.size(),
                aseps->resources.size());
    const auto ads_report = core::ads_scan(disk);
    std::printf("  %zu suspicious alternate data stream(s)\n",
                ads_report.hidden.size());
    for (const auto& f : ads_report.hidden) {
      std::printf("    ADS %s\n", f.resource.display.c_str());
    }
    std::printf("(diff this against an inside capture to expose hiding)\n");
    return emit_telemetry(metrics, metrics_path, trace_path);
  }

  // Fleet mode: N desktops through the client API. The catalog is the
  // same deterministic one the daemon subcommands use, and the sweep
  // runs on InProcessClient — swap in a DaemonClient and this code
  // would not change.
  if (fleet_size > 0) {
    const core::ScanKind kind = parse_kind_or_exit(mode);
    fleet_sim::SimFleet fleet = fleet_sim::build_sim_fleet(fleet_size, seed);

    client::InProcessClient::Options copts;
    copts.workers = fleet_workers;
    copts.resolve_machine = fleet.resolver();
    copts.tenant_weights["corp"] = 2;
    copts.metrics = &obs::default_registry();  // one --metrics dump covers
                                               // scheduler + pool + engines
    client::InProcessClient fleet_client(copts);
    std::vector<client::JobHandle> handles;
    for (const fleet_sim::SimBox& box : fleet.boxes) {
      client::JobSpec spec;
      spec.machine_id = box.id;
      spec.tenant = box.tenant;
      spec.kind = kind;
      spec.advanced = advanced;
      spec.carve = carve;
      handles.push_back(fleet_client.submit(spec).value());
    }
    fleet_client.wait_idle();

    int detected = 0, infected = 0, failed = 0;
    for (std::size_t i = 0; i < handles.size(); ++i) {
      const client::JobResult& result = handles[i].wait();
      if (!result.status.ok()) ++failed;
      if (fleet.boxes[i].infection != "-") ++infected;
      if (result.status.ok() && json_reports_infected(result.report_json)) {
        ++detected;
      }
    }
    if (json) {
      std::string payload = "{\"schema_version\":\"2.5\",\"fleet\":[";
      bool first_box = true;
      for (auto& handle : handles) {
        if (!first_box) payload += ",";
        first_box = false;
        const client::JobResult& result = handle.wait();
        payload += result.status.ok() ? result.report_json : "null";
      }
      payload += "],\"stats\":" + fleet_client.stats().to_json() + "}";
      if (json_path.empty()) {
        std::printf("%s\n", payload.c_str());
      } else {
        std::FILE* out = std::fopen(json_path.c_str(), "w");
        if (!out) {
          std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
          return 3;
        }
        std::fwrite(payload.data(), 1, payload.size(), out);
        std::fputc('\n', out);
        std::fclose(out);
        std::printf("json fleet report written to %s\n", json_path.c_str());
      }
    } else {
      std::printf("%-14s %-7s %-10s %-9s %s\n", "host", "tenant", "verdict",
                  "queue(ms)", "ground truth");
      for (std::size_t i = 0; i < handles.size(); ++i) {
        const fleet_sim::SimBox& box = fleet.boxes[i];
        const client::JobResult& result = handles[i].wait();
        if (!result.status.ok()) {
          std::printf("%-14s %-7s %-10s %-9s %s\n", box.id.c_str(),
                      box.tenant.c_str(), "ERROR", "-",
                      result.status.to_string().c_str());
          continue;
        }
        std::printf("%-14s %-7s %-10s %-9.1f %s\n", box.id.c_str(),
                    box.tenant.c_str(),
                    json_reports_infected(result.report_json) ? "INFECTED"
                                                              : "clean",
                    json_number_field(result.report_json, "queue_seconds") *
                        1e3,
                    box.infection.c_str());
      }
      std::printf("\n%s", fleet_client.stats().to_string().c_str());
    }
    const int telemetry_rc = emit_telemetry(metrics, metrics_path, trace_path);
    if (telemetry_rc != 0) return telemetry_rc;
    return (failed == 0 && detected == infected) ? 0 : 1;
  }

  machine::MachineConfig cfg;
  cfg.seed = seed;
  machine::Machine m(cfg);
  std::vector<std::shared_ptr<malware::Ghostware>> installed;
  for (const auto& name : infections) installed.push_back(infect(m, name));

  core::ScanConfig scan_cfg;
  scan_cfg.processes.scheduler_view = advanced;
  scan_cfg.processes.carve = carve;
  if (corrupt_hive) {
    // Flush once so the backing file is current, smash the REGF magic,
    // and keep the engine from re-flushing a good copy over it. The
    // low-level registry scan then reports kCorrupt and the registry
    // diff degrades instead of the session failing.
    m.flush_registry();
    const char* hive = "C:\\windows\\system32\\config\\software";
    auto bytes = m.volume().read_file(hive);
    if (!bytes.empty()) {
      bytes[0] = std::byte{0};
      m.volume().write_file(hive, bytes);
    }
    scan_cfg.registry.flush_hives_first = false;
  }
  core::ScanEngine gb(m, scan_cfg);

  core::Report report;
  core::JobSpec job;
  job.kind = parse_kind_or_exit(mode);
  if (rescans > 0 && mode == "inside") {
    // Incremental session: scan 0 primes the snapshot store (full walk),
    // the rest splice. Narration goes to stderr so --json stays clean.
    core::ScanSession session = gb.open_session();
    for (std::size_t r = 0; r <= rescans; ++r) {
      report = session.rescan();
      const core::IncrementalStats& inc = session.last_sync();
      std::fprintf(stderr,
                   "rescan %zu: %s, journal records %llu, reparsed %llu, "
                   "spliced %llu\n",
                   r,
                   inc.incremental
                       ? "incremental"
                       : ("full walk (" + inc.fallback_reason + ")").c_str(),
                   static_cast<unsigned long long>(inc.journal_records),
                   static_cast<unsigned long long>(inc.records_reparsed),
                   static_cast<unsigned long long>(inc.records_spliced));
    }
  } else {
    if (rescans > 0) {
      std::fprintf(stderr, "--rescan only applies to --mode inside\n");
      return 2;
    }
    report = std::move(gb.run(job)).value();
  }
  if (json) {
    const auto payload = report.to_json();
    if (json_path.empty()) {
      std::printf("%s\n", payload.c_str());
    } else {
      std::FILE* out = std::fopen(json_path.c_str(), "w");
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 3;
      }
      std::fwrite(payload.data(), 1, payload.size(), out);
      std::fputc('\n', out);
      std::fclose(out);
      std::printf("json report written to %s\n", json_path.c_str());
    }
  } else {
    std::printf("%s", report.to_string().c_str());
    std::printf("simulated scan time: %.1f s\n",
                report.total_simulated_seconds);
  }
  bool anything_found = report.infection_detected();

  if (ads && m.running()) {
    const auto ads_report = core::ads_scan(m);
    std::printf("\nADS hunt: %zu finding(s)\n", ads_report.hidden.size());
    for (const auto& f : ads_report.hidden) {
      std::printf("  ADS %s\n", f.resource.display.c_str());
    }
    anything_found = anything_found || !ads_report.hidden.empty();
  }
  if (attribute && m.running()) {
    std::printf("\n%s", core::attribute_findings(m, report).to_string().c_str());
  }
  if (remove && m.running()) {
    const auto outcome = core::remove_ghostware(m, report, scan_cfg);
    std::printf("\nremoval: %zu hooks deleted, %zu files deleted, %s\n",
                outcome.hooks_removed, outcome.files_deleted,
                outcome.clean() ? "machine clean" : "STILL INFECTED");
  }
  if (!save_image.empty()) {
    if (m.running()) m.shutdown();
    m.disk().save_image(save_image);
    std::printf("\ndisk image saved to %s (scan it with --scan-image)\n",
                save_image.c_str());
  }
  const int telemetry_rc = emit_telemetry(metrics, metrics_path, trace_path);
  if (telemetry_rc != 0) return telemetry_rc;
  return anything_found || infections.empty() ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: gb <scan|serve|submit|poll|trace|status|diff> "
               "[flags]\n"
               "       (see the header comment of ghostbuster_cli.cpp)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "scan") return cmd_scan(argc, argv, 2);
  if (cmd == "serve") return cmd_serve(argc, argv, 2);
  if (cmd == "submit") return cmd_submit(argc, argv, 2);
  if (cmd == "poll") return cmd_poll(argc, argv, 2);
  if (cmd == "trace") return cmd_trace(argc, argv, 2);
  if (cmd == "status") return cmd_status(argc, argv, 2);
  if (cmd == "diff") return cmd_diff(argc, argv, 2);
  std::fprintf(stderr, "gb: unknown command '%s'\n", cmd.c_str());
  return usage();
}
