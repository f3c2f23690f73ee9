#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "checks.h"
#include "core/scan_engine.h"
#include "daemon/client.h"
#include "daemon/daemon.h"
#include "daemon/transport.h"
#include "malware/doublefu.h"
#include "malware/hackerdefender.h"
#include "spans.h"
#include "stats.h"

namespace gbbench {

void Result::fail(std::string why) {
  ++failed;
  if (failures.size() < 5) failures.push_back(std::move(why));
}

namespace {

using namespace gb;

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t mix(std::uint64_t x) {  // splitmix64
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string hex(std::uint64_t v, int digits) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%0*llx", digits,
                static_cast<unsigned long long>(v));
  return buf;
}

std::string first_failure(std::initializer_list<std::string> checks) {
  for (const std::string& c : checks) {
    if (!c.empty()) return c;
  }
  return "";
}

/// Compares a report with the first one seen since set-up (which then
/// becomes the reference).
std::string same_as_reference(std::string& reference, const std::string& json) {
  std::string n = normalized(json);
  if (reference.empty()) {
    reference = std::move(n);
    return "";
  }
  return check_identical(n, reference, "repeat reports of one state");
}

/// Input sizes. The full sizes are the workloads' definition; the tiny
/// ones only prove every code path runs.
struct Sizes {
  std::uint64_t disk_sectors;
  std::uint32_t mft_records;
  std::size_t synthetic_files;
  std::size_t synthetic_keys;
  int processes;
  int churn_files;
  std::size_t fleet;
  int setup_reps;
  int warmups;
  std::size_t min_ops;         // untraced run: p90 needs 10 samples beyond
  std::size_t min_traced_ops;  // each half of a traced run
};

Sizes sizes(const RunOptions& o) {
  if (o.tiny) return {32 * 1024, 2048, 24, 12, 40, 8, 4, 1, 1, 3, 2};
  return {384 * 1024, 65536, 300, 200, 2000, 64, 16, 3, 1,
          min_samples_for(0.9), 20};
}

machine::MachineConfig big_machine(const RunOptions& o, std::uint64_t salt) {
  const Sizes z = sizes(o);
  machine::MachineConfig cfg;
  cfg.seed = mix(o.seed * 16 + salt);
  cfg.disk_sectors = z.disk_sectors;
  cfg.mft_records = z.mft_records;
  cfg.synthetic_files = z.synthetic_files;
  cfg.synthetic_registry_keys = z.synthetic_keys;
  return cfg;
}

/// What `gb scan` runs on this 4-core host, with telemetry off.
core::ScanConfig engine_config() {
  core::ScanConfig cfg;
  cfg.parallelism = 4;
  cfg.collect_metrics = false;
  return cfg;
}

struct OpOut {
  std::string error;  // non-empty when the engine returned an error
  core::Report report;
  std::string json;
};

OpOut finish(support::StatusOr<core::Report> result, SpanRecorder* rec) {
  OpOut out;
  if (!result.ok()) {
    out.error = result.status().to_string();
    return out;
  }
  out.report = std::move(result).value();
  {
    std::optional<ScopedSpan> span;
    if (rec != nullptr) span.emplace(*rec, "core.report.to_json_ms");
    out.json = out.report.to_json();
  }
  if (rec != nullptr) {
    rec->add("core.report.bytes", static_cast<double>(out.json.size()));
  }
  return out;
}

/// An engine whose providers are the decorated defaults when `rec` is
/// set: same task graph, same pool, every layer call timed.
std::unique_ptr<core::ScanEngine> make_engine(machine::Machine& m,
                                              SpanRecorder* rec) {
  core::ScanConfig cfg = engine_config();
  if (rec != nullptr) cfg.resources = core::ResourceMask::kNone;
  auto engine = std::make_unique<core::ScanEngine>(m, cfg);
  if (rec != nullptr) {
    for (auto& s : traced_scanners(*rec)) engine->register_scanner(std::move(s));
  }
  return engine;
}

/// One cold operation: a fresh engine, run(kind), to_json(). The engine
/// and its pool are torn down before this returns.
OpOut engine_op(machine::Machine& m, core::ScanKind kind, SpanRecorder* rec) {
  auto engine = make_engine(m, rec);
  core::JobSpec job;
  job.kind = kind;
  return finish(engine->run(job), rec);
}

// --- single-caller engine workloads -----------------------------------------

class EngineWorkload {
 public:
  virtual ~EngineWorkload() = default;
  /// Rebuilds every input from the seed, discarding earlier ones.
  virtual void setup(const RunOptions& o) = 0;
  /// Untimed step before each operation.
  virtual void prepare() {}
  /// The timed operation; `rec` is null in the untraced phase.
  virtual OpOut op(SpanRecorder* rec) = 0;
  /// Untimed check of one operation's output; "" when it passes.
  virtual std::string check(const OpOut& out) = 0;
  /// Untimed step after each operation.
  virtual void after(SpanRecorder* /*rec*/, const OpOut& /*out*/) {}
  /// Untimed check once at the end of each measured phase.
  virtual std::string sample_check() { return ""; }
  /// Untimed switch into the traced phase.
  virtual void enter_traced(SpanRecorder& /*rec*/) {}
  /// Adds workload-level values to the traced run's layer table.
  virtual void finish_layers(std::map<std::string, double>& /*layers*/) {}
  /// Operations between two re-images of the inputs; 0 never re-images.
  virtual std::size_t ops_per_image() const { return 0; }
};

struct Phase {
  std::vector<double> latency_ms;
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t ok = 0;
};

/// Runs one operation: untimed prepare, timed op, untimed check/after.
void run_one(EngineWorkload& w, SpanRecorder* rec, Result& r, Phase& p) {
  w.prepare();
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  if (rec != nullptr) rec->begin_op();
  OpOut out = w.op(rec);
  if (rec != nullptr) rec->end_op();
  const auto t1 = Clock::now();
  p.cpu_s += cpu_seconds() - cpu0;
  p.wall_s += ms_between(t0, t1) / 1e3;
  p.latency_ms.push_back(ms_between(t0, t1));
  const std::string why = out.error.empty() ? w.check(out) : out.error;
  r.check(why);
  if (why.empty()) ++p.ok;
  w.after(rec, out);
}

/// Rebuilds the inputs from the seed and warms them up (all untimed);
/// each such set-up is one sample of setup_s.
void reimage(EngineWorkload& w, const RunOptions& o, SpanRecorder* rec,
             Result& r) {
  const auto t0 = Clock::now();
  w.setup(o);
  Phase warm;
  for (int i = 0; i < sizes(o).warmups; ++i) run_one(w, nullptr, r, warm);
  if (rec != nullptr) w.enter_traced(*rec);
  r.setup_s.push_back(seconds_since(t0));
}

/// Closed loop: operations back to back until `seconds` have passed and
/// at least `min_ops` ran (bounded so a run always ends). Scan times of
/// the large machines differ by up to a third between two builds of the
/// same image, so the loop re-images every ops_per_image() operations and
/// its medians pool many builds.
Phase measure(EngineWorkload& w, const RunOptions& o, SpanRecorder* rec,
              double seconds, std::size_t min_ops, Result& r) {
  Phase p;
  const double cap = std::max(seconds, std::min(4 * seconds, 120.0));
  const std::size_t every = o.tiny ? 2 : w.ops_per_image();
  const auto start = Clock::now();
  while (true) {
    const double elapsed = seconds_since(start);
    if (elapsed >= cap) break;
    if (elapsed >= seconds && p.latency_ms.size() >= min_ops) break;
    if (every > 0 && !p.latency_ms.empty() && p.latency_ms.size() % every == 0) {
      reimage(w, o, rec, r);
    }
    run_one(w, rec, r, p);
  }
  r.check(w.sample_check());
  return p;
}

Result run_engine_workload(EngineWorkload& w, const RunOptions& o) {
  const Sizes z = sizes(o);
  Result r;
  for (int rep = 0; rep < z.setup_reps; ++rep) reimage(w, o, nullptr, r);

  const double untraced_s = o.trace ? o.seconds / 2 : o.seconds;
  const Phase plain = measure(w, o, nullptr, untraced_s,
                              o.trace ? z.min_traced_ops : z.min_ops, r);
  r.latency_ms = plain.latency_ms;
  r.phase_wall_s = plain.wall_s;
  r.phase_cpu_s = plain.cpu_s;
  r.ok = plain.ok;
  if (!o.trace) return r;

  SpanRecorder rec;
  w.enter_traced(rec);
  const Phase traced =
      measure(w, o, &rec, o.seconds / 2, z.min_traced_ops, r);
  r.traced_latency_ms = traced.latency_ms;
  r.layers = layer_values(rec);
  w.finish_layers(r.layers);
  r.spans_jsonl = rec.to_jsonl();
  return r;
}

/// inside_cold: a fresh engine per operation over a large, infected,
/// unchanging machine.
class InsideCold final : public EngineWorkload {
 public:
  void setup(const RunOptions& o) override {
    hd_.reset();
    m_.reset();
    m_ = std::make_unique<machine::Machine>(big_machine(o, 1));
    hd_ = malware::install_ghostware<malware::HackerDefender>(*m_);
  }

  OpOut op(SpanRecorder* rec) override {
    return engine_op(*m_, core::ScanKind::kInside, rec);
  }

  std::string check(const OpOut& out) override {
    return first_failure(
        {check_not_degraded(out.report),
         check_hidden_files(out.report, hd_->manifest().hidden_files, "mft"),
         same_as_reference(reference_, out.json)});
  }

  std::size_t ops_per_image() const override { return 4; }

 private:
  std::unique_ptr<machine::Machine> m_;
  std::shared_ptr<malware::HackerDefender> hd_;
  std::string reference_;
};

/// rescan_churn: one primed session; a fixed set of files is rewritten
/// (untimed) before every timed rescan.
class RescanChurn final : public EngineWorkload {
 public:
  void setup(const RunOptions& o) override {
    traced_session_.reset();
    traced_engine_.reset();
    session_.reset();
    engine_.reset();
    hd_.reset();
    m_.reset();

    m_ = std::make_unique<machine::Machine>(big_machine(o, 2));
    hd_ = malware::install_ghostware<malware::HackerDefender>(*m_);
    m_->volume().create_directories("\\churn");
    churn_.clear();
    const std::string tag = hex(mix(o.seed), 8);
    for (int i = 0; i < sizes(o).churn_files; ++i) {
      churn_.push_back("\\churn\\" + tag + "-" + std::to_string(i) + ".dat");
    }
    write_churn();
    engine_ = make_engine(*m_, nullptr);
    session_ = std::make_unique<core::ScanSession>(engine_->open_session());
    (void)session_->rescan();  // prime: the cold-start full walk
  }

  void prepare() override {
    const auto t0 = Clock::now();
    write_churn();
    write_ms_ = ms_between(t0, Clock::now());
  }

  OpOut op(SpanRecorder* rec) override {
    core::ScanSession& s = rec != nullptr ? *traced_session_ : *session_;
    OpOut out = finish(s.rescan(nullptr), rec);
    if (rec != nullptr && out.report.incremental) {
      const core::IncrementalStats& inc = *out.report.incremental;
      const double reparsed = static_cast<double>(inc.records_reparsed);
      const double spliced = static_cast<double>(inc.records_spliced);
      rec->add("ntfs.volume_write_ms", write_ms_);
      rec->add("core.session.records_reparsed", reparsed);
      rec->add("core.session.records_spliced", spliced);
      rec->add("core.session.journal_records",
               static_cast<double>(inc.journal_records));
      if (reparsed + spliced > 0) {
        rec->add("core.session.splice_ratio", spliced / (reparsed + spliced));
      }
    }
    return out;
  }

  std::string check(const OpOut& out) override {
    return first_failure(
        {check_not_degraded(out.report),
         check_hidden_files(out.report, hd_->manifest().hidden_files, "mft"),
         check_no_fallback(out.report),
         same_as_reference(reference_, out.json)});
  }

  void after(SpanRecorder*, const OpOut& out) override {
    last_json_ = out.json;
    if (out.report.incremental && !out.report.incremental->incremental) {
      ++fallbacks_;
    }
  }

  /// A cold scan of the current state must match the last rescan.
  std::string sample_check() override {
    const OpOut cold = engine_op(*m_, core::ScanKind::kInside, nullptr);
    if (!cold.error.empty()) return "cold scan failed: " + cold.error;
    return check_identical(content_only(last_json_), content_only(cold.json),
                           "rescan and cold scan of one state");
  }

  void enter_traced(SpanRecorder& rec) override {
    traced_engine_ = make_engine(*m_, &rec);
    traced_session_ =
        std::make_unique<core::ScanSession>(traced_engine_->open_session());
    (void)traced_session_->rescan();  // prime, outside any operation
  }

  void finish_layers(std::map<std::string, double>& layers) override {
    layers["core.session.fallbacks"] = static_cast<double>(fallbacks_);
  }

  std::size_t ops_per_image() const override { return 5; }

 private:
  /// Same files and same payload length every time, new bytes each time.
  void write_churn() {
    ++generation_;
    char payload[48];
    std::snprintf(payload, sizeof payload, "churn generation %016llx",
                  static_cast<unsigned long long>(generation_));
    for (const std::string& path : churn_) m_->volume().write_file(path, payload);
  }

  std::unique_ptr<machine::Machine> m_;
  std::shared_ptr<malware::HackerDefender> hd_;
  std::unique_ptr<core::ScanEngine> engine_;
  std::unique_ptr<core::ScanSession> session_;
  std::unique_ptr<core::ScanEngine> traced_engine_;
  std::unique_ptr<core::ScanSession> traced_session_;
  std::vector<std::string> churn_;
  std::uint64_t generation_ = 0;
  std::uint64_t fallbacks_ = 0;
  double write_ms_ = 0;
  std::string reference_;
  std::string last_json_;
};

/// outside_dump: the full outside-the-box run on a machine with many
/// processes, one of them hidden by DoubleFu; the machine is booted and
/// repopulated (untimed) after every operation.
class OutsideDump final : public EngineWorkload {
 public:
  void setup(const RunOptions& o) override {
    fu_.reset();
    hd_.reset();
    m_.reset();

    m_ = std::make_unique<machine::Machine>(big_machine(o, 3));
    // Each shutdown would otherwise add AV and restore-point files.
    m_->services().set_enabled(machine::Services::kAvRealtime, false);
    m_->services().set_enabled(machine::Services::kSystemRestore, false);
    hd_ = malware::install_ghostware<malware::HackerDefender>(*m_);
    fu_ = malware::install_ghostware<malware::DoubleFu>(*m_);
    images_.clear();
    const std::string tag = hex(mix(o.seed + 7), 6);
    const int n = sizes(o).processes;
    for (int i = 0; i < n; ++i) {
      images_.push_back("svc" + tag + "x" + std::to_string(i) + ".exe");
    }
    victim_ = static_cast<std::size_t>(mix(o.seed) % images_.size());
    victim_pid_ = spawn_all();
    if (!fu_->hide_process(*m_, victim_pid_)) victim_pid_ = 0;
    victim_key_ = core::process_key(victim_pid_, images_[victim_]);
  }

  OpOut op(SpanRecorder* rec) override {
    return engine_op(*m_, core::ScanKind::kOutside, rec);
  }

  std::string check(const OpOut& out) override {
    return first_failure(
        {check_not_degraded(out.report),
         check_hidden_files(out.report, hd_->manifest().hidden_files, "disk"),
         check_carve_only(out.report, victim_key_),
         same_as_reference(reference_, out.json)});
  }

  /// Boots the halted machine back into the same state: the ghostware
  /// restarts from its ASEP hooks, the processes are respawned in the
  /// same order (so with the same pids), and the victim is unlinked
  /// again for the scrubber, which still targets its pid.
  void after(SpanRecorder*, const OpOut&) override {
    if (m_->running()) m_->shutdown();
    m_->boot();
    const kernel::Pid pid = spawn_all();
    m_->kernel().dkom_unlink(pid);
    m_->kernel().dkom_unlink_threads(pid);
  }

  std::size_t ops_per_image() const override { return 6; }

 private:
  /// Spawns every image; returns the victim's pid.
  kernel::Pid spawn_all() {
    kernel::Pid victim = 0;
    for (std::size_t i = 0; i < images_.size(); ++i) {
      const kernel::Pid pid =
          m_->spawn_process("C:\\windows\\system32\\" + images_[i]).pid();
      if (i == victim_) victim = pid;
    }
    return victim;
  }

  std::unique_ptr<machine::Machine> m_;
  std::shared_ptr<malware::HackerDefender> hd_;
  std::shared_ptr<malware::DoubleFu> fu_;
  std::vector<std::string> images_;
  std::size_t victim_ = 0;
  kernel::Pid victim_pid_ = 0;
  std::string victim_key_;
  std::string reference_;
};

template <class W>
Result run_engine(const RunOptions& o) {
  W w;
  return run_engine_workload(w, o);
}

// --- fleet_daemon -----------------------------------------------------------

constexpr std::size_t kConnections = 2;

/// Builds fleet machine `i` of the seed; HackerDefender on every third.
std::unique_ptr<machine::Machine> fleet_machine(
    const RunOptions& o, std::size_t i,
    std::shared_ptr<malware::HackerDefender>* hd = nullptr) {
  machine::MachineConfig cfg;
  cfg.seed = mix(o.seed * 1000 + i);
  cfg.disk_sectors = 32 * 1024;  // 16 MiB
  cfg.mft_records = 2048;
  cfg.synthetic_files = 24;
  cfg.synthetic_registry_keys = 12;
  auto m = std::make_unique<machine::Machine>(cfg);
  if (i % 3 == 2) {
    auto installed = malware::install_ghostware<malware::HackerDefender>(*m);
    if (hd != nullptr) *hd = std::move(installed);
  }
  return m;
}

/// What every daemon report of each fleet machine must equal: the
/// content_only() report of a direct engine run under the daemon's job
/// config, on a machine built from the same seed. Computed once per run,
/// outside any set-up timer, so every re-imaged fleet is checked against
/// the same reports; each reference is checked for its ghostware or for
/// being clean.
std::vector<std::string> fleet_references(const RunOptions& o,
                                          std::size_t fleet, Result& r) {
  std::vector<std::string> refs;
  for (std::size_t i = 0; i < fleet; ++i) {
    std::shared_ptr<malware::HackerDefender> hd;
    const auto m = fleet_machine(o, i, &hd);
    obs::MetricsRegistry registry;
    core::ScanConfig cfg = daemon::JobRequest{}.to_scan_config();
    cfg.parallelism = 1;
    cfg.metrics = &registry;
    auto ref = core::ScanEngine(*m, cfg).run(core::JobSpec{});
    if (!ref.ok()) {
      r.check("reference scan of FLEET-" + std::to_string(i) + ": " +
              ref.status().to_string());
      refs.emplace_back();
      continue;
    }
    r.check(first_failure(
        {check_not_degraded(*ref),
         hd ? check_hidden_files(*ref, hd->manifest().hidden_files, "mft")
            : check_clean(*ref)}));
    refs.push_back(content_only(ref->to_json()));
  }
  return refs;
}

struct Box {
  std::string id;
  std::string tenant;
  std::unique_ptr<machine::Machine> m;
  const std::string* reference = nullptr;  // from fleet_references()
};

struct FleetJob {
  double latency_ms = 0;
  double submit_ms = 0;
  double queue_ms = 0;
  double run_ms = 0;
  std::size_t bytes = 0;
};

struct ConnStats {
  std::vector<FleetJob> jobs;
  std::vector<Span> spans;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
};

/// One connection's closed loop: one job outstanding per owned machine,
/// each machine resubmitted as soon as its result is collected, until the
/// deadline; then the outstanding jobs drain. Results are collected in
/// completion order: a sweep polls every outstanding job, and only when
/// none has finished does the loop block, on the oldest. A DaemonClient
/// serializes its RPCs, so a job that finishes during that blocking wait
/// is collected by the sweep right after it returns.
void drive(client::DaemonClient& c, const std::vector<Box*>& mine,
           Clock::time_point epoch, Clock::time_point deadline,
           bool record_spans, ConnStats& st) {
  const std::size_t n = mine.size();
  std::vector<client::JobHandle> handle(n);
  std::vector<Clock::time_point> sent(n);
  std::vector<double> submit_ms(n, 0);
  std::vector<bool> live(n, false);
  auto fail = [&](std::string why) {
    ++st.failed;
    if (st.failures.size() < 5) st.failures.push_back(std::move(why));
  };
  auto submit = [&](std::size_t i) {
    client::JobSpec spec;
    spec.machine_id = mine[i]->id;
    spec.tenant = mine[i]->tenant;
    sent[i] = Clock::now();
    auto h = c.submit(spec);
    submit_ms[i] = ms_between(sent[i], Clock::now());
    if (!h.ok()) {
      ++st.attempted;
      if (h.status().code() == support::StatusCode::kResourceExhausted) {
        ++st.rejected;
      }
      fail("submit " + mine[i]->id + ": " + h.status().to_string());
      return;
    }
    handle[i] = *h;
    live[i] = true;
  };
  // Job i's result has arrived: resubmit its machine first, then check
  // and record the collected job.
  auto take = [&](std::size_t i, Clock::time_point wait_start) {
    const auto done = Clock::now();
    client::JobHandle h = std::move(handle[i]);
    const auto job_sent = sent[i];
    const double job_submit_ms = submit_ms[i];
    live[i] = false;
    if (done < deadline) submit(i);

    const client::JobResult& res = h.wait();  // cached: returns at once
    ++st.attempted;
    const std::string why =
        !res.status.ok()
            ? mine[i]->id + ": " + res.status.to_string()
            : check_identical(content_only(res.report_json),
                              *mine[i]->reference,
                              "daemon report and direct engine report");
    if (!why.empty()) {
      fail(why);
    } else {
      FleetJob job;
      job.latency_ms = ms_between(job_sent, done);
      job.submit_ms = job_submit_ms;
      job.queue_ms = json_number(res.report_json, "queue_seconds") * 1e3;
      job.run_ms = json_number(res.report_json, "wall_seconds") * 1e3;
      job.bytes = res.report_json.size();
      st.jobs.push_back(job);
    }
    if (record_spans) {
      const std::uint64_t id = h.id();
      const long root = static_cast<long>(st.spans.size());
      st.spans.push_back(Span{"client.job", id, -1, ms_between(epoch, job_sent),
                              ms_between(epoch, done), {}});
      st.spans.push_back(Span{"client.submit", id, root,
                              ms_between(epoch, job_sent),
                              ms_between(epoch, job_sent) + job_submit_ms, {}});
      st.spans.push_back(Span{"client.wait", id, root,
                              ms_between(epoch, wait_start),
                              ms_between(epoch, done), {}});
    }
  };

  for (std::size_t i = 0; i < n; ++i) submit(i);
  while (std::find(live.begin(), live.end(), true) != live.end()) {
    bool collected = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (!live[i]) continue;
      const auto poll_start = Clock::now();
      if (handle[i].try_result() != nullptr) {
        take(i, poll_start);
        collected = true;
      }
    }
    if (collected) continue;
    std::size_t oldest = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (live[i] && (oldest == n || sent[i] < sent[oldest])) oldest = i;
    }
    const auto wait_start = Clock::now();
    (void)handle[oldest].wait();
    take(oldest, wait_start);
  }
}

/// Fleet machines, daemon and client connections of one set-up.
class FleetRig {
 public:
  FleetRig() = default;
  FleetRig(const FleetRig&) = delete;
  FleetRig& operator=(const FleetRig&) = delete;
  ~FleetRig() { teardown(); }

  void teardown() {
    clients_.clear();  // hang up before the daemon's graceful drain
    daemon_.reset();
    if (!journal_.empty()) {
      std::error_code ec;
      std::filesystem::remove(journal_, ec);
      std::filesystem::remove(journal_ + ".events", ec);
    }
    boxes_.clear();
  }

  void setup(const RunOptions& o, const std::vector<std::string>& references,
             int generation, Result& r) {
    teardown();
    for (std::size_t i = 0; i < references.size(); ++i) {
      Box box;
      box.id = "FLEET-" + std::to_string(i);
      box.tenant = "tenant-" + std::to_string(i % 3);
      box.m = fleet_machine(o, i);
      box.reference = &references[i];
      boxes_.push_back(std::move(box));
    }

    journal_ = (std::filesystem::path(o.workdir) /
                ("fleet-" + std::to_string(o.seed) + "-" + std::to_string(generation) +
                 ".gbj"))
                   .string();
    std::error_code ec;
    std::filesystem::remove(journal_, ec);
    std::filesystem::remove(journal_ + ".events", ec);
    daemon::DaemonOptions opts;
    opts.journal_path = journal_;
    opts.shards = 2;
    opts.workers_per_shard = 2;
    opts.resolve_machine = [this](const std::string& id) -> machine::Machine* {
      for (Box& b : boxes_) {
        if (b.id == id) return b.m.get();
      }
      return nullptr;
    };
    auto up = daemon::Daemon::start(std::move(opts));
    if (!up.ok()) {
      r.check("daemon start: " + up.status().to_string());
      return;
    }
    daemon_ = std::move(up).value();
    owned_.assign(kConnections, {});
    for (std::size_t c = 0; c < kConnections; ++c) {
      daemon::PipePair pipe = daemon::make_pipe();
      daemon_->serve(pipe.server);
      clients_.push_back(std::make_unique<client::DaemonClient>(pipe.client));
    }
    for (std::size_t i = 0; i < boxes_.size(); ++i) {
      owned_[i % kConnections].push_back(&boxes_[i]);
    }
  }

  bool up() const { return daemon_ != nullptr; }

  /// One closed-loop phase over every connection; returns its wall and
  /// CPU seconds.
  std::pair<double, double> run_phase(double seconds, bool record_spans,
                                      std::vector<ConnStats>& stats) {
    stats.assign(kConnections, {});
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    {
      std::vector<std::jthread> threads;
      for (std::size_t c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
          drive(*clients_[c], owned_[c], t0, deadline, record_spans, stats[c]);
        });
      }
    }
    return {seconds_since(t0), cpu_seconds() - cpu0};
  }

  std::uintmax_t journal_bytes() const {
    std::error_code ec;
    const auto n = std::filesystem::file_size(journal_, ec);
    return ec ? 0 : n;
  }

 private:
  std::vector<Box> boxes_;  // outlives the daemon that scans them
  std::unique_ptr<daemon::Daemon> daemon_;
  std::vector<std::unique_ptr<client::DaemonClient>> clients_;
  std::vector<std::vector<Box*>> owned_;
  std::string journal_;
};

/// Folds per-connection outcomes into the run's counters.
std::vector<FleetJob> collect(const std::vector<ConnStats>& stats, Result& r,
                              std::uint64_t& rejected) {
  std::vector<FleetJob> jobs;
  for (const ConnStats& s : stats) {
    r.attempted += s.attempted;
    r.failed += s.failed;
    rejected += s.rejected;
    for (const std::string& f : s.failures) {
      if (r.failures.size() < 5) r.failures.push_back(f);
    }
    jobs.insert(jobs.end(), s.jobs.begin(), s.jobs.end());
  }
  return jobs;
}

/// Measured seconds between two re-images of the fleet rig.
constexpr double kFleetSegmentSeconds = 1.5;

struct FleetPhase {
  std::vector<FleetJob> jobs;
  std::vector<Span> spans;
  double wall_s = 0;
  double cpu_s = 0;
  std::uintmax_t journal_growth = 0;
};

/// Rebuilds the fleet and its daemon (untimed) and warms them up with
/// one job per machine; each such set-up is one sample of setup_s.
bool reimage_fleet(FleetRig& rig, const RunOptions& o,
                   const std::vector<std::string>& references, int generation,
                   Result& r, std::uint64_t& rejected) {
  const auto t0 = Clock::now();
  rig.setup(o, references, generation, r);
  if (!rig.up()) return false;
  std::vector<ConnStats> warm;
  rig.run_phase(0, false, warm);
  (void)collect(warm, r, rejected);
  r.setup_s.push_back(seconds_since(t0));
  return true;
}

/// Throughput differs by up to a tenth between two builds of the same
/// fleet, so a phase runs in segments, each on a freshly built rig.
bool fleet_phase(FleetRig& rig, const RunOptions& o,
                 const std::vector<std::string>& references, double seconds,
                 bool record_spans, int& generation, Result& r,
                 std::uint64_t& rejected, FleetPhase& p) {
  const int segments =
      o.tiny ? 2
             : std::max(1, static_cast<int>(seconds / kFleetSegmentSeconds));
  for (int s = 0; s < segments; ++s) {
    if (s > 0 &&
        !reimage_fleet(rig, o, references, ++generation, r, rejected)) {
      return false;
    }
    std::vector<ConnStats> stats;
    const std::uintmax_t before = rig.journal_bytes();
    const auto [wall, cpu] =
        rig.run_phase(seconds / segments, record_spans, stats);
    p.journal_growth += rig.journal_bytes() - before;
    p.wall_s += wall;
    p.cpu_s += cpu;
    for (const FleetJob& j : collect(stats, r, rejected)) p.jobs.push_back(j);
    for (const ConnStats& c : stats) {
      p.spans.insert(p.spans.end(), c.spans.begin(), c.spans.end());
    }
  }
  return true;
}

Result run_fleet(const RunOptions& o) {
  const Sizes z = sizes(o);
  Result r;
  const std::vector<std::string> references = fleet_references(o, z.fleet, r);
  FleetRig rig;
  std::uint64_t rejected = 0;
  int generation = 0;
  for (; generation < z.setup_reps; ++generation) {
    if (!reimage_fleet(rig, o, references, generation, r, rejected)) return r;
  }

  FleetPhase plain;
  const double untraced_s = o.trace ? o.seconds / 2 : o.seconds;
  if (!fleet_phase(rig, o, references, untraced_s, false, generation, r,
                   rejected, plain)) {
    return r;
  }
  for (const FleetJob& j : plain.jobs) r.latency_ms.push_back(j.latency_ms);
  r.ok = plain.jobs.size();
  r.phase_wall_s = plain.wall_s;
  r.phase_cpu_s = plain.cpu_s;
  if (!o.trace) return r;

  FleetPhase traced;
  if (!reimage_fleet(rig, o, references, ++generation, r, rejected) ||
      !fleet_phase(rig, o, references, o.seconds / 2, true, generation, r,
                   rejected, traced)) {
    return r;
  }
  std::vector<double> queue, run, serving, submit, bytes;
  double total_bytes = 0;
  for (const FleetJob& j : traced.jobs) {
    r.traced_latency_ms.push_back(j.latency_ms);
    queue.push_back(j.queue_ms);
    run.push_back(j.run_ms);
    serving.push_back(j.latency_ms - j.queue_ms - j.run_ms);
    submit.push_back(j.submit_ms);
    bytes.push_back(static_cast<double>(j.bytes));
    total_bytes += static_cast<double>(j.bytes);
  }
  const double n = std::max<double>(1, static_cast<double>(traced.jobs.size()));
  r.layers["core.scheduler.queue_wait_ms_p50"] = median(queue);
  r.layers["core.engine.run_ms_p50"] = median(run);
  r.layers["daemon.serving_ms_p50"] = median(serving);
  r.layers["daemon.submit_rpc_ms_p50"] = median(submit);
  r.layers["daemon.journal_bytes_per_job"] =
      static_cast<double>(traced.journal_growth) / n;
  r.layers["daemon.result_bytes_per_job"] = total_bytes / n;
  r.layers["daemon.rejected"] = static_cast<double>(rejected);
  r.layers["core.report.bytes"] = median(bytes);
  r.spans_jsonl = spans_jsonl(traced.spans);
  return r;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"inside_cold", run_engine<InsideCold>},
      {"rescan_churn", run_engine<RescanChurn>},
      {"fleet_daemon", run_fleet},
      {"outside_dump", run_engine<OutsideDump>},
  };
  return all;
}

}  // namespace gbbench
