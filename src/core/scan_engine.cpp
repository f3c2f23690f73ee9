#include "core/scan_engine.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "core/scan_session.h"
#include "obs/trace.h"
#include "support/strings.h"

namespace gb::core {

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

std::size_t pool_workers(std::size_t parallelism) {
  if (parallelism == 0) {
    parallelism =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  return parallelism - 1;  // the calling thread is the other executor
}

std::string json_id_array(const std::vector<std::string>& ids) {
  std::string out = "[";
  for (const auto& id : ids) {
    if (out.size() > 1) out += ',';
    out += json_quote(id);
  }
  return out + ']';
}

bool cancelled(const JobSpec& job) {
  return job.cancel != nullptr && job.cancel->cancelled();
}

using ViewDefs = std::vector<std::vector<ResourceScanner::ViewDef>>;

/// "scan.<type>.<view>": the span every view task runs under.
std::string view_span(const ResourceScanner& scanner, std::string_view view) {
  return std::string("scan.") + resource_type_name(scanner.type()) + "." +
         std::string(view);
}

/// One task of a scan phase: the provider slot whose outcomes it joins,
/// the view it produces, its span, and the work itself.
template <typename R>
struct ViewTask {
  std::size_t slot = 0;
  std::string id;
  TrustLevel trust = TrustLevel::kTruthApproximation;
  std::string span;
  std::function<support::StatusOr<R>()> run{};
  /// Scanning process, recorded on the span (injected sweeps only).
  std::string image{};
};

/// One executed task: its view identity, outcome and wall time.
template <typename R>
struct ViewOutcome {
  std::string id;
  TrustLevel trust = TrustLevel::kTruthApproximation;
  support::StatusOr<R> result;
  double wall = 0;
};

/// Outcomes grouped by provider slot, each slot in task order.
template <typename R>
using Outcomes = std::vector<std::vector<ViewOutcome<R>>>;

/// The one task body of every scan phase. Runs `tasks` in a single
/// parallel_for, each under its span and timed; a task that throws
/// degrades its own view instead of taking down the worker or the
/// session. A raised token discards the whole phase: some views may be
/// missing or half-collected, and a torn report must never pass for a
/// merely degraded one.
template <typename R>
support::StatusOr<Outcomes<R>> run_tasks(support::ThreadPool& pool,
                                         const JobSpec& job, std::size_t slots,
                                         const std::vector<ViewTask<R>>& tasks,
                                         std::string_view what) {
  Outcomes<R> out(slots);
  std::vector<std::size_t> index(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    auto& slot = out[tasks[i].slot];
    index[i] = slot.size();
    slot.push_back(ViewOutcome<R>{tasks[i].id, tasks[i].trust, {}, 0});
  }
  if (job.progress != nullptr) {
    job.progress->total.fetch_add(static_cast<std::uint32_t>(tasks.size()));
  }
  pool.parallel_for(
      tasks.size(),
      [&](std::size_t i) {
        const ViewTask<R>& task = tasks[i];
        ViewOutcome<R>& o = out[task.slot][index[i]];
        auto span = obs::default_tracer().span(task.span, "provider");
        if (!task.image.empty()) span.arg("image", task.image);
        const auto start = SteadyClock::now();
        try {
          o.result = task.run();
        } catch (const std::exception& e) {
          o.result = support::Status::internal(e.what());
        }
        o.wall = seconds_since(start);
        if (job.progress != nullptr) job.progress->done.fetch_add(1);
      },
      job.cancel);
  if (cancelled(job)) {
    return support::Status::cancelled(std::string(what) + " cancelled");
  }
  return out;
}

/// Appends provider slot `slot`'s tasks: its API view from `api_ctx`'s
/// process (when given), then each of `defs` over `src` (null in the
/// live phase), spanned "scan.<type>.<prefix><id>".
void add_view_tasks(std::vector<ViewTask<ScanResult>>& tasks,
                    std::size_t slot, const ResourceScanner& scanner,
                    const ScanTaskContext& t, const winapi::Ctx* api_ctx,
                    std::vector<ResourceScanner::ViewDef> defs,
                    const OutsideSources* src = nullptr,
                    std::string_view prefix = "") {
  if (api_ctx != nullptr) {
    tasks.push_back({slot, kApiViewId, TrustLevel::kApiView,
                     view_span(scanner, "high"), [&scanner, &t, api_ctx] {
                       return scanner.high_scan(t, *api_ctx);
                     }});
  }
  for (auto& def : defs) {
    tasks.push_back({slot, def.id, def.trust,
                     view_span(scanner, std::string(prefix) + def.id),
                     [run = std::move(def.run), &t, src] {
                       return run(t, src);
                     }});
  }
}

ViewInput view_input(const std::string& id, TrustLevel trust,
                     const support::StatusOr<ScanResult>& result) {
  return result.ok() ? ViewInput{id, trust, &*result, {}}
                     : ViewInput{id, trust, nullptr, result.status()};
}

/// Charges views to the run's tally — each one a scan attempted, each
/// failure a scan failure — and returns the work of those that completed.
machine::ScanWork charge(std::span<const ViewInput> views,
                         Report::Metrics& tally) {
  machine::ScanWork work;
  for (const auto& v : views) {
    if (v.ok()) {
      work += v.result->work;
    } else {
      ++tally.scan_failures;
    }
  }
  tally.provider_scans += views.size();
  return work;
}

/// The one diff reduction: one provider's API view plus its trusted view
/// outcomes through the provider's diff policy. Failed views pass through
/// as failed ViewInputs — the matrix differ degrades per view, so the
/// surviving views still yield findings. Simulated time charges the work
/// of every completed view; wall time sums the views' tasks (`api_wall`
/// is 0 when the API view was captured in an earlier phase) and the diff.
DiffReport diff_views(const ResourceScanner& scanner, const ScanTaskContext& t,
                      const support::StatusOr<ScanResult>& api, double api_wall,
                      std::span<const ViewOutcome<ScanResult>> trusted,
                      Report::Metrics& tally) {
  std::vector<ViewInput> inputs{
      view_input(kApiViewId, TrustLevel::kApiView, api)};
  double wall = api_wall;
  for (const auto& o : trusted) {
    inputs.push_back(view_input(o.id, o.trust, o.result));
    wall += o.wall;
  }
  const machine::ScanWork work = charge(inputs, tally);
  auto span = obs::default_tracer().span(
      std::string("diff.") + resource_type_name(scanner.type()), "diff");
  const auto start = SteadyClock::now();
  DiffReport d = scanner.diff(t, inputs);
  d.simulated_seconds = estimate_seconds(t.machine.config().profile, work);
  d.wall_seconds = wall + seconds_since(start);
  return d;
}

/// One process's API view in an injected sweep, already diffed against
/// the provider's trusted snapshots: all the reduction keeps of it.
struct InjectedScan {
  std::vector<Finding> hidden;
  std::size_t high_count = 0;
  machine::ScanWork work;
};

/// The injected reduction for one provider. The differ builds the header
/// over the trusted rows; the API row stands for every per-process scan
/// (largest count, first failure in pid order) and the findings are
/// their union — pid-major, first finding per key wins, so the result is
/// the serial per-process loop's whichever worker ran which scan.
DiffReport injected_diff(const ResourceScanner& scanner,
                         const ScanTaskContext& t,
                         std::span<const ViewInput> trusted_rows,
                         const std::vector<ViewOutcome<ScanResult>>& trusted,
                         std::vector<ViewOutcome<InjectedScan>>& scans,
                         Report::Metrics& tally) {
  ViewSummary api;
  api.id = kApiViewId;
  api.name = "injected scans (all processes)";
  api.trust = TrustLevel::kApiView;
  machine::ScanWork work = charge(trusted_rows, tally);
  double wall = 0;
  for (const auto& o : trusted) wall += o.wall;
  std::map<std::string, Finding> hidden;
  for (auto& o : scans) {
    wall += o.wall;
    if (!o.result.ok()) {
      ++tally.scan_failures;
      if (api.status.ok()) api.status = o.result.status();
      continue;
    }
    api.count = std::max(api.count, o.result->high_count);
    work += o.result->work;
    for (auto& f : o.result->hidden) {
      hidden.try_emplace(f.resource.key, std::move(f));
    }
  }
  tally.provider_scans += scans.size();
  DiffReport d =
      cross_view_header(scanner.type(), std::move(api), trusted_rows);
  for (auto& [key, f] : hidden) d.hidden.push_back(std::move(f));
  d.simulated_seconds = estimate_seconds(t.machine.config().profile, work);
  d.wall_seconds = wall;
  return d;
}

}  // namespace

bool Report::infection_detected() const {
  for (const auto& d : diffs) {
    if (!d.hidden.empty()) return true;
  }
  return false;
}

bool Report::degraded() const {
  for (const auto& d : diffs) {
    if (d.degraded()) return true;
  }
  return false;
}

std::size_t Report::hidden_count(ResourceType type) const {
  std::size_t n = 0;
  for (const auto& d : diffs) {
    if (d.type == type) n += d.hidden.size();
  }
  return n;
}

std::vector<Finding> Report::all_hidden() const {
  std::vector<Finding> out;
  for (const auto& d : diffs) {
    out.insert(out.end(), d.hidden.begin(), d.hidden.end());
  }
  return out;
}

const DiffReport* Report::diff_for(ResourceType type) const {
  for (const auto& d : diffs) {
    if (d.type == type) return &d;
  }
  return nullptr;
}

std::string Report::to_string() const {
  std::ostringstream os;
  os << "=== Strider GhostBuster report ===\n";
  for (const auto& d : diffs) {
    os << "[" << resource_type_name(d.type) << "] " << d.high_view << " ("
       << d.high_count << ") vs " << d.low_view << " (" << d.low_count
       << ", " << trust_level_name(d.low_trust) << ")\n";
    // The N-view matrix behind the pairwise line above, when there is
    // more to it than that pair.
    if (d.views.size() > 2) {
      for (const auto& v : d.views) {
        os << "  view " << v.id << ": " << v.name << " (" << v.count << ")";
        if (v.degraded()) os << " DEGRADED: " << v.status.to_string();
        os << "\n";
      }
    }
    if (d.degraded()) {
      os << "  DEGRADED: " << d.status.to_string() << "\n";
      if (d.hidden.empty() && d.extra.empty()) continue;
    }
    for (const auto& f : d.hidden) {
      os << "  HIDDEN: " << f.resource.display;
      if (!f.found_in.empty()) {
        os << " [in:";
        for (const auto& id : f.found_in) os << ' ' << id;
        os << "]";
      }
      os << "\n";
    }
    for (const auto& f : d.extra) {
      os << "  extra-in-api-view: " << f.resource.display << "\n";
    }
    if (!d.degraded() && d.clean()) os << "  (no discrepancies)\n";
  }
  os << (infection_detected() ? ">>> hidden resources detected"
                              : ">>> machine appears clean");
  if (degraded()) os << " (PARTIAL: some resource types degraded)";
  os << "\n";
  return os.str();
}

std::string Report::to_json() const {
  std::ostringstream os;
  os << "{\"schema_version\":\"2.5\""
     << ",\"infected\":" << (infection_detected() ? "true" : "false")
     << ",\"degraded\":" << (degraded() ? "true" : "false")
     << ",\"simulated_seconds\":" << total_simulated_seconds
     << ",\"wall_seconds\":" << total_wall_seconds
     << ",\"worker_threads\":" << worker_threads << ",\"scheduler\":";
  if (scheduler) {
    os << "{\"tenant\":" << json_quote(scheduler->tenant)
       << ",\"job_id\":" << scheduler->job_id
       << ",\"priority\":" << scheduler->priority
       << ",\"queue_seconds\":" << scheduler->queue_seconds << '}';
  } else {
    os << "null";
  }
  os << ",\"metrics\":";
  if (metrics) {
    os << "{\"provider_scans\":" << metrics->provider_scans
       << ",\"scan_failures\":" << metrics->scan_failures
       << ",\"degraded_diffs\":" << metrics->degraded_diffs
       << ",\"hidden_resources\":" << metrics->hidden_resources
       << ",\"extra_resources\":" << metrics->extra_resources << '}';
  } else {
    os << "null";
  }
  os << ",\"incremental\":";
  if (incremental) {
    os << "{\"incremental\":" << (incremental->incremental ? "true" : "false")
       << ",\"fallback_reason\":" << json_quote(incremental->fallback_reason)
       << ",\"journal_id\":" << incremental->journal_id
       << ",\"cursor\":" << incremental->cursor
       << ",\"journal_records\":" << incremental->journal_records
       << ",\"records_reparsed\":" << incremental->records_reparsed
       << ",\"records_spliced\":" << incremental->records_spliced << '}';
  } else {
    os << "null";
  }
  os << ",\"diffs\":[";
  bool first_diff = true;
  for (const auto& d : diffs) {
    if (!first_diff) os << ',';
    first_diff = false;
    os << "{\"type\":" << json_quote(resource_type_name(d.type))
       << ",\"status\":" << (d.degraded() ? "\"degraded\"" : "\"ok\"")
       << ",\"degraded\":" << (d.degraded() ? "true" : "false")
       << ",\"error\":" << json_quote(d.degraded() ? d.status.to_string() : "")
       << ",\"views\":[";
    bool first_view = true;
    for (const auto& v : d.views) {
      if (!first_view) os << ',';
      first_view = false;
      os << "{\"id\":" << json_quote(v.id)
         << ",\"name\":" << json_quote(v.name)
         << ",\"trust\":" << json_quote(trust_level_name(v.trust))
         << ",\"count\":" << v.count
         << ",\"status\":" << (v.degraded() ? "\"degraded\"" : "\"ok\"")
         << ",\"degraded\":" << (v.degraded() ? "true" : "false")
         << ",\"error\":"
         << json_quote(v.degraded() ? v.status.to_string() : "") << '}';
    }
    os << "],\"high_view\":" << json_quote(d.high_view)
       << ",\"low_view\":" << json_quote(d.low_view)
       << ",\"trust\":" << json_quote(trust_level_name(d.low_trust))
       << ",\"high_count\":" << d.high_count
       << ",\"low_count\":" << d.low_count
       << ",\"simulated_seconds\":" << d.simulated_seconds
       << ",\"wall_seconds\":" << d.wall_seconds << ",\"hidden\":[";
    bool first = true;
    for (const auto& f : d.hidden) {
      if (!first) os << ',';
      first = false;
      os << "{\"key\":" << json_quote(f.resource.key)
         << ",\"display\":" << json_quote(f.resource.display)
         << ",\"found_in\":" << json_id_array(f.found_in)
         << ",\"missing_from\":" << json_id_array(f.missing_from) << '}';
    }
    os << "],\"extra_count\":" << d.extra.size() << '}';
  }
  os << "]}";
  return os.str();
}

std::string normalize_report_json(std::string_view json,
                                  bool drop_incremental) {
  std::string out(json);
  // Each value runs over the characters a number, as to_json prints it,
  // can hold.
  for (const std::string_view key :
       {"\"wall_seconds\":", "\"queue_seconds\":", "\"worker_threads\":"}) {
    for (auto at = out.find(key); at != std::string::npos;
         at = out.find(key, at + 1)) {
      const std::size_t value = at + key.size();
      const std::size_t end =
          std::min(out.find_first_not_of("0123456789eE+-.", value), out.size());
      if (end > value) out.replace(value, end - value, "0");
    }
  }
  // A flat object: the first closing brace ends it (one holding a
  // nested object is left as it is).
  constexpr std::string_view kIncremental = "\"incremental\":{";
  for (auto at = drop_incremental ? out.find(kIncremental) : std::string::npos;
       at != std::string::npos; at = out.find(kIncremental, at + 1)) {
    const std::size_t open = at + kIncremental.size() - 1;
    const std::size_t close = out.find_first_of("{}", open + 1);
    if (close != std::string::npos && out[close] == '}') {
      out.replace(open, close + 1 - open, "null");
    }
  }
  return out;
}

ScanEngine::ScanEngine(machine::Machine& m, ScanConfig cfg)
    : machine_(m),
      cfg_(std::move(cfg)),
      pool_(pool_workers(cfg_.parallelism)),
      scanners_(default_scanners(cfg_.resources)) {
  if (cfg_.collect_metrics) {
    registry_ = cfg_.metrics != nullptr ? cfg_.metrics
                                        : &obs::default_registry();
    pool_.instrument(*registry_);
  }
}

void ScanEngine::register_scanner(std::unique_ptr<ResourceScanner> scanner) {
  scanners_.push_back(std::move(scanner));
}

winapi::Ctx ScanEngine::scanner_context() {
  const std::string image_path =
      "C:\\windows\\system32\\" + cfg_.scanner_image;
  const kernel::Pid pid = machine_.ensure_process(image_path);
  return machine_.context_for(pid);
}

void ScanEngine::finalize(Report& report, double wall_seconds,
                          const char* kind, const Report::Metrics& tally) {
  for (auto& d : report.diffs) {
    report.total_simulated_seconds += d.simulated_seconds;
  }
  report.total_wall_seconds = wall_seconds;
  report.worker_threads = worker_count();
  machine_.clock().advance(
      VirtualClock::seconds(report.total_simulated_seconds));

  if (registry_ == nullptr) return;
  // The report block holds only deterministic quantities (counts and
  // simulated time); wall-clock observations go to the registry, which
  // never feeds back into report bytes.
  Report::Metrics m = tally;
  for (const auto& d : report.diffs) {
    if (d.degraded()) ++m.degraded_diffs;
    m.hidden_resources += d.hidden.size();
    m.extra_resources += d.extra.size();
  }
  report.metrics = m;

  obs::MetricsRegistry& reg = *registry_;
  reg.set_help("gb_engine_runs_total", "Engine runs by scan kind");
  reg.set_help("gb_engine_hidden_resources_total",
               "Hidden resources detected across runs");
  reg.set_help("gb_engine_run_seconds", "Wall-clock time of one engine run");
  reg.counter("gb_engine_runs_total", {{"kind", kind}}).inc();
  reg.counter("gb_engine_provider_scans_total")
      .add(static_cast<double>(m.provider_scans));
  reg.counter("gb_engine_scan_failures_total")
      .add(static_cast<double>(m.scan_failures));
  reg.counter("gb_engine_degraded_diffs_total")
      .add(static_cast<double>(m.degraded_diffs));
  reg.counter("gb_engine_hidden_resources_total")
      .add(static_cast<double>(m.hidden_resources));
  reg.counter("gb_engine_simulated_seconds_total")
      .add(report.total_simulated_seconds);
  reg.histogram("gb_engine_run_seconds", obs::default_latency_buckets())
      .observe(wall_seconds);
}

void ScanEngine::flush_hives_if_needed() {
  if (!cfg_.registry.flush_hives_first) return;
  for (const auto& s : scanners_) {
    if (s->type() == ResourceType::kAsepHook) {
      machine_.flush_registry();  // serial pre-phase: no writes mid-scan
      return;
    }
  }
}

ViewDefs ScanEngine::live_views() const {
  ViewDefs defs;
  for (const auto& s : scanners_) {
    defs.push_back(s->trusted_views(ScanPhase::kLive, cfg_));
  }
  return defs;
}

ScanTaskContext ScanEngine::live_context(
    const ViewDefs& defs, internal::SessionState* session,
    std::optional<internal::SessionState>& cold) {
  ScanTaskContext tctx{machine_, &pool_, cfg_};
  // A cold scan is a sync from an empty state; a session syncs its own.
  // Serial, after the flush (so the flush's journal records are replayed
  // into a session's image) and before any task (so the image never
  // changes mid-scan).
  const bool reads_mft = std::ranges::any_of(defs, [](const auto& views) {
    return std::ranges::any_of(views, &ResourceScanner::ViewDef::reads_mft);
  });
  internal::SessionState* state = session;
  if (state == nullptr && reads_mft) state = &cold.emplace();
  if (state == nullptr) return tctx;
  sync_session(machine_, *state, &pool_);
  tctx.mft = &state->mft;
  return tctx;
}

support::StatusOr<Report> ScanEngine::run(const JobSpec& spec) {
  // Direct engine use joins the caller's trace here. The scheduler path
  // leaves spec.trace invalid on the inner run spec — its dispatcher
  // already installed the job context, and re-installing the root here
  // would detach the engine spans from their sched.job parent.
  std::optional<obs::TraceContextScope> trace_scope;
  if (spec.trace.valid()) trace_scope.emplace(spec.trace);
  if (spec.session != nullptr) {
    // Incremental re-scan: the session's own engine (and MFT image)
    // does the work; this engine's machine/config are not involved. Same
    // contract as ScanScheduler::submit — only the inside scan has an
    // incremental form, so any other kind is a caller error rather than
    // a silently ignored field.
    if (spec.kind != ScanKind::kInside) {
      return support::Status::failed_precondition(
          "JobSpec.session requires kind == kInside");
    }
    return spec.session->rescan(spec.cancel, spec.progress);
  }
  switch (spec.kind) {
    case ScanKind::kInside: return run_inside(spec);
    case ScanKind::kInjected: return run_injected(spec);
    case ScanKind::kOutside: return run_outside(spec);
  }
  return support::Status::internal("unknown scan kind");
}

ScanSession ScanEngine::open_session(SessionSpec spec) {
  return ScanSession(*this, spec);
}

InsideCapture ScanEngine::capture_inside_high() { return capture(JobSpec{}); }

Report ScanEngine::outside_diff(const InsideCapture& capture) {
  return diff_capture(capture, JobSpec{}).value();
}

support::StatusOr<Report> ScanEngine::run_inside(
    const JobSpec& job, internal::SessionState* session) {
  if (cancelled(job)) {
    return support::Status::cancelled("inside scan cancelled before start");
  }
  const auto t0 = SteadyClock::now();
  auto run_span = obs::default_tracer().span("engine.inside", "engine");
  const auto ctx = scanner_context();
  flush_hives_if_needed();
  ViewDefs live = live_views();
  std::optional<internal::SessionState> cold;
  ScanTaskContext tctx = live_context(live, session, cold);

  // One task per view: each provider's API view, then its live trusted
  // views; the high file walk fans out further internally.
  std::vector<ViewTask<ScanResult>> tasks;
  for (std::size_t s = 0; s < scanners_.size(); ++s) {
    add_view_tasks(tasks, s, *scanners_[s], tctx, &ctx, std::move(live[s]));
  }
  auto outcomes =
      run_tasks(pool_, job, scanners_.size(), tasks, "inside scan");
  if (!outcomes.ok()) return outcomes.status();

  Report report;
  Report::Metrics tally;
  for (std::size_t s = 0; s < scanners_.size(); ++s) {
    if (cancelled(job)) {
      return support::Status::cancelled("inside scan cancelled during diff");
    }
    const auto& views = (*outcomes)[s];
    report.diffs.push_back(diff_views(*scanners_[s], tctx, views[0].result,
                                      views[0].wall,
                                      std::span(views).subspan(1), tally));
  }
  if (session != nullptr) report.incremental = session->last;
  finalize(report, seconds_since(t0), "inside", tally);
  if (session != nullptr && registry_ != nullptr) {
    obs::MetricsRegistry& reg = *registry_;
    const IncrementalStats& inc = session->last;
    reg.counter("gb_session_rescans_total",
                {{"mode", inc.incremental ? "incremental" : "full"}})
        .inc();
    reg.counter("gb_session_records_spliced_total")
        .add(static_cast<double>(inc.records_spliced));
    reg.counter("gb_session_records_reparsed_total")
        .add(static_cast<double>(inc.records_reparsed));
    if (!inc.incremental) reg.counter("gb_session_fallbacks_total").inc();
  }
  return report;
}

support::StatusOr<Report> ScanEngine::run_injected(const JobSpec& job) {
  if (cancelled(job)) {
    return support::Status::cancelled("injected scan cancelled before start");
  }
  const auto t0 = SteadyClock::now();
  auto run_span = obs::default_tracer().span("engine.injected", "engine");
  flush_hives_if_needed();
  ViewDefs live = live_views();
  std::optional<internal::SessionState> cold;
  const ScanTaskContext tctx = live_context(live, nullptr, cold);
  // Per-process scans stay internally serial — the fan-out is already
  // one task per (process, provider).
  const ScanTaskContext serial_ctx{machine_, nullptr, cfg_};

  // Phase 1: the trusted snapshots, every live view of every provider.
  std::vector<ViewTask<ScanResult>> snapshot_tasks;
  for (std::size_t s = 0; s < scanners_.size(); ++s) {
    add_view_tasks(snapshot_tasks, s, *scanners_[s], tctx, nullptr,
                   std::move(live[s]));
  }
  auto trusted = run_tasks(pool_, job, scanners_.size(), snapshot_tasks,
                           "injected scan");
  if (!trusted.ok()) return trusted.status();
  // Each provider's trusted rows, shared by every per-process diff.
  std::vector<std::vector<ViewInput>> rows(scanners_.size());
  for (std::size_t s = 0; s < scanners_.size(); ++s) {
    for (const auto& o : (*trusted)[s]) {
      rows[s].push_back(view_input(o.id, o.trust, o.result));
    }
  }

  // Phase 2: one API task per (process, provider), diffed against the
  // snapshots inside the task. Contexts run in pid order (envs() is a
  // sorted map), the order the reduction walks. A provider with no sound
  // trusted snapshot gets no tasks — there is nothing to diff against.
  std::vector<ViewTask<InjectedScan>> scan_tasks;
  for (const auto& [pid, env] : machine_.win32().envs()) {
    const winapi::Ctx ctx = machine_.context_for(pid);
    if (ctx.image_name.empty() || ctx.image_name == "System") continue;
    for (std::size_t s = 0; s < scanners_.size(); ++s) {
      if (std::ranges::none_of(rows[s], &ViewInput::ok)) continue;
      scan_tasks.push_back(
          {s, kApiViewId, TrustLevel::kApiView,
           view_span(*scanners_[s], "injected"),
           [this, s, ctx, &rows, &serial_ctx]()
               -> support::StatusOr<InjectedScan> {
             const auto high = scanners_[s]->high_scan(serial_ctx, ctx);
             if (!high.ok()) return high.status();
             std::vector<ViewInput> inputs{
                 view_input(kApiViewId, TrustLevel::kApiView, high)};
             inputs.insert(inputs.end(), rows[s].begin(), rows[s].end());
             return InjectedScan{scanners_[s]->diff(serial_ctx, inputs).hidden,
                                 high->resources.size(), high->work};
           },
           ctx.image_name});
    }
  }
  auto scans = run_tasks(pool_, job, scanners_.size(), scan_tasks,
                         "injected scan");
  if (!scans.ok()) return scans.status();

  Report report;
  Report::Metrics tally;
  for (std::size_t s = 0; s < scanners_.size(); ++s) {
    report.diffs.push_back(
        injected_diff(*scanners_[s], tctx, rows[s], (*trusted)[s],
                      (*scans)[s], tally));
  }
  finalize(report, seconds_since(t0), "injected", tally);
  return report;
}

InsideCapture ScanEngine::capture(const JobSpec& job) {
  auto run_span = obs::default_tracer().span("engine.capture", "engine");
  const auto ctx = scanner_context();
  const ScanTaskContext tctx{machine_, &pool_, cfg_};
  std::vector<ViewTask<ScanResult>> tasks;
  for (std::size_t s = 0; s < scanners_.size(); ++s) {
    add_view_tasks(tasks, s, *scanners_[s], tctx, &ctx, {});
  }
  auto outcomes = run_tasks(pool_, job, scanners_.size(), tasks, "capture");
  InsideCapture cap;
  if (!outcomes.ok()) return cap;  // cancelled: run_outside discards it
  bool want_dump = false;
  for (std::size_t s = 0; s < scanners_.size(); ++s) {
    cap.entries.push_back(
        {scanners_[s]->type(), std::move((*outcomes)[s][0].result)});
    for (const auto& def :
         scanners_[s]->trusted_views(ScanPhase::kOutside, cfg_)) {
      want_dump = want_dump || def.needs_dump;
    }
  }
  // A cancelled capture never blue-screens the machine: the job is being
  // abandoned, so we leave the box running instead of halting it for a
  // dump nobody will diff.
  if (want_dump && !cancelled(job)) {
    // Keep the raw image regardless of whether it parses: the signature
    // carve sweeps bytes, not structures.
    cap.dump_bytes = machine_.bluescreen();
    auto parsed = kernel::parse_dump_or(cap.dump_bytes, &pool_);
    if (parsed.ok()) {
      cap.dump = std::move(parsed.value());
    } else {
      cap.dump_status = parsed.status();
    }
  }
  return cap;
}

support::StatusOr<Report> ScanEngine::diff_capture(const InsideCapture& cap,
                                                   const JobSpec& job) {
  if (machine_.running()) {
    throw std::logic_error(
        "outside_diff requires the machine to be powered off");
  }
  if (cancelled(job)) {
    return support::Status::cancelled("outside diff cancelled before start");
  }
  const auto t0 = SteadyClock::now();
  auto run_span = obs::default_tracer().span("engine.outside_diff", "engine");
  const ScanTaskContext tctx{machine_, &pool_, cfg_};
  // The clean OS mounts the powered-off disk once, reading only its boot
  // sector and root record; the file and hive views list and open
  // through that one mount concurrently.
  const auto mount = ntfs::CleanBootMount::open(machine_.disk());
  const OutsideSources sources{&mount, cap.dump ? &*cap.dump : nullptr,
                               cap.dump_bytes, cap.dump_status};

  // Slot i diffs a capture entry against the clean views of the first
  // provider of its type — the capture may come from a different engine
  // whose provider set differs. One task per clean view of the powered-
  // off disk and the captured dump (parsed and raw).
  std::vector<std::pair<const InsideCapture::Entry*, const ResourceScanner*>>
      slots;
  std::vector<ViewTask<ScanResult>> tasks;
  for (const auto& entry : cap.entries) {
    const auto it = std::find_if(
        scanners_.begin(), scanners_.end(),
        [&](const auto& s) { return s->type() == entry.type; });
    if (it == scanners_.end()) continue;
    add_view_tasks(tasks, slots.size(), **it, tctx, nullptr,
                   (*it)->trusted_views(ScanPhase::kOutside, cfg_), &sources,
                   "outside.");
    slots.emplace_back(&entry, it->get());
  }
  auto outcomes = run_tasks(pool_, job, slots.size(), tasks, "outside diff");
  if (!outcomes.ok()) return outcomes.status();

  Report report;
  Report::Metrics tally;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const auto& [entry, scanner] = slots[i];
    report.diffs.push_back(diff_views(*scanner, tctx, entry->high, 0,
                                      (*outcomes)[i], tally));
  }
  finalize(report, seconds_since(t0), "outside", tally);
  return report;
}

support::StatusOr<Report> ScanEngine::run_outside(const JobSpec& job) {
  if (cancelled(job)) {
    return support::Status::cancelled("outside scan cancelled before start");
  }
  const InsideCapture cap = capture(job);
  if (cancelled(job)) {
    // The capture saw the token in time to skip the blue-screen, so the
    // machine is still running; a cancelled outside job leaves the box in
    // whatever lifecycle phase it reached (cooperative, not transactional).
    return support::Status::cancelled("outside scan cancelled after capture");
  }
  if (machine_.running()) machine_.shutdown();
  // WinPE CD boot adds 1.5-3 minutes (Section 2); the RIS network boot of
  // Section 5's enterprise automation is quicker and needs no media.
  machine_.clock().advance(VirtualClock::seconds(
      cfg_.outside_boot == OutsideBoot::kWinPeCd ? 120.0 : 45.0));
  return diff_capture(cap, job);
}

}  // namespace gb::core
