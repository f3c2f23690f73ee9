#include "daemon/daemon.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace gb::daemon {
namespace {

// Sums shard scheduler stats into one fleet view; tenants merge by id
// (weights are identical across shards — the daemon sets them all).
core::SchedulerStats merge_shard_stats(
    const std::vector<core::SchedulerStats>& per_shard) {
  core::SchedulerStats out;
  std::map<std::string, core::SchedulerStats::Tenant> tenants;
  for (const core::SchedulerStats& s : per_shard) {
    out.queue_depth += s.queue_depth;
    out.running += s.running;
    out.submitted += s.submitted;
    out.served += s.served;
    out.cancelled += s.cancelled;
    out.total_queue_seconds += s.total_queue_seconds;
    out.total_run_seconds += s.total_run_seconds;
    out.max_latency_seconds =
        std::max(out.max_latency_seconds, s.max_latency_seconds);
    for (const core::SchedulerStats::Tenant& t : s.tenants) {
      core::SchedulerStats::Tenant& m = tenants[t.id];
      m.id = t.id;
      m.weight = t.weight;
      m.submitted += t.submitted;
      m.served += t.served;
      m.cancelled += t.cancelled;
      m.queued += t.queued;
    }
  }
  for (auto& [id, t] : tenants) out.tenants.push_back(std::move(t));
  return out;
}

}  // namespace

struct Daemon::JobRecord {
  std::uint64_t id = 0;
  JobRequest request;
  std::uint32_t shard = 0;
  /// Valid while the job is queued or running on a shard; released once
  /// the job is done, and never set for jobs served straight from the
  /// journal's result store.
  core::ScanJob handle;
  /// A journal record already decided this job's terminal outcome (a
  /// kCancel written by cancel_job, or the kComplete written here).
  /// Once set, no further terminal record may be appended for this id.
  bool terminal_journaled = false;
  bool done = false;
  support::Status result_status;
  std::string report_json;
};

Daemon::Daemon(DaemonOptions opts)
    : opts_(std::move(opts)),
      event_log_(opts_.event_log_capacity),
      clock_epoch_(std::chrono::steady_clock::now()),
      serve_pool_(std::max<std::size_t>(opts_.max_connections, 1)) {}

support::StatusOr<std::unique_ptr<Daemon>> Daemon::start(DaemonOptions opts) {
  // gb-lint: allow(naked-new) — make_unique cannot reach the private ctor.
  std::unique_ptr<Daemon> daemon(new Daemon(std::move(opts)));
  if (support::Status s = daemon->init(); !s.ok()) return s;
  return daemon;
}

support::Status Daemon::init() {
  if (opts_.journal_path.empty()) {
    return support::Status::failed_precondition("daemon: journal_path unset");
  }
  if (!opts_.resolve_machine) {
    return support::Status::failed_precondition(
        "daemon: resolve_machine unset");
  }
  if (opts_.shards == 0) opts_.shards = 1;
  // Zero shard workers would dispatch inline on the submitting thread —
  // under the daemon lock, straight into the completion hook. Refuse.
  opts_.workers_per_shard = std::max<std::size_t>(opts_.workers_per_shard, 1);

  obs::MetricsRegistry* registry = opts_.metrics;
  if (registry == nullptr) {
    own_metrics_ = std::make_unique<obs::MetricsRegistry>();
    registry = own_metrics_.get();
  }
  m_submitted_ = &registry->counter("gb_daemon_submitted_total");
  m_completed_ = &registry->counter("gb_daemon_completed_total");
  m_rejected_ = &registry->counter("gb_daemon_rejected_total");
  m_requeued_ = &registry->counter("gb_daemon_requeued_total");
  registry->set_help("gb_daemon_submitted_total",
                     "Jobs admitted and journaled by the daemon");
  registry->set_help("gb_daemon_completed_total",
                     "Jobs that reached a terminal result");
  registry->set_help("gb_daemon_rejected_total",
                     "Submits refused by admission control");
  registry->set_help("gb_daemon_requeued_total",
                     "Journaled jobs re-queued at restart");

  limiter_ = std::make_unique<RateLimiter>(opts_.quotas);

  support::StatusOr<JobJournal> journal = JobJournal::open(opts_.journal_path);
  if (!journal.ok()) return journal.status();
  journal_ = std::make_unique<JobJournal>(std::move(journal).value());

  // The flight recorder rides alongside the journal: same directory,
  // same crash-recovery story (attach replays the previous incarnation
  // and truncates its torn tail). A recorder that cannot persist still
  // records in memory — observability must not take the daemon down.
  if (opts_.event_log_path.empty()) {
    opts_.event_log_path = opts_.journal_path + ".events";
  }
  event_log_status_ = event_log_.attach(opts_.event_log_path);

  // Shards get private metric registries: scheduler stats are read back
  // from the registry, and N shards writing one registry would mix.
  for (std::size_t i = 0; i < opts_.shards; ++i) {
    core::ScanScheduler::Options shard_opts;
    shard_opts.workers = opts_.workers_per_shard;
    shards_.push_back(std::make_unique<core::ScanScheduler>(shard_opts));
    for (const auto& [tenant, weight] : opts_.tenant_weights) {
      shards_.back()->set_tenant_weight(tenant, weight);
    }
  }

  // Fold the journal's replay image in: completed jobs become the
  // at-most-once result store, pending jobs (submitted, maybe started,
  // never terminal) go back on their shards.
  const JournalReplay& replay = journal_->replay();
  support::MutexLock lk(mu_);
  next_id_ = replay.next_job_id;
  counters_.journal_truncated_bytes = replay.truncated_bytes;
  if (replay.truncated_bytes > 0) {
    event_log_.append(obs::EventType::kJournalTruncated, 0,
                      std::to_string(replay.truncated_bytes) +
                          " torn byte(s) dropped at open");
  }
  for (const auto& [id, done] : replay.completed) {
    auto rec = std::make_unique<JobRecord>();
    rec->id = id;
    rec->request = done.request;
    rec->terminal_journaled = true;
    rec->done = true;
    rec->result_status = done.status;
    rec->report_json = done.report_json;
    tenant_submitted_[done.request.tenant] += 1;
    counters_.replayed_completed += 1;
    jobs_.emplace(id, std::move(rec));
  }
  for (const JournalReplay::PendingJob& pending : replay.pending) {
    auto rec = std::make_unique<JobRecord>();
    rec->id = pending.id;
    rec->request = pending.request;
    JobRecord& r = *rec;
    jobs_.emplace(pending.id, std::move(rec));
    tenant_submitted_[pending.request.tenant] += 1;
    tenant_outstanding_[pending.request.tenant] += 1;
    counters_.requeued += 1;
    if (pending.started) counters_.requeued_started += 1;
    m_requeued_->inc();
    event_log_.append(obs::EventType::kRequeued, pending.id,
                      pending.started ? "lost mid-scan" : "never started");
    dispatch_locked(r);
  }
  return support::Status();
}

Daemon::~Daemon() {
  {
    support::MutexLock lk(mu_);
    shutting_down_ = true;
  }
  close_connections();
  if (!dying_.load(std::memory_order_acquire)) {
    // Graceful: drain every in-flight job; each completion journals
    // before the journal handle is destroyed below.
    for (const auto& shard : shards_) shard->wait_idle();
    event_log_.append(obs::EventType::kDrain, 0, "graceful shutdown");
  }
  done_cv_.notify_all();
  // Members unwind in reverse order: serve_pool_ joins the (now
  // unblocked) connection loops first, then shards, journal, the rest.
}

double Daemon::now_seconds() const {
  if (opts_.clock) return opts_.clock();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       clock_epoch_)
      .count();
}

support::StatusOr<std::uint64_t> Daemon::submit(const JobRequest& request) {
  support::MutexLock lk(mu_);
  if (shutting_down_ || killed_) {
    return support::Status::unavailable("daemon: shutting down");
  }
  if (opts_.resolve_machine(request.machine_id) == nullptr) {
    return support::Status::not_found("daemon: unknown machine '" +
                                      request.machine_id + "'");
  }
  support::Status admitted =
      limiter_->admit(request.tenant, now_seconds(),
                      tenant_outstanding_[request.tenant],
                      tenant_submitted_[request.tenant]);
  if (!admitted.ok()) {
    m_rejected_->inc();
    event_log_.append(obs::EventType::kRejected, 0,
                      request.tenant + ": " + admitted.message());
    return admitted;
  }
  const std::uint64_t id = next_id_;
  // Durable before acknowledged: the id is only issued (and the in-
  // memory record only created) once the submit record is on disk.
  if (support::Status s = journal_->append_submit(id, request); !s.ok()) {
    counters_.journal_append_failures += 1;
    return support::Status::unavailable("daemon: journal append failed: " +
                                        s.message());
  }
  next_id_ += 1;
  auto rec = std::make_unique<JobRecord>();
  rec->id = id;
  rec->request = request;
  JobRecord& r = *rec;
  jobs_.emplace(id, std::move(rec));
  tenant_submitted_[request.tenant] += 1;
  tenant_outstanding_[request.tenant] += 1;
  counters_.submitted += 1;
  m_submitted_->inc();
  event_log_.append(obs::EventType::kSubmit, id,
                    request.tenant + " -> " + request.machine_id);
  dispatch_locked(r);
  return id;
}

obs::TraceContext Daemon::trace_context_for(const JobRecord& rec) {
  if (rec.request.trace_id != 0) {
    return obs::TraceContext{rec.request.trace_id,
                             rec.request.parent_span_id};
  }
  return obs::TraceContext::for_job(rec.id);
}

void Daemon::dispatch_locked(JobRecord& rec) {
  rec.shard = static_cast<std::uint32_t>(
      machine_shard_hash(rec.request.machine_id) % shards_.size());
  machine::Machine* machine = opts_.resolve_machine(rec.request.machine_id);
  if (machine == nullptr) {
    // Replayed job whose machine left the catalog: terminal, not lost.
    finish_locked(rec, support::Status::not_found(
                           "daemon: unknown machine '" +
                           rec.request.machine_id + "'"),
                  "");
    return;
  }
  core::JobSpec spec;
  spec.machine = machine;
  spec.tenant = rec.request.tenant;
  spec.priority = rec.request.priority;
  spec.kind = rec.request.kind;
  spec.config = rec.request.to_scan_config();
  // The job runs under the daemon's trace identity — client-supplied
  // ids if the submit carried them, else derived from the journaled job
  // id (which a remote client re-derives from the submit reply). Either
  // way both sides of the wire agree without shipping ids back.
  spec.trace = trace_context_for(rec);
  const std::uint64_t id = rec.id;
  spec.on_complete = [this, id](std::uint64_t,
                                support::StatusOr<core::Report>& result) {
    on_job_complete(id, result);
  };
  // Dispatch under mu is the journal-before-acknowledge invariant: the
  // job record, shard assignment, and journal entry must be one atomic
  // step or a crash between them orphans the job. The shard's pool has
  // dedicated workers, so submit() enqueues without running work inline.
  support::StatusOr<core::ScanJob> handle =
      // gb-lint: allow(blocking-under-lock)
      shards_[rec.shard]->submit(std::move(spec));
  if (!handle.ok()) {
    finish_locked(rec, handle.status(), "");
    return;
  }
  rec.handle = std::move(handle).value();
  if (support::Status s = journal_->append_start(rec.id, rec.shard);
      !s.ok()) {
    counters_.journal_append_failures += 1;
  }
  event_log_.append(obs::EventType::kStart, rec.id,
                    "shard " + std::to_string(rec.shard));
}

void Daemon::finish_locked(JobRecord& rec, const support::Status& status,
                           std::string report_json) {
  if (rec.done) return;
  if (!rec.terminal_journaled) {
    support::Status s =
        status.code() == support::StatusCode::kCancelled
            ? journal_->append_cancel(rec.id)
            : journal_->append_complete(rec.id, status, report_json);
    if (!s.ok()) counters_.journal_append_failures += 1;
    rec.terminal_journaled = true;
  }
  rec.done = true;
  rec.result_status = status;
  rec.report_json = std::move(report_json);
  // The record now holds the outcome; the handle would pin the
  // scheduler's copy of the structured report for the daemon's lifetime.
  rec.handle = core::ScanJob{};
  counters_.completed += 1;
  if (status.code() == support::StatusCode::kCancelled) {
    counters_.cancelled += 1;
    event_log_.append(obs::EventType::kCancel, rec.id, status.message());
  } else {
    event_log_.append(obs::EventType::kComplete, rec.id,
                      status.ok() ? "ok" : status.to_string());
  }
  m_completed_->inc();
  auto outstanding = tenant_outstanding_.find(rec.request.tenant);
  if (outstanding != tenant_outstanding_.end() && outstanding->second > 0) {
    outstanding->second -= 1;
  }
  done_cv_.notify_all();
}

void Daemon::on_job_complete(std::uint64_t id,
                             support::StatusOr<core::Report>& result) {
  // A dying daemon records nothing — this is the crash: the journal
  // keeps the submit but never the completion, so restart re-runs it.
  if (dying_.load(std::memory_order_acquire)) return;
  std::string report_json;
  if (result.ok()) {
    // The scheduler stamped its shard-local job id; overwrite with the
    // daemon's journaled id, which is the one stable across restarts.
    if (result->scheduler) result->scheduler->job_id = id;
    report_json = result->to_json();
    // One event per degraded diff, so the recorder answers "which view
    // fell back" without re-parsing the report.
    for (const auto& d : result->diffs) {
      if (d.degraded()) {
        event_log_.append(obs::EventType::kDegraded, id,
                          std::string(core::resource_type_name(d.type)) +
                              ": " + d.status.to_string());
      }
    }
  }
  support::MutexLock lk(mu_);
  if (killed_) return;
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  JobRecord& rec = *it->second;
  if (rec.done) return;
  if (rec.terminal_journaled) {
    // A durable cancel record (cancel_job) already decided this job:
    // the race is resolved in the journal's favor, the report dropped,
    // so the live daemon and every replay agree.
    finish_locked(rec, support::Status::cancelled("cancelled via daemon"),
                  "");
    return;
  }
  finish_locked(rec, result.ok() ? support::Status() : result.status(),
                std::move(report_json));
}

support::StatusOr<JobView> Daemon::poll(std::uint64_t job_id) const {
  support::MutexLock lk(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return support::Status::not_found("daemon: no job " +
                                      std::to_string(job_id));
  }
  const JobRecord& rec = *it->second;
  JobView view;
  view.id = job_id;
  if (rec.handle.valid()) {
    const core::JobProgress progress = rec.handle.progress();
    view.phase = progress.phase;
    view.tasks_done = progress.tasks_done;
    view.tasks_total = progress.tasks_total;
  }
  if (rec.done) {
    view.phase = core::JobPhase::kDone;
    view.finished = true;
    view.result = rec.result_status;
  }
  return view;
}

support::StatusOr<std::string> Daemon::wait_result(std::uint64_t job_id) {
  support::CondLock lk(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return support::Status::not_found("daemon: no job " +
                                      std::to_string(job_id));
  }
  JobRecord& rec = *it->second;
  done_cv_.wait(lk.native(), [&] { return rec.done || killed_; });
  if (!rec.done) {
    return support::Status::unavailable("daemon: killed while waiting");
  }
  if (!rec.result_status.ok()) return rec.result_status;
  return rec.report_json;
}

support::StatusOr<bool> Daemon::cancel_job(std::uint64_t job_id) {
  JobRecord* rec = nullptr;
  {
    support::MutexLock lk(mu_);
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) {
      return support::Status::not_found("daemon: no job " +
                                        std::to_string(job_id));
    }
    rec = it->second.get();
    if (rec->done || rec->terminal_journaled) return false;
    if (killed_) return support::Status::unavailable("daemon: killed");
    // The durable record comes first and thereafter *is* the outcome:
    // even if the scan wins the race below, every incarnation of this
    // daemon reports the job cancelled.
    if (support::Status s = journal_->append_cancel(job_id); !s.ok()) {
      counters_.journal_append_failures += 1;
      return support::Status::unavailable("daemon: journal append failed: " +
                                          s.message());
    }
    rec->terminal_journaled = true;
  }
  // Outside mu_: cancelling a queued job completes it synchronously,
  // which re-enters on_job_complete -> mu_.
  if (rec->handle.valid()) (void)rec->handle.cancel();
  return true;
}

void Daemon::wait_idle() {
  {
    support::CondLock lk(mu_);
    done_cv_.wait(lk.native(), [&] {
      if (killed_) return true;
      for (const auto& [id, rec] : jobs_) {
        if (!rec->done) return false;
      }
      return true;
    });
    if (killed_) return;
  }
  // The daemon marks a job done from inside the completion hook, a hair
  // before the scheduler retires the worker — drain the shards too so a
  // stats() call right after wait_idle() sees nothing still "running".
  // (Not safe against a concurrent kill(); drain from the control
  // thread that would issue it.)
  for (const auto& shard : shards_) shard->wait_idle();
}

DaemonStats Daemon::stats() const {
  support::MutexLock lk(mu_);
  DaemonStats stats = counters_;
  stats.shards = shards_.empty() ? opts_.shards : shards_.size();
  for (const auto& [tenant, rejections] : limiter_->rejections()) {
    stats.rejected_rate += rejections.rate;
    stats.rejected_quota += rejections.outstanding + rejections.total;
  }
  for (const auto& shard : shards_) {
    stats.per_shard.push_back(shard->stats());
  }
  stats.combined = merge_shard_stats(stats.per_shard);
  return stats;
}

std::string Daemon::stats_json() const { return stats().to_json(); }

std::string Daemon::metrics_text() const {
  const obs::MetricsRegistry* registry =
      opts_.metrics != nullptr ? opts_.metrics : own_metrics_.get();
  return registry->to_prometheus_text();
}

std::string Daemon::health_json() const {
  support::MutexLock lk(mu_);
  const std::uint64_t journal_failures = counters_.journal_append_failures;
  const std::uint64_t truncated = counters_.journal_truncated_bytes;
  // Torn bytes mean the last incarnation crashed mid-append; the tail
  // was repaired, but the operator should know — degraded, not broken.
  const bool journal_ok = journal_failures == 0 && truncated == 0;

  std::size_t queue_depth = 0;
  std::size_t running = 0;
  core::LatencyQuantiles queue_wait;
  core::LatencyQuantiles run;
  for (const auto& shard : shards_) {
    const core::SchedulerStats s = shard->stats();
    queue_depth += s.queue_depth;
    running += s.running;
    // Exact cross-shard quantile merging would need the raw buckets;
    // the max over shards is the conservative fleet view (no shard is
    // slower than reported) and is exact for the one-shard case.
    const core::LatencyQuantiles qw = shard->queue_wait_quantiles();
    const core::LatencyQuantiles rn = shard->run_quantiles();
    queue_wait.p50 = std::max(queue_wait.p50, qw.p50);
    queue_wait.p95 = std::max(queue_wait.p95, qw.p95);
    queue_wait.p99 = std::max(queue_wait.p99, qw.p99);
    run.p50 = std::max(run.p50, rn.p50);
    run.p95 = std::max(run.p95, rn.p95);
    run.p99 = std::max(run.p99, rn.p99);
  }
  const std::size_t workers =
      shards_.size() * std::max<std::size_t>(opts_.workers_per_shard, 1);
  const bool pool_saturated = running >= workers && queue_depth > 0;

  std::uint64_t rejected = 0;
  for (const auto& [tenant, rejections] : limiter_->rejections()) {
    rejected += rejections.rate + rejections.outstanding + rejections.total;
  }

  const bool recorder_ok =
      event_log_status_.ok() && event_log_.write_failures() == 0;
  const bool ok = journal_ok && !killed_ && recorder_ok;

  const auto verdict = [](bool subsystem_ok) {
    return subsystem_ok ? "true" : "false";
  };
  std::ostringstream os;
  os << "{\"schema_version\":\"1.0\",\"ok\":" << verdict(ok)
     << ",\"subsystems\":{";
  os << "\"journal\":{\"ok\":" << verdict(journal_ok)
     << ",\"append_failures\":" << journal_failures
     << ",\"truncated_bytes\":" << truncated << ",\"reason\":\""
     << (journal_ok ? ""
         : journal_failures > 0
             ? "journal appends are failing"
             : "torn tail repaired after a crash")
     << "\"}";
  os << ",\"shards\":{\"ok\":true,\"count\":" << shards_.size()
     << ",\"queue_depth\":" << queue_depth << ",\"running\":" << running
     << "}";
  os << ",\"pool\":{\"ok\":" << verdict(!pool_saturated)
     << ",\"workers\":" << workers << ",\"reason\":\""
     << (pool_saturated ? "all workers busy with jobs queued" : "")
     << "\"}";
  os << ",\"admission\":{\"ok\":" << verdict(rejected == 0)
     << ",\"rejected\":" << rejected << ",\"reason\":\""
     << (rejected == 0 ? "" : "tenants are being rejected") << "\"}";
  os << ",\"flight_recorder\":{\"ok\":" << verdict(recorder_ok)
     << ",\"events\":" << event_log_.appended()
     << ",\"write_failures\":" << event_log_.write_failures()
     << ",\"reason\":\""
     << (recorder_ok ? "" : "recorder persistence unavailable") << "\"}";
  os << "},\"latency_seconds\":{";
  os << "\"queue_wait\":{\"p50\":" << queue_wait.p50
     << ",\"p95\":" << queue_wait.p95 << ",\"p99\":" << queue_wait.p99
     << "}";
  os << ",\"run\":{\"p50\":" << run.p50 << ",\"p95\":" << run.p95
     << ",\"p99\":" << run.p99 << "}";
  os << "}}";
  return os.str();
}

support::StatusOr<obs::TraceContext> Daemon::job_trace_context(
    std::uint64_t job_id) const {
  support::MutexLock lk(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return support::Status::not_found("daemon: no job " +
                                      std::to_string(job_id));
  }
  return trace_context_for(*it->second);
}

support::StatusOr<std::vector<obs::TraceEvent>> Daemon::trace_events(
    std::uint64_t job_id) const {
  support::StatusOr<obs::TraceContext> ctx = job_trace_context(job_id);
  if (!ctx.ok()) return ctx.status();
  std::vector<obs::TraceEvent> events =
      obs::default_tracer().snapshot(ctx->trace_id);
  // pid 2 marks "recorded daemon-side" in the merged-trace convention.
  // A client sharing this process (and hence the tracer) re-labels the
  // spans it recorded itself back to pid 1 by span id.
  for (obs::TraceEvent& e : events) e.pid = 2;
  return events;
}

void Daemon::serve(std::shared_ptr<Transport> connection) {
  {
    support::MutexLock lk(conns_mu_);
    std::erase_if(conns_, [](const std::weak_ptr<Transport>& conn) {
      return conn.expired();
    });
    conns_.push_back(connection);
  }
  (void)serve_pool_.submit(
      [this, connection] { serve_connection(connection); });
}

void Daemon::serve_connection(const std::shared_ptr<Transport>& connection) {
  Framer framer(*connection);
  for (;;) {
    support::StatusOr<std::vector<std::byte>> frame = framer.read_frame();
    if (!frame.ok()) {
      // Clean close (kUnavailable) ends the loop silently; a poisoned
      // stream (kCorrupt) gets a best-effort error reply first. Either
      // way only this connection dies — the daemon serves on.
      if (frame.status().code() == support::StatusCode::kCorrupt) {
        (void)framer.write_frame(encode_error_reply(frame.status()));
      }
      break;
    }
    support::StatusOr<Verb> verb = decode_verb(*frame);
    if (!verb.ok()) {
      (void)framer.write_frame(encode_error_reply(verb.status()));
      break;
    }
    support::Status io;
    bool drop = false;
    switch (*verb) {
      case Verb::kSubmit: {
        support::StatusOr<JobRequest> request = decode_submit(*frame);
        if (!request.ok()) {
          io = framer.write_frame(encode_error_reply(request.status()));
          drop = true;
          break;
        }
        SubmitReply reply;
        // The span's trace identity only exists once the id is
        // assigned, so it is adopted after the fact — the same move the
        // remote client makes with the reply.
        auto span = obs::default_tracer().span("wire.submit", "wire");
        support::StatusOr<std::uint64_t> id = submit(*request);
        if (id.ok()) {
          reply.job_id = *id;
          span.adopt_context(
              request->trace_id != 0
                  ? obs::TraceContext{request->trace_id,
                                      request->parent_span_id}
                  : obs::TraceContext::for_job(*id));
          span.arg("job", std::to_string(*id));
        } else {
          reply.status = id.status();
        }
        io = framer.write_frame(encode_submit_reply(reply));
        break;
      }
      case Verb::kPoll: {
        support::StatusOr<std::uint64_t> id = decode_job_id(*frame);
        if (!id.ok()) {
          io = framer.write_frame(encode_error_reply(id.status()));
          drop = true;
          break;
        }
        PollReply reply;
        support::StatusOr<JobView> view = poll(*id);
        if (view.ok()) {
          reply.view = *view;
        } else {
          reply.status = view.status();
        }
        io = framer.write_frame(encode_poll_reply(reply));
        break;
      }
      case Verb::kCancel: {
        support::StatusOr<std::uint64_t> id = decode_job_id(*frame);
        if (!id.ok()) {
          io = framer.write_frame(encode_error_reply(id.status()));
          drop = true;
          break;
        }
        CancelReply reply;
        support::StatusOr<bool> cancelled = cancel_job(*id);
        if (cancelled.ok()) {
          reply.cancelled = *cancelled;
        } else {
          reply.status = cancelled.status();
        }
        io = framer.write_frame(encode_cancel_reply(reply));
        break;
      }
      case Verb::kStats: {
        // Header names the byte counts, then both texts stream as
        // chunks — a giant registry dump can never hit the frame cap.
        const std::string stats = stats_json();
        const std::string metrics = metrics_text();
        StatsReplyHeader header;
        header.stats_bytes = stats.size();
        header.metrics_bytes = metrics.size();
        io = framer.write_frame(encode_stats_reply(header));
        if (io.ok()) io = write_chunked(framer, stats + metrics);
        break;
      }
      case Verb::kResult: {
        support::StatusOr<std::uint64_t> id = decode_job_id(*frame);
        if (!id.ok()) {
          io = framer.write_frame(encode_error_reply(id.status()));
          drop = true;
          break;
        }
        auto span = obs::default_tracer().span("wire.result", "wire");
        if (support::StatusOr<obs::TraceContext> ctx = job_trace_context(*id);
            ctx.ok()) {
          span.adopt_context(*ctx);
          span.arg("job", std::to_string(*id));
        }
        support::StatusOr<std::string> result = wait_result(*id);
        ResultReply header;
        if (result.ok()) {
          header.total_bytes = result->size();
        } else {
          header.status = result.status();
        }
        io = framer.write_frame(encode_result_reply(header));
        if (!io.ok() || !result.ok()) break;
        io = write_chunked(framer, *result);
        break;
      }
      case Verb::kTrace: {
        support::StatusOr<std::uint64_t> id = decode_job_id(*frame);
        if (!id.ok()) {
          io = framer.write_frame(encode_error_reply(id.status()));
          drop = true;
          break;
        }
        support::StatusOr<std::vector<obs::TraceEvent>> events =
            trace_events(*id);
        TraceReply header;
        std::string blob;
        if (events.ok()) {
          blob = encode_trace_events(*events);
          header.total_bytes = blob.size();
        } else {
          header.status = events.status();
        }
        io = framer.write_frame(encode_trace_reply(header));
        if (!io.ok() || !events.ok()) break;
        io = write_chunked(framer, blob);
        break;
      }
      case Verb::kHealth: {
        HealthReply reply;
        reply.health_json = health_json();
        io = framer.write_frame(encode_health_reply(reply));
        break;
      }
      default: {
        // A reply verb from a client is a protocol violation.
        io = framer.write_frame(encode_error_reply(support::Status::corrupt(
            "wire: unexpected verb from client")));
        drop = true;
        break;
      }
    }
    if (!io.ok() || drop) break;
  }
  connection->close();
}

void Daemon::close_connections() {
  support::MutexLock lk(conns_mu_);
  for (const std::weak_ptr<Transport>& weak : conns_) {
    if (std::shared_ptr<Transport> conn = weak.lock()) conn->close();
  }
  conns_.clear();
}

void Daemon::kill() {
  // Recorded (and flushed) before journaling stops: the crash itself is
  // the last thing a post-mortem `--flight-recorder` dump shows. A real
  // SIGKILL would leave no such record — the replay then simply ends at
  // the last lifecycle event, which is the same story one line shorter.
  event_log_.append(obs::EventType::kKill, 0, "simulated SIGKILL");
  dying_.store(true, std::memory_order_release);
  {
    support::MutexLock lk(mu_);
    killed_ = true;
    shutting_down_ = true;
  }
  close_connections();
  // Tear the workers down the way a SIGKILL would look to the journal:
  // queued jobs cancel, running scans bail at the next task boundary
  // (never advancing their machine's clock), and none of it is
  // journaled — dying_ makes the completion hook a no-op.
  shards_.clear();
  done_cv_.notify_all();
}

std::string DaemonStats::to_string() const {
  std::ostringstream os;
  os << "daemon: " << shards << " shard(s); " << submitted << " submitted / "
     << completed << " completed / " << cancelled << " cancelled";
  if (rejected_rate + rejected_quota > 0) {
    os << "; rejected " << rejected_rate << " rate + " << rejected_quota
       << " quota";
  }
  os << "\n";
  if (replayed_completed + requeued > 0) {
    os << "  restart: " << replayed_completed << " served from journal, "
       << requeued << " re-queued (" << requeued_started
       << " lost mid-scan), " << journal_truncated_bytes
       << " torn byte(s) truncated\n";
  }
  os << "  " << combined.to_string();
  return os.str();
}

std::string DaemonStats::to_json() const {
  std::ostringstream os;
  os << "{\"schema_version\":\"2.6\",\"shards\":" << shards
     << ",\"submitted\":" << submitted << ",\"completed\":" << completed
     << ",\"cancelled\":" << cancelled
     << ",\"rejected_rate\":" << rejected_rate
     << ",\"rejected_quota\":" << rejected_quota
     << ",\"journal_append_failures\":" << journal_append_failures
     << ",\"replayed_completed\":" << replayed_completed
     << ",\"requeued\":" << requeued
     << ",\"requeued_started\":" << requeued_started
     << ",\"journal_truncated_bytes\":" << journal_truncated_bytes
     << ",\"combined\":" << combined.to_json() << ",\"per_shard\":[";
  for (std::size_t i = 0; i < per_shard.size(); ++i) {
    if (i > 0) os << ",";
    os << per_shard[i].to_json();
  }
  os << "]}";
  return os.str();
}

}  // namespace gb::daemon
