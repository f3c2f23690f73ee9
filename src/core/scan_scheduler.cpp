#include "core/scan_scheduler.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <sstream>

#include "machine/machine.h"
#include "obs/trace.h"
#include "support/strings.h"
#include "support/thread_annotations.h"

namespace gb::core {

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

}  // namespace

namespace internal {

struct JobState;

/// Shared scheduler state. Held by shared_ptr from the scheduler and
/// from every JobState, so a ScanJob handle that outlives its scheduler
/// can still lock the mutex and read its (by then completed) result.
/// Defined before JobState so the latter's GB_GUARDED_BY(core->mu)
/// annotation sees a complete type.
struct SchedulerCore {
  struct Tenant {
    std::uint32_t weight = 1;
    std::uint32_t deficit = 0;  // DRR credit left in the current round
    /// Higher priority first; each deque is submission order. Entries
    /// cancelled while queued complete immediately and are dropped
    /// lazily at pop time.
    std::map<int, std::deque<std::shared_ptr<JobState>>, std::greater<int>>
        queues;
    std::size_t queued = 0;  // live (not-yet-cancelled) queued jobs
    bool in_ring = false;
    /// Registry-backed lifecycle counters (labels: tenant=<id>), created
    /// on first touch. SchedulerStats reads these back rather than
    /// keeping a parallel set of integers.
    obs::Counter* submitted = nullptr;
    obs::Counter* served = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Gauge* deficit_gauge = nullptr;
  };

  mutable support::Mutex mu;
  std::condition_variable idle_cv;
  bool paused GB_GUARDED_BY(mu) = false;
  bool shutdown GB_GUARDED_BY(mu) = false;
  std::uint64_t next_id GB_GUARDED_BY(mu) = 1;
  std::size_t max_dispatchers = 1;  // set once at construction
  std::size_t dispatchers GB_GUARDED_BY(mu) = 0;  // drain tasks alive
  std::size_t running GB_GUARDED_BY(mu) = 0;  // jobs currently on a worker
  std::size_t queued_total GB_GUARDED_BY(mu) = 0;

  std::map<std::string, Tenant> tenants GB_GUARDED_BY(mu);
  /// Round-robin ring of tenant ids with queued work; cursor_ points at
  /// the tenant currently spending its deficit.
  std::vector<std::string> ring GB_GUARDED_BY(mu);
  std::size_t cursor GB_GUARDED_BY(mu) = 0;

  /// Jobs not yet complete, so shutdown can cancel them. Keyed by id.
  std::map<std::uint64_t, std::shared_ptr<JobState>> live GB_GUARDED_BY(mu);

  /// Sessions with a job queued or running. ScanSession is not
  /// thread-safe, so submit() rejects a second job for a session already
  /// here — two dispatchers must never drive the same MFT image
  /// concurrently. Entries leave when their job completes (served,
  /// cancelled, or shutdown).
  std::set<ScanSession*> sessions_inflight GB_GUARDED_BY(mu);

  /// Machines a dispatched job holds. A Machine is not internally
  /// synchronized (a scan grows its process table and flushes hives into
  /// its volume), so a dispatcher whose job's machine is here waits on
  /// machine_cv until the holder's run finishes.
  std::set<const machine::Machine*> machines_busy GB_GUARDED_BY(mu);
  std::condition_variable machine_cv;  // waits on mu

  /// Telemetry sink (see ScanScheduler::Options::metrics). `owned` is
  /// set when the options left metrics null; `metrics` always points at
  /// the registry in use. Handles below are created once at
  /// construction; all updates happen under `mu`.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics;
  obs::MetricsRegistry* metrics = nullptr;
  obs::Histogram* queue_wait = nullptr;
  obs::Histogram* run_seconds = nullptr;
  obs::Counter* queue_seconds_total = nullptr;
  obs::Counter* run_seconds_total = nullptr;
  obs::Counter* dispatched = nullptr;
  obs::Gauge* max_latency = nullptr;
  obs::Gauge* queue_depth = nullptr;
  obs::Gauge* running_gauge = nullptr;
};

/// Everything one submitted job carries through its life. Result, phase
/// transitions and the queue bookkeeping are guarded by the owning
/// SchedulerCore's mutex (lock order: core mutex only — JobState has no
/// lock of its own); `phase` is additionally atomic so progress() can
/// snapshot it without contending with dispatch.
struct JobState {
  std::uint64_t id = 0;
  std::string tenant;
  int priority = 0;
  JobSpec spec;
  /// The machine the job scans: spec.machine, or its session's machine.
  const machine::Machine* machine = nullptr;
  support::CancelToken token;
  support::TaskCounter counter;
  SteadyClock::time_point submit_time{};
  double queue_seconds = 0;  // set at dispatch

  std::shared_ptr<SchedulerCore> core;
  std::condition_variable cv;  // waits on core->mu
  std::atomic<JobPhase> phase{JobPhase::kQueued};
  support::StatusOr<Report> result GB_GUARDED_BY(core->mu);
};

/// Reads a completed job's result without the core lock. Safe only once
/// phase == kDone: the result is write-once and the phase store releases
/// it; Clang cannot see that protocol, so the accessor opts out.
inline support::StatusOr<Report>& done_result(JobState& st)
    GB_NO_THREAD_SAFETY_ANALYSIS {
  return st.result;
}

namespace {

using Tenant = SchedulerCore::Tenant;

/// Looks up (creating if absent) a tenant and lazily mints its registry
/// handles, so every Tenant in the map has non-null counters. Requires
/// core.mu held.
Tenant& tenant_locked(SchedulerCore& core, const std::string& name)
    GB_REQUIRES(core.mu) {
  Tenant& t = core.tenants[name];
  if (t.submitted == nullptr) {
    const obs::Labels labels{{"tenant", name}};
    t.submitted = &core.metrics->counter("gb_sched_submitted_total", labels);
    t.served = &core.metrics->counter("gb_sched_served_total", labels);
    t.cancelled = &core.metrics->counter("gb_sched_cancelled_total", labels);
    t.deficit_gauge = &core.metrics->gauge("gb_sched_tenant_deficit", labels);
  }
  return t;
}

void enter_ring_locked(SchedulerCore& core, const std::string& tenant)
    GB_REQUIRES(core.mu) {
  Tenant& t = tenant_locked(core, tenant);
  if (!t.in_ring) {
    t.in_ring = true;
    core.ring.push_back(tenant);
  }
}

/// Completes `st` as kCancelled without it ever reaching a worker.
/// Requires core.mu held and st.phase == kQueued; the queue entry stays
/// behind and is skipped when dispatch reaches it.
void complete_cancelled_locked(SchedulerCore& core, JobState& st,
                               const char* why) GB_REQUIRES(core.mu) {
  st.token.cancel();
  st.result = support::Status::cancelled(why);
  st.phase.store(JobPhase::kDone, std::memory_order_release);
  Tenant& t = tenant_locked(core, st.tenant);
  t.cancelled->inc();
  if (t.queued > 0) --t.queued;
  if (core.queued_total > 0) --core.queued_total;
  core.queue_depth->set(static_cast<double>(core.queued_total));
  if (st.spec.session != nullptr) core.sessions_inflight.erase(st.spec.session);
  core.live.erase(st.id);
  st.cv.notify_all();
  core.idle_cv.notify_all();
}

/// Deficit-round-robin pop: serves the tenant under the cursor while it
/// has credit and work, then moves on. One call pops one job (already
/// transitioned to kRunning) or returns nullptr when nothing is
/// dispatchable. Requires core.mu held.
std::shared_ptr<JobState> pop_locked(SchedulerCore& core)
    GB_REQUIRES(core.mu) {
  while (!core.ring.empty()) {
    if (core.cursor >= core.ring.size()) core.cursor = 0;
    Tenant& t = tenant_locked(core, core.ring[core.cursor]);
    if (t.queued == 0) {
      // Only lazily-dropped cancelled entries left: retire the tenant
      // from the ring (erasing shifts the next tenant under the cursor).
      t.queues.clear();
      t.deficit = 0;
      t.in_ring = false;
      core.ring.erase(core.ring.begin() +
                      static_cast<std::ptrdiff_t>(core.cursor));
      continue;
    }
    if (t.deficit == 0) t.deficit = std::max<std::uint32_t>(1, t.weight);

    std::shared_ptr<JobState> job;
    while (!t.queues.empty()) {
      auto it = t.queues.begin();  // highest priority
      job = std::move(it->second.front());
      it->second.pop_front();
      if (it->second.empty()) t.queues.erase(it);
      if (job->phase.load(std::memory_order_acquire) == JobPhase::kQueued) {
        break;  // live job; cancelled-while-queued entries are skipped
      }
      job = nullptr;
    }
    if (!job) {
      // Defensive: the counter said live jobs existed but the queues
      // drained dry. Resynchronize instead of spinning; the tenant is
      // retired on the next visit.
      core.queued_total -= std::min(core.queued_total, t.queued);
      t.queued = 0;
      continue;
    }

    --t.deficit;
    --t.queued;
    --core.queued_total;
    t.deficit_gauge->set(static_cast<double>(t.deficit));
    if (t.deficit == 0 || t.queued == 0) {
      // Credit spent (or queue drained): advance to the next tenant.
      // An emptied tenant is retired on the next visit.
      ++core.cursor;
    }
    job->phase.store(JobPhase::kRunning, std::memory_order_release);
    core.dispatched->inc();
    ++core.running;
    core.queue_depth->set(static_cast<double>(core.queued_total));
    core.running_gauge->set(static_cast<double>(core.running));
    return job;
  }
  return nullptr;
}

/// Runs one dispatched job to completion on the calling worker. The
/// engine is built fresh per job with parallelism forced to 1 — the
/// fleet fan-out is the parallelism; a per-job pool would oversubscribe
/// the shared workers.
void run_job(SchedulerCore& core, JobState& st) {
  const auto run_start = SteadyClock::now();
  // Join the job's trace on this worker thread: the queue wait has no
  // live scope (the job just sat in a deque), so it is synthesized from
  // the submit/dispatch stamps; every span below — sched.job, the
  // engine and provider spans it runs inline — parents under the job's
  // context installed here.
  obs::TraceContextScope trace_scope(st.spec.trace);
  obs::default_tracer().record_span("sched.queue_wait", "sched",
                                    st.spec.trace, st.submit_time,
                                    run_start);
  support::StatusOr<Report> result =
      support::Status::internal("scan job never produced a result");
  {
    auto span = obs::default_tracer().span("sched.job", "sched");
    span.arg("tenant", st.tenant);
    span.arg("job", std::to_string(st.id));
    try {
      if (st.spec.session != nullptr) {
        // Scheduled incremental re-scan: drive the caller's session so
        // the MFT image and journal cursor carry across jobs. The
        // session's engine already owns machine and config.
        result = st.spec.session->rescan(&st.token, &st.counter);
      } else {
        ScanConfig cfg = st.spec.config;
        cfg.parallelism = 1;
        // Job engines report into the scheduler's registry unless the
        // submitter routed theirs elsewhere.
        if (cfg.metrics == nullptr) cfg.metrics = core.metrics;
        ScanEngine engine(*st.spec.machine, cfg);
        if (st.spec.configure_engine) st.spec.configure_engine(engine);
        JobSpec run_spec;
        run_spec.kind = st.spec.kind;
        run_spec.cancel = &st.token;
        run_spec.progress = &st.counter;
        result = engine.run(run_spec);
      }
    } catch (const std::exception& e) {
      // A scan that throws (misconfigured machine, logic error in a
      // custom provider) fails its own job, not the dispatcher.
      result = support::Status::internal(std::string("scan job threw: ") +
                                         e.what());
    }
  }
  const double run_seconds = seconds_since(run_start);

  // Scheduler provenance + the completion hook run BEFORE the result is
  // published: st's identity fields are immutable after dispatch, and a
  // serving layer must be able to journal the completion durably before
  // any waiter can observe the job as done.
  if (result.ok()) {
    result.value().scheduler = Report::SchedulerTag{
        st.tenant, st.id, st.priority, st.queue_seconds};
  }
  if (st.spec.on_complete) st.spec.on_complete(st.id, result);

  support::MutexLock lk(core.mu);
  Tenant& t = tenant_locked(core, st.tenant);
  if (!result.ok() &&
      result.status().code() == support::StatusCode::kCancelled) {
    t.cancelled->inc();
  } else {
    t.served->inc();
  }
  core.queue_seconds_total->add(st.queue_seconds);
  core.run_seconds_total->add(run_seconds);
  core.run_seconds->observe(run_seconds);
  core.max_latency->max_of(st.queue_seconds + run_seconds);
  st.result = std::move(result);
  st.phase.store(JobPhase::kDone, std::memory_order_release);
  if (st.spec.session != nullptr) {
    core.sessions_inflight.erase(st.spec.session);
  }
  core.machines_busy.erase(st.machine);
  core.machine_cv.notify_all();
  core.live.erase(st.id);
  --core.running;
  core.running_gauge->set(static_cast<double>(core.running));
  st.cv.notify_all();
  core.idle_cv.notify_all();
}

/// Dispatcher loop, run as a pool task: pop-and-run until the queue is
/// empty (or dispatch pauses / shuts down), then retire. submit() and
/// resume() spawn replacements as work and capacity allow. A popped job
/// whose machine another job holds waits for it here, so the wait counts
/// as queue time.
void drain(const std::shared_ptr<SchedulerCore>& core) {
  for (;;) {
    std::shared_ptr<JobState> job;
    {
      support::CondLock lk(core->mu);
      if (!core->paused && !core->shutdown) job = pop_locked(*core);
      if (!job) {
        --core->dispatchers;
        core->idle_cv.notify_all();
        return;
      }
      core->machine_cv.wait(lk.native(), [&] {
        return !core->machines_busy.contains(job->machine);
      });
      core->machines_busy.insert(job->machine);
      // Steady clock is monotonic so the wait can't be negative; clamp
      // anyway so a queue_seconds consumer never sees -0.0 from rounding.
      job->queue_seconds = std::max(0.0, seconds_since(job->submit_time));
      core->queue_wait->observe(job->queue_seconds);
    }
    run_job(*core, *job);
  }
}

}  // namespace

}  // namespace internal

// ---------------------------------------------------------------------------
// ScanJob

std::uint64_t ScanJob::id() const { return state_->id; }

support::StatusOr<Report>& ScanJob::wait() {
  internal::JobState& st = *state_;
  support::CondLock lk(st.core->mu);
  st.cv.wait(lk.native(), [&] {
    return st.phase.load(std::memory_order_acquire) == JobPhase::kDone;
  });
  return st.result;
}

support::StatusOr<Report>* ScanJob::try_result() {
  internal::JobState& st = *state_;
  support::MutexLock lk(st.core->mu);
  return st.phase.load(std::memory_order_acquire) == JobPhase::kDone
             ? &st.result
             : nullptr;
}

bool ScanJob::cancel() {
  if (!state_) return false;
  internal::JobState& st = *state_;
  bool completed_here = false;
  {
    support::MutexLock lk(st.core->mu);
    const JobPhase phase = st.phase.load(std::memory_order_acquire);
    if (phase == JobPhase::kDone || st.token.cancelled()) return false;
    if (phase == JobPhase::kQueued) {
      internal::complete_cancelled_locked(*st.core, st,
                                          "job cancelled while queued");
      completed_here = true;
    } else {
      st.token.cancel();  // the running engine sees it at the next boundary
    }
  }
  // The completion hook runs outside the scheduler lock (it may take the
  // caller's own locks). The result is stable: a cancelled-while-queued
  // job is done and will never be dispatched again.
  if (completed_here && st.spec.on_complete) {
    st.spec.on_complete(st.id, internal::done_result(st));
  }
  return true;
}

JobProgress ScanJob::progress() const {
  JobProgress p;
  if (!state_) return p;
  // Phase and counters are separate atomics, so a raw read pair can be
  // torn: a job completing (or being cancelled) between the two loads
  // used to pair kDone with counters from mid-flight — a phase past the
  // work that actually finished. Snapshot until the phase is stable
  // around the counter reads, then clamp done to total so the pair is
  // always internally consistent.
  for (;;) {
    const JobPhase before = state_->phase.load(std::memory_order_acquire);
    p.tasks_done = state_->counter.done.load(std::memory_order_acquire);
    p.tasks_total = state_->counter.total.load(std::memory_order_acquire);
    const JobPhase after = state_->phase.load(std::memory_order_acquire);
    if (before == after) {
      p.phase = before;
      break;
    }
  }
  if (p.tasks_done > p.tasks_total) p.tasks_done = p.tasks_total;
  return p;
}

// ---------------------------------------------------------------------------
// SchedulerStats

std::string SchedulerStats::to_string() const {
  std::ostringstream os;
  os << "scheduler: " << queue_depth << " queued, " << running
     << " running; " << submitted << " submitted / " << served
     << " served / " << cancelled << " cancelled\n";
  for (const auto& t : tenants) {
    os << "  tenant " << t.id << " (w=" << t.weight << "): " << t.submitted
       << " submitted, " << t.served << " served, " << t.cancelled
       << " cancelled, " << t.queued << " queued\n";
  }
  if (served > 0) {
    os << "  mean queue wait " << total_queue_seconds / double(served)
       << "s, mean run " << total_run_seconds / double(served)
       << "s, max latency " << max_latency_seconds << "s\n";
  }
  return os.str();
}

std::string SchedulerStats::to_json() const {
  std::ostringstream os;
  os << "{\"schema_version\":\"2.5\""
     << ",\"queue_depth\":" << queue_depth << ",\"running\":" << running
     << ",\"submitted\":" << submitted << ",\"served\":" << served
     << ",\"cancelled\":" << cancelled
     << ",\"total_queue_seconds\":" << total_queue_seconds
     << ",\"total_run_seconds\":" << total_run_seconds
     << ",\"max_latency_seconds\":" << max_latency_seconds
     << ",\"tenants\":[";
  bool first = true;
  for (const auto& t : tenants) {
    if (!first) os << ",";
    first = false;
    os << "{\"id\":" << json_quote(t.id)
       << ",\"weight\":" << t.weight << ",\"submitted\":" << t.submitted
       << ",\"served\":" << t.served << ",\"cancelled\":" << t.cancelled
       << ",\"queued\":" << t.queued << "}";
  }
  os << "]}";
  return os.str();
}

// ---------------------------------------------------------------------------
// ScanScheduler

ScanScheduler::ScanScheduler() : ScanScheduler(Options{}) {}

ScanScheduler::ScanScheduler(Options opts)
    : core_(std::make_shared<internal::SchedulerCore>()),
      pool_(opts.workers) {
  {
    // No concurrency yet, but `paused` is guarded state and the lock is
    // uncontended — cheaper than an analysis escape hatch.
    support::MutexLock lk(core_->mu);
    core_->paused = opts.start_paused;
  }
  core_->max_dispatchers = std::max<std::size_t>(1, pool_.size());
  if (opts.metrics != nullptr) {
    core_->metrics = opts.metrics;
  } else {
    core_->owned_metrics = std::make_unique<obs::MetricsRegistry>();
    core_->metrics = core_->owned_metrics.get();
  }
  obs::MetricsRegistry& reg = *core_->metrics;
  core_->queue_wait = &reg.histogram("gb_sched_queue_wait_seconds",
                                     obs::default_latency_buckets());
  core_->run_seconds = &reg.histogram("gb_sched_run_seconds",
                                      obs::default_latency_buckets());
  core_->queue_seconds_total = &reg.counter("gb_sched_queue_seconds_total");
  core_->run_seconds_total = &reg.counter("gb_sched_run_seconds_total");
  core_->dispatched = &reg.counter("gb_sched_dispatched_total");
  core_->max_latency = &reg.gauge("gb_sched_max_latency_seconds");
  core_->queue_depth = &reg.gauge("gb_sched_queue_depth");
  core_->running_gauge = &reg.gauge("gb_sched_running_jobs");
  reg.set_help("gb_sched_queue_wait_seconds",
               "Queue wait from submit to dispatch");
  reg.set_help("gb_sched_run_seconds", "Job run time on a worker");
  reg.set_help("gb_sched_dispatched_total", "Jobs dispatched to the pool");
  reg.set_help("gb_sched_queue_depth", "Jobs waiting in tenant queues");
  reg.set_help("gb_sched_running_jobs", "Jobs currently on a worker");
  pool_.instrument(reg);
}

ScanScheduler::~ScanScheduler() {
  // Shared_ptr copies, not raw pointers: complete_cancelled_locked
  // erases each job from `live`, and an abandoned handle would otherwise
  // leave these JobStates destroyed before the hook loop below.
  std::vector<std::shared_ptr<internal::JobState>> queued;
  {
    support::MutexLock lk(core_->mu);
    core_->shutdown = true;
    // Complete everything still queued as cancelled (it never ran) and
    // raise the token of everything running so it bails out at the next
    // provider-task boundary.
    for (auto& [id, job] : core_->live) {
      if (job->phase.load(std::memory_order_acquire) == JobPhase::kQueued) {
        queued.push_back(job);
      } else {
        job->token.cancel();
      }
    }
    for (const auto& st : queued) {
      internal::complete_cancelled_locked(*core_, *st,
                                          "scheduler shut down");
    }
    core_->ring.clear();
    for (auto& [name, t] : core_->tenants) {
      t.queues.clear();
      t.in_ring = false;
    }
  }
  // Completion hooks for shutdown-cancelled jobs fire outside the lock.
  for (const auto& st : queued) {
    if (st->spec.on_complete) {
      st->spec.on_complete(st->id, internal::done_result(*st));
    }
  }
  wait_idle();
  // pool_ (declared after core_) is destroyed first, joining any worker
  // still unwinding its drain task.
}

void ScanScheduler::set_tenant_weight(const std::string& tenant,
                                      std::uint32_t weight) {
  support::MutexLock lk(core_->mu);
  internal::tenant_locked(*core_, tenant).weight =
      std::max<std::uint32_t>(1, weight);
}

support::StatusOr<ScanJob> ScanScheduler::submit(JobSpec spec) {
  if (spec.session != nullptr) {
    // Session jobs bring their own engine (and machine) and only the
    // inside scan has an incremental form.
    if (spec.kind != ScanKind::kInside) {
      return support::Status::failed_precondition(
          "JobSpec.session requires kind == kInside");
    }
  } else if (spec.machine == nullptr) {
    return support::Status::failed_precondition(
        "JobSpec.machine is required by ScanScheduler::submit");
  }
  auto st = std::make_shared<internal::JobState>();
  st->tenant = spec.tenant;
  st->priority = spec.priority;
  st->machine =
      spec.session != nullptr ? &spec.session->machine() : spec.machine;
  st->spec = std::move(spec);
  st->core = core_;
  st->submit_time = SteadyClock::now();
  {
    support::MutexLock lk(core_->mu);
    if (core_->shutdown) {
      return support::Status::unavailable("scheduler is shutting down");
    }
    if (st->spec.session != nullptr) {
      // A session is single-threaded state (MFT image + cursor):
      // admitting a second job while one is queued or running would let
      // two dispatchers race on it. Callers resubmit after the first
      // job's handle reports completion.
      if (!core_->sessions_inflight.insert(st->spec.session).second) {
        return support::Status::failed_precondition(
            "a job for this ScanSession is already queued or running; at "
            "most one job per session may be outstanding");
      }
    }
    st->id = core_->next_id++;
    if (!st->spec.trace.valid()) {
      // No caller-supplied trace: derive one from the job id so any
      // party that knows the id (a remote client, the daemon shard)
      // reconstructs the same trace_id/root span without coordination.
      st->spec.trace = obs::TraceContext::for_job(st->id);
    }
    internal::SchedulerCore::Tenant& t =
        internal::tenant_locked(*core_, st->tenant);
    t.submitted->inc();
    t.queues[st->priority].push_back(st);
    ++t.queued;
    ++core_->queued_total;
    core_->queue_depth->set(static_cast<double>(core_->queued_total));
    internal::enter_ring_locked(*core_, st->tenant);
    core_->live.emplace(st->id, st);
  }
  maybe_spawn_dispatchers();
  return ScanJob(st);
}

void ScanScheduler::resume() {
  {
    support::MutexLock lk(core_->mu);
    core_->paused = false;
  }
  maybe_spawn_dispatchers();
}

void ScanScheduler::maybe_spawn_dispatchers() {
  std::size_t to_spawn = 0;
  {
    support::MutexLock lk(core_->mu);
    if (core_->paused || core_->shutdown) return;
    // Each running job pins its dispatcher, so the demand is running +
    // queued — a submit arriving while every dispatcher is mid-job must
    // still be able to claim an idle pool slot.
    const std::size_t want = std::min(
        core_->max_dispatchers, core_->running + core_->queued_total);
    if (want > core_->dispatchers) to_spawn = want - core_->dispatchers;
    core_->dispatchers += to_spawn;
  }
  // Submitted OUTSIDE the lock: on a 0-worker pool submit() runs the
  // drain inline, and drain locks the same mutex. Callers (the daemon)
  // may hold their own lock across ScanScheduler::submit; that is safe
  // because drain only ever takes core->mu and completion callbacks are
  // invoked from pool workers, never inline under a caller's lock when
  // the pool has dedicated workers — the documented deployment shape.
  for (std::size_t i = 0; i < to_spawn; ++i) {
    auto core = core_;
    // gb-lint: allow(blocking-under-lock)
    pool_.submit([core] { internal::drain(core); });
  }
}

void ScanScheduler::wait_idle() {
  support::CondLock lk(core_->mu);
  core_->idle_cv.wait(lk.native(), [&] {
    return core_->queued_total == 0 && core_->running == 0 &&
           core_->dispatchers == 0;
  });
}

SchedulerStats ScanScheduler::stats() const {
  // Counts are whole numbers accumulated one inc() at a time, so the
  // double->uint64 cast below is exact (doubles hold integers to 2^53).
  const auto count = [](const obs::Counter* c) {
    return static_cast<std::uint64_t>(c->value());
  };
  SchedulerStats s;
  support::MutexLock lk(core_->mu);
  s.queue_depth = core_->queued_total;
  s.running = core_->running;
  s.total_queue_seconds = core_->queue_seconds_total->value();
  s.total_run_seconds = core_->run_seconds_total->value();
  s.max_latency_seconds = core_->max_latency->value();
  for (const auto& [name, t] : core_->tenants) {  // map: sorted by id
    SchedulerStats::Tenant out;
    out.id = name;
    out.weight = t.weight;
    out.submitted = count(t.submitted);
    out.served = count(t.served);
    out.cancelled = count(t.cancelled);
    out.queued = t.queued;
    s.submitted += out.submitted;
    s.served += out.served;
    s.cancelled += out.cancelled;
    s.tenants.push_back(std::move(out));
  }
  return s;
}

namespace {

LatencyQuantiles quantiles_of(const obs::Histogram& h) {
  LatencyQuantiles q;
  q.p50 = h.quantile(0.50);
  q.p95 = h.quantile(0.95);
  q.p99 = h.quantile(0.99);
  return q;
}

}  // namespace

LatencyQuantiles ScanScheduler::queue_wait_quantiles() const {
  return quantiles_of(*core_->queue_wait);
}

LatencyQuantiles ScanScheduler::run_quantiles() const {
  return quantiles_of(*core_->run_seconds);
}

}  // namespace gb::core
