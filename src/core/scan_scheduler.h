// Fleet-scale scan scheduling — Section 5's enterprise automation as a
// service, not a shell loop.
//
// The paper's enterprise story scans tens of thousands of desktops from
// one management console. A thread per machine does not survive that
// scale; a fixed worker pool serving a fleet-wide queue does. This layer
// multiplexes many machines' scan jobs over one shared
// support::ThreadPool:
//
//   * ScanScheduler::submit(JobSpec) -> ScanJob. The JobSpec names the
//     machine, the tenant, a priority, the scan kind, and the resource
//     mask; the returned ScanJob is a future-like session handle —
//     wait(), try_result(), cancel(), progress().
//   * Tenant fairness is deficit round-robin: each tenant's queue earns
//     `weight` units of service per round and one unit buys one job, so
//     a tenant flooding 10,000 submissions still only gets its weighted
//     share of dispatch slots and cannot starve the other tenants.
//   * Within a tenant, higher priority dispatches first; ties dispatch
//     in submission order.
//   * Cancellation is cooperative (see support/cancel.h): cancel() on a
//     queued job completes it immediately with kCancelled; on a running
//     job it raises the token the engine polls at provider-task
//     boundaries. Either way the result is a clean kCancelled status,
//     never a torn report.
//   * Each dispatched job runs on ONE worker with engine parallelism
//     forced to 1: the fleet fan-out is the parallelism. Per-job reports
//     are therefore byte-identical (timing fields aside) no matter how
//     many scheduler workers serve the fleet.
//   * Machines are not internally synchronized, so at most one job runs
//     per Machine at a time: a dispatched job whose machine (for a
//     session job, its session's machine) another job holds waits on
//     its worker until that run finishes, and the wait counts as queue
//     time. Jobs for distinct machines run in parallel; a caller that
//     keeps one job per machine in flight never waits.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/scan_engine.h"
#include "obs/metrics.h"
#include "support/cancel.h"
#include "support/status.h"
#include "support/thread_pool.h"

namespace gb::core {

namespace internal {
struct JobState;
struct SchedulerCore;
}  // namespace internal

/// Where a job is in its lifecycle. Queued -> Running -> Done is the
/// normal path; Queued -> Done happens when a queued job is cancelled.
enum class JobPhase : int { kQueued = 0, kRunning = 1, kDone = 2 };

const char* job_phase_name(JobPhase phase);

/// Progress snapshot of one job: provider tasks retired vs discovered.
struct JobProgress {
  JobPhase phase = JobPhase::kQueued;
  std::uint32_t tasks_done = 0;
  std::uint32_t tasks_total = 0;  // grows as the scan discovers work
};

/// Future-like handle to one submitted scan job. Cheap to move, safe to
/// destroy before the job finishes (the scheduler keeps the underlying
/// state alive; an abandoned handle just loses the ability to observe
/// the result). All methods may be called from any thread.
class ScanJob {
 public:
  ScanJob() = default;
  ScanJob(ScanJob&&) = default;
  ScanJob& operator=(ScanJob&&) = default;
  ScanJob(const ScanJob&) = delete;
  ScanJob& operator=(const ScanJob&) = delete;

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  /// Scheduler-assigned id, unique per scheduler, in submission order.
  [[nodiscard]] std::uint64_t id() const;
  [[nodiscard]] const std::string& tenant() const;

  /// Blocks until the job completes (successfully, with an error, or
  /// cancelled) and returns the result. The report of a completed job
  /// carries Report::scheduler provenance; a cancelled job yields
  /// Status kCancelled.
  support::StatusOr<Report>& wait();

  /// Non-blocking: the result if the job already completed, nullptr
  /// otherwise.
  support::StatusOr<Report>* try_result();

  /// Requests cancellation. A still-queued job completes immediately
  /// with kCancelled and never touches its machine; a running job's
  /// engine observes the token at the next provider-task boundary and
  /// bails out whole. Idempotent; returns true if this call initiated a
  /// cancellation (false when the job already finished or a cancel was
  /// already requested).
  bool cancel();

  [[nodiscard]] JobProgress progress() const;

 private:
  friend class ScanScheduler;
  explicit ScanJob(std::shared_ptr<internal::JobState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::JobState> state_;
};

/// Point-in-time scheduler counters, for ops dashboards. All counts are
/// cumulative since construction except queue_depth/running (current).
struct SchedulerStats {
  struct Tenant {
    std::string id;
    std::uint32_t weight = 1;
    std::uint64_t submitted = 0;
    std::uint64_t served = 0;     // completed (ok or error), not cancelled
    std::uint64_t cancelled = 0;  // cancelled before or during dispatch
    std::size_t queued = 0;       // currently waiting
  };

  std::size_t queue_depth = 0;  // jobs waiting across all tenants
  std::size_t running = 0;      // jobs currently on a worker
  std::uint64_t submitted = 0;
  std::uint64_t served = 0;
  std::uint64_t cancelled = 0;
  /// Summed submit->dispatch and dispatch->done wall times across served
  /// jobs (divide by `served` for means).
  double total_queue_seconds = 0;
  double total_run_seconds = 0;
  /// Largest submit->done latency seen so far.
  double max_latency_seconds = 0;
  std::vector<Tenant> tenants;  // sorted by tenant id

  [[nodiscard]] std::string to_string() const;
  /// Machine-readable counters (schema_version 2.3).
  [[nodiscard]] std::string to_json() const;
};

/// Rolling latency quantiles read back from one scheduler's histograms
/// (estimates via obs::Histogram::quantile — linear interpolation
/// within the containing bucket). Zeros when nothing was observed.
struct LatencyQuantiles {
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

/// Multiplexes scan jobs for many machines over one shared worker pool.
/// Thread-safe: submit/cancel/stats may race freely. Destruction cancels
/// everything still queued or running and waits for in-flight jobs to
/// drain, so ScanJob handles outlive their scheduler safely (results of
/// jobs cancelled by shutdown read kCancelled).
class ScanScheduler {
 public:
  struct Options {
    /// Shared pool width — how many scans run concurrently. 0 means one
    /// dispatcher running jobs inline on the submitting/waiting thread
    /// context via the pool's serial mode (still fully ordered).
    std::size_t workers = 2;
    /// Start with dispatch paused: jobs queue but nothing runs until
    /// resume(). Lets tests (and staged rollouts) build a backlog and
    /// then observe the exact dispatch order.
    bool start_paused = false;
    /// Registry receiving scheduler telemetry (per-tenant submit/serve/
    /// cancel counters, the gb_sched_queue_wait_seconds histogram,
    /// queue-depth and deficit gauges) and each dispatched job's engine
    /// metrics. SchedulerStats is built by reading it back. Null gives
    /// the scheduler a private registry, so stats from concurrent
    /// schedulers never mix; the CLI passes obs::default_registry() so
    /// one --metrics dump covers the whole process.
    obs::MetricsRegistry* metrics = nullptr;
  };

  ScanScheduler();  // default Options
  explicit ScanScheduler(Options opts);
  ~ScanScheduler();
  ScanScheduler(const ScanScheduler&) = delete;
  ScanScheduler& operator=(const ScanScheduler&) = delete;

  /// Declares a tenant's fair-share weight (default 1). A tenant with
  /// weight w gets w dispatch slots per round-robin round while it has
  /// queued work. Implicitly creates the tenant; may be called before or
  /// after its first submit, taking effect at the next round.
  void set_tenant_weight(const std::string& tenant, std::uint32_t weight);

  /// Enqueues a job. spec.machine must be non-null (kFailedPrecondition
  /// otherwise — checked here, not at dispatch). The spec's cancel and
  /// progress pointers are scheduler-owned on this path; caller-supplied
  /// values are ignored in favor of the handle's own token and counter.
  [[nodiscard]] support::StatusOr<ScanJob> submit(JobSpec spec);

  /// Begins (or resumes) dispatch after Options::start_paused.
  void resume();

  /// Blocks until no job is queued or running. New submissions during
  /// the wait extend it; with dispatch paused this returns only once the
  /// queue is empty (i.e. immediately unless jobs got cancelled).
  void wait_idle();

  [[nodiscard]] SchedulerStats stats() const;

  /// Submit->dispatch wait quantiles (gb_sched_queue_wait_seconds).
  [[nodiscard]] LatencyQuantiles queue_wait_quantiles() const;
  /// Dispatch->done run-time quantiles (gb_sched_run_seconds).
  [[nodiscard]] LatencyQuantiles run_quantiles() const;

 private:
  void maybe_spawn_dispatchers();

  /// Shared with every JobState so ScanJob handles stay usable after the
  /// scheduler is gone (their jobs are all complete by then).
  std::shared_ptr<internal::SchedulerCore> core_;
  /// Declared last: destroyed first, so pool teardown joins dispatcher
  /// tasks while core_ is still alive for them to touch.
  support::ThreadPool pool_;
};

}  // namespace gb::core
