// gb::client — the one fleet-scan client API, over two transports.
//
// Before this layer, callers picked their abstraction by picking a
// process boundary: in-process code drove ScanScheduler/ScanJob
// directly, and anything out-of-process had no API at all. gb::client
// unifies them: submit(JobSpec) returns a JobHandle with the same
// wait / try_result / cancel / progress surface as ScanJob, and the
// transport is an implementation detail —
//
//   * InProcessClient owns a ScanScheduler and runs scans in this
//     process (what examples/enterprise_sweep and `gb scan --fleet`
//     use);
//   * DaemonClient speaks the wire protocol over a daemon::Transport
//     to a (possibly restarted) Daemon, which adds journals, quotas
//     and shards without the caller changing a line.
//
// Results are delivered as schema-v2 report JSON — the only form that
// crosses the wire unchanged — so code written against JobResult works
// identically on both transports.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "core/scan_scheduler.h"
#include "daemon/job_request.h"
#include "daemon/transport.h"
#include "daemon/wire.h"
#include "machine/machine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/status.h"

namespace gb::client {

/// The job description clients submit. One value type for both
/// transports (it is what the daemon journals and the wire carries).
using JobSpec = daemon::JobRequest;

/// Terminal outcome of one job.
struct JobResult {
  /// OK, the scan's own error, kCancelled, or — DaemonClient only — a
  /// transport failure (kUnavailable/kCorrupt) if the connection died
  /// before the result arrived.
  support::Status status;
  /// Schema-v2 report JSON; empty unless status is OK.
  std::string report_json;
};

namespace internal {
class HandleImpl;
struct WireConnection;
}  // namespace internal

/// Future-like handle to one submitted job, mirroring core::ScanJob.
/// Cheap to copy (shared state); safe to destroy before completion.
/// All methods may be called from any thread, though on a DaemonClient
/// handle a blocked wait() serializes the connection (other RPCs on
/// the same client wait their turn).
class JobHandle {
 public:
  JobHandle() = default;

  [[nodiscard]] bool valid() const { return impl_ != nullptr; }
  /// Id in the submitting client's domain: the scheduler job id for
  /// InProcessClient, the daemon's journaled (restart-stable) id for
  /// DaemonClient.
  [[nodiscard]] std::uint64_t id() const;

  /// Blocks until the job is terminal; the result is cached, so later
  /// calls are free. The reference lives as long as this handle.
  const JobResult& wait();

  /// Non-blocking: the result if terminal, nullptr while running (or,
  /// for DaemonClient, if the connection failed — poll again or wait()).
  const JobResult* try_result();

  /// Requests cancellation; true if this call initiated it. Through a
  /// daemon the cancel is journaled, so it survives a daemon restart.
  bool cancel();

  /// Progress snapshot. Best-effort over the wire: a failed poll
  /// reports a default (queued, 0/0) snapshot.
  [[nodiscard]] core::JobProgress progress() const;

 private:
  friend class InProcessClient;
  friend class DaemonClient;
  explicit JobHandle(std::shared_ptr<internal::HandleImpl> impl)
      : impl_(std::move(impl)) {}

  std::shared_ptr<internal::HandleImpl> impl_;
};

/// The transport-agnostic client surface.
class Client {
 public:
  virtual ~Client() = default;

  /// Submits one job. Errors mirror the serving side: kNotFound for an
  /// unknown machine, kResourceExhausted over quota (daemon),
  /// kUnavailable when the service or connection is down.
  [[nodiscard]] virtual support::StatusOr<JobHandle> submit(
      const JobSpec& spec) = 0;

  /// Serving-side stats as JSON (SchedulerStats for InProcessClient,
  /// DaemonStats for DaemonClient).
  [[nodiscard]] virtual support::StatusOr<std::string> stats_json() = 0;
};

/// Runs jobs on a ScanScheduler it owns — the zero-infrastructure
/// transport.
class InProcessClient final : public Client {
 public:
  struct Options {
    /// Scheduler worker-pool width (>= 1; the fleet is the parallelism).
    std::size_t workers = 2;
    /// Queue jobs but dispatch nothing until resume().
    bool start_paused = false;
    /// DRR weights (absent tenant = 1).
    std::map<std::string, std::uint32_t> tenant_weights;
    /// Maps JobSpec::machine_id to the Machine to scan. Required.
    std::function<machine::Machine*(const std::string&)> resolve_machine;
    /// Scheduler telemetry sink (null = private registry).
    obs::MetricsRegistry* metrics = nullptr;
  };

  explicit InProcessClient(Options opts);

  [[nodiscard]] support::StatusOr<JobHandle> submit(
      const JobSpec& spec) override;
  [[nodiscard]] support::StatusOr<std::string> stats_json() override;

  // Local-only controls, passed through to the owned scheduler.
  void resume() { scheduler_.resume(); }
  void wait_idle() { scheduler_.wait_idle(); }
  [[nodiscard]] core::SchedulerStats stats() const {
    return scheduler_.stats();
  }

 private:
  Options opts_;
  core::ScanScheduler scheduler_;
};

/// Speaks the wire protocol to a Daemon over one connection. RPCs are
/// serialized on that connection; a corrupt or closed stream fails the
/// in-flight call with kCorrupt/kUnavailable and poisons the client
/// (subsequent calls fail fast — reconnect by building a new client).
class DaemonClient final : public Client {
 public:
  explicit DaemonClient(std::shared_ptr<daemon::Transport> connection);
  ~DaemonClient() override;

  [[nodiscard]] support::StatusOr<JobHandle> submit(
      const JobSpec& spec) override;
  [[nodiscard]] support::StatusOr<std::string> stats_json() override;

  /// Re-attaches to a job submitted by an earlier client (the daemon's
  /// job ids are journaled, so they survive both client and daemon
  /// restarts). The handle works exactly like one from submit().
  [[nodiscard]] JobHandle attach(std::uint64_t job_id);

  /// The daemon's Prometheus metrics exposition (kStats verb).
  [[nodiscard]] support::StatusOr<std::string> metrics_text();

  /// The daemon's span tree for one job (kTrace verb): every event the
  /// daemon recorded under the job's trace id, pid-stamped 2. Merge
  /// with the local tracer's events (obs::merge docs in
  /// docs/observability.md) and render via obs::chrome_trace_json for
  /// the single cross-process trace `gb trace <job-id>` writes.
  [[nodiscard]] support::StatusOr<std::vector<obs::TraceEvent>> trace(
      std::uint64_t job_id);

  /// The daemon's health/SLO surface (kHealth verb): per-subsystem
  /// verdicts plus rolling latency quantiles, as JSON.
  [[nodiscard]] support::StatusOr<std::string> health_json();

 private:
  /// One kStats exchange: header + chunk stream, reassembled.
  [[nodiscard]] support::StatusOr<daemon::StatsReply> stats_rpc();

  std::shared_ptr<internal::WireConnection> conn_;
};

/// Merges daemon-fetched trace events with the local tracer's by span
/// id: daemon events come first; local events whose span id the daemon
/// already returned win their pid back (they were recorded in THIS
/// process — the in-process-transport case, where both sides share one
/// tracer); local-only events append as pid 1. The result renders as
/// one multi-process Chrome trace either way.
[[nodiscard]] std::vector<obs::TraceEvent> merge_trace_events(
    std::vector<obs::TraceEvent> daemon_events,
    std::vector<obs::TraceEvent> local_events);

/// Report JSON with the wall-clock-derived fields (wall_seconds,
/// queue_seconds, worker_threads) normalized to 0 — the projection in
/// which reports are byte-identical across worker counts, restarts and
/// journal replays. What the kill-and-restart tests and bench_daemon
/// compare; core::normalize_report_json under the client's name.
[[nodiscard]] std::string normalized_report_json(std::string_view report_json);

}  // namespace gb::client
