// ScanEngine: the parallel scan session API.
//
// A ScanEngine owns a worker pool, a typed ScanConfig, and a set of
// ResourceScanner providers (core/resource_scanner.h). run(JobSpec) runs
// each of the paper's workflows as phases of one task runner — every view
// of every provider is one task in one parallel_for — followed by one
// diff reduction per provider:
//
//   kInside   — each provider's API view and live trusted views; the file
//               scans split further internally (chunked MFT batches,
//               levelled directory walk, sharded diff);
//   kInjected — Section 5's DLL-injection extension: the live trusted
//               views, then one API scan per (process, provider), whose
//               findings merge deterministically;
//   kOutside  — capture_inside_high() on the infected machine (API views,
//               blue-screen for the dump), power off, then outside_diff()
//               against the clean views of the disk and the dump.
//
// Every parallel path is deterministic by construction — fixed batch
// boundaries, ordered reductions, key-ordered shard merges — so a report
// is byte-identical (wall-clock fields aside) at any parallelism level.
//
// Failures are data, not exceptions: a view that returns a non-OK Status
// (torn hive, scrubbed dump, trashed boot sector, dead scanner context)
// yields a *degraded* DiffReport for that one resource type while every
// other provider's diff is unaffected — the report says what it could
// not see instead of the session aborting.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/differ.h"
#include "core/resource_scanner.h"
#include "core/scan_result.h"
#include "kernel/dump.h"
#include "machine/machine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/cancel.h"
#include "support/status.h"
#include "support/thread_pool.h"

namespace gb::core {

class ScanEngine;
class ScanSession;
struct Report;

namespace internal {
struct SessionState;  // MFT image + journal cursor (core/scan_session.h)
}  // namespace internal

/// How the outside-the-box clean environment is entered (Section 5's
/// automation extensions: enterprise RIS network boot avoids the CD).
enum class OutsideBoot {
  kWinPeCd,       // 1.5-3 minutes of CD boot
  kRisNetworkBoot // enterprise Remote Installation Service: faster, no media
};

/// Which resource types a scan covers.
enum class ResourceMask : std::uint32_t {
  kNone = 0,
  kFiles = 1u << 0,
  kAseps = 1u << 1,
  kProcesses = 1u << 2,
  kModules = 1u << 3,
  kAll = kFiles | kAseps | kProcesses | kModules,
};

constexpr ResourceMask operator|(ResourceMask a, ResourceMask b) {
  return static_cast<ResourceMask>(static_cast<std::uint32_t>(a) |
                                   static_cast<std::uint32_t>(b));
}
constexpr ResourceMask operator&(ResourceMask a, ResourceMask b) {
  return static_cast<ResourceMask>(static_cast<std::uint32_t>(a) &
                                   static_cast<std::uint32_t>(b));
}
constexpr ResourceMask operator~(ResourceMask a) {
  return static_cast<ResourceMask>(~static_cast<std::uint32_t>(a) &
                                   static_cast<std::uint32_t>(
                                       ResourceMask::kAll));
}
constexpr bool has(ResourceMask mask, ResourceMask flag) {
  return (mask & flag) != ResourceMask::kNone;
}

/// The mask bit covering one diffed resource type.
constexpr ResourceMask mask_for(ResourceType type) {
  switch (type) {
    case ResourceType::kFile: return ResourceMask::kFiles;
    case ResourceType::kAsepHook: return ResourceMask::kAseps;
    case ResourceType::kProcess: return ResourceMask::kProcesses;
    case ResourceType::kModule: return ResourceMask::kModules;
  }
  return ResourceMask::kNone;
}

// --- per-resource policies -------------------------------------------------

struct RegistryPolicy {
  /// Flush the live hives to their backing files before the low-level
  /// scan re-parses them. The engine performs the flush serially, before
  /// any task runs, so nothing writes the disk mid-scan.
  bool flush_hives_first = true;
};

/// When the signature-carving process view runs (see kernel/carve.h and
/// the "carve" ViewDef in core/resource_scanner.cpp).
enum class CarveMode {
  /// Default: carve the blue-screen dump's raw bytes during the
  /// outside-the-box diff — the sweep that survives dump scrubbing.
  kOutsideOnly,
  /// Never carve.
  kOff,
  /// Additionally sweep a serialization of live kernel memory during
  /// inside scans (no blue screen; scrubber hooks never run).
  kOn,
};

struct ProcessPolicy {
  /// Use the scheduler thread table *in addition to* the Active Process
  /// List as a low-level process view (finds FU's DKOM hiding) — the
  /// paper's "advanced mode".
  bool scheduler_view = false;
  /// Signature-carving view registration (--carve / --no-carve).
  CarveMode carve = CarveMode::kOutsideOnly;
};

/// Typed scan-session configuration. Work granularity is not
/// configurable: MFT batches (ntfs::kScanBatchRecords) and carve chunks
/// (the kernel's default) are fixed, and diff shards come from one cost
/// model (ShardPlan in core/differ.h) — none from the worker count.
struct ScanConfig {
  ResourceMask resources = ResourceMask::kAll;
  /// Concurrent executors (pool workers + the calling thread). 1 runs
  /// everything inline on the caller — the serial reference path.
  /// 0 picks one executor per hardware core.
  std::size_t parallelism = 0;
  RegistryPolicy registry;
  ProcessPolicy processes;
  /// Image whose process context runs the high-level scans. Spawned from
  /// C:\windows\system32\ if not already running.
  std::string scanner_image = "ghostbuster.exe";
  /// Boot mechanism of the outside-the-box run (ScanKind::kOutside).
  OutsideBoot outside_boot = OutsideBoot::kWinPeCd;
  /// Collect run telemetry: the deterministic "metrics" block in report
  /// JSON (schema v2.3) plus engine/pool counters in the registry below.
  /// Off, reports carry "metrics":null and the engine touches no
  /// registry — the scan output bytes are identical either way.
  bool collect_metrics = true;
  /// Registry receiving engine + pool telemetry when collect_metrics is
  /// on. Null uses obs::default_registry() (what the CLI's --metrics
  /// flag exports); tests and schedulers pass their own for isolation.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Which of the paper's workflows a job runs — the shared vocabulary of
/// ScanEngine::run and ScanScheduler::submit.
enum class ScanKind {
  kInside,    // inside-the-box cross-view diff (Section 2)
  kInjected,  // Section 5's DLL-injection sweep over every process
  kOutside,   // full outside-the-box run (capture, blue-screen, diff)
};

/// One scan job, described machine-readably: what to scan (machine +
/// resource mask via `config`), how (kind + per-resource policies), and
/// for whom (tenant + priority, which drive the scheduler's weighted
/// fair queuing). Direct ScanEngine::run callers use kind/cancel/
/// progress and may leave the rest defaulted; ScanScheduler::submit
/// requires `machine` and reads every field.
struct JobSpec {
  /// Machine to scan. Required by ScanScheduler::submit; ignored by
  /// ScanEngine::run (an engine is already bound to its machine).
  machine::Machine* machine = nullptr;
  /// Fair-queuing key: jobs are served round-robin across tenants in
  /// proportion to per-tenant weights, so one flooding tenant cannot
  /// starve the rest of the fleet.
  std::string tenant = "default";
  /// Within-tenant ordering: higher priorities dispatch first; equal
  /// priorities dispatch in submission order.
  int priority = 0;
  ScanKind kind = ScanKind::kInside;
  /// Session configuration (resource mask, policies). The scheduler
  /// builds each job's engine from this; it forces parallelism to 1 —
  /// the fleet fan-out is the parallelism, a per-job pool would
  /// oversubscribe the shared workers.
  ScanConfig config{};
  /// Cooperative cancellation: checked at provider-task boundaries. A
  /// cancelled run returns Status kCancelled, never a torn report.
  /// ScanScheduler wires this to the ScanJob handle's token.
  const support::CancelToken* cancel = nullptr;
  /// Optional progress sink (tasks completed / discovered).
  support::TaskCounter* progress = nullptr;
  /// Hook run on the freshly built engine before the scan (register
  /// extra providers, tweak instrumentation). Scheduler-only.
  std::function<void(ScanEngine&)> configure_engine{};
  /// Completion hook, scheduler-only: invoked exactly once per submitted
  /// job — after a dispatched run finishes, when a queued job is
  /// cancelled, or when scheduler shutdown cancels it — with the
  /// scheduler-assigned job id and the (mutable) result, always OUTSIDE
  /// scheduler locks. For dispatched runs it fires before waiters observe
  /// the job as done, so a serving layer can stamp provenance into the
  /// report and journal the completion durably before any client reads
  /// the result; for cancelled-while-queued jobs it fires just after the
  /// handle completes. ScanEngine::run ignores it. The hook may take its
  /// own locks but must not re-enter the scheduler.
  std::function<void(std::uint64_t job_id, support::StatusOr<Report>& result)>
      on_complete{};
  /// Scheduled incremental re-scan: when set, ScanScheduler::submit runs
  /// session->rescan() — reusing the session's snapshot + journal cursor
  /// — instead of building a fresh engine, and `machine`/`config`/
  /// `configure_engine` are ignored (the session's engine already owns
  /// them). The session (and its engine and machine) must outlive the
  /// job. kind must be kInside (only the inside scan has an incremental
  /// form); both ScanEngine::run and ScanScheduler::submit reject any
  /// other kind with kFailedPrecondition. A session is not thread-safe,
  /// so at most one job per session may be outstanding at a time:
  /// submit() rejects a session that already has a job queued or
  /// running (kFailedPrecondition) — resubmit once that job's handle
  /// reports completion.
  ScanSession* session = nullptr;
  /// Distributed-trace identity for this job. When left invalid (zero),
  /// ScanScheduler::submit derives a deterministic context from the
  /// assigned job id (obs::TraceContext::for_job), so a remote client
  /// that re-derives from the same id joins the very same trace without
  /// an extra round trip. Spans opened while the job runs — scheduler,
  /// engine, providers on the dispatching thread — parent under it.
  obs::TraceContext trace{};
};

/// Provenance of one incremental re-scan, serialized as the report's
/// "incremental" block (schema v2.4) and queryable via
/// ScanSession::last_sync(). Counts describe MFT record *slots*:
/// `records_reparsed` were freshly read-and-parsed this sync (on a
/// fallback, that is every slot); `records_spliced` are the rest, kept
/// from the session's image without a parse.
struct IncrementalStats {
  /// False on the first scan of a session and whenever a fallback forced
  /// a full walk.
  bool incremental = false;
  /// Why the full walk ran ("cold start", "journal wrapped", ...);
  /// empty when `incremental` is true.
  std::string fallback_reason;
  std::uint64_t journal_id = 0;
  /// Journal cursor after the sync (the next USN to consume).
  std::uint64_t cursor = 0;
  /// Journal records consumed by this sync.
  std::uint64_t journal_records = 0;
  std::uint64_t records_reparsed = 0;
  std::uint64_t records_spliced = 0;
};

struct Report {
  std::vector<DiffReport> diffs;
  double total_simulated_seconds = 0;
  /// Real elapsed time of the engine call that produced this report
  /// (per-diff wall times sum the contributing scans' durations, so they
  /// exceed this when the engine ran them concurrently).
  double total_wall_seconds = 0;
  /// Executors the producing engine ran with (workers + caller).
  std::size_t worker_threads = 1;

  /// Fleet-scheduling provenance, set by ScanScheduler on reports it
  /// produced (absent for direct engine runs). Serialized under the
  /// "scheduler" key in schema v2.2.
  struct SchedulerTag {
    std::string tenant;
    std::uint64_t job_id = 0;
    int priority = 0;
    /// Time the job spent queued (submit -> dispatch), measured on the
    /// steady clock — never negative, immune to wall-clock adjustment.
    double queue_seconds = 0;
  };
  std::optional<SchedulerTag> scheduler;

  /// Deterministic run telemetry, serialized under the "metrics" key in
  /// schema v2.3 (null when ScanConfig::collect_metrics is false). Every
  /// field depends only on scan content and the simulated cost model —
  /// never on worker count or wall clock — so the block survives the
  /// byte-identical-at-any-parallelism contract.
  struct Metrics {
    std::uint64_t provider_scans = 0;    // view scans attempted
    std::uint64_t scan_failures = 0;     // views that returned non-OK
    std::uint64_t degraded_diffs = 0;    // diffs carrying a failure
    std::uint64_t hidden_resources = 0;  // findings across all diffs
    std::uint64_t extra_resources = 0;   // extra-in-API-view entries
  };
  std::optional<Metrics> metrics;

  /// Incremental-scan provenance, set on reports produced by
  /// ScanSession::rescan() (absent for cold engine runs). Serialized
  /// under the "incremental" key in schema v2.4 (null when absent). Like
  /// "metrics", every field is deterministic — journal cursors and
  /// splice counts depend only on the mutation history, never on worker
  /// count — so the block survives the byte-identical contract.
  std::optional<IncrementalStats> incremental;

  [[nodiscard]] bool infection_detected() const;
  /// True when any per-resource diff is degraded (partial report).
  [[nodiscard]] bool degraded() const;
  [[nodiscard]] std::size_t hidden_count(ResourceType type) const;
  [[nodiscard]] std::vector<Finding> all_hidden() const;
  [[nodiscard]] const DiffReport* diff_for(ResourceType type) const;
  /// Human-readable report (what the tool prints for the user).
  [[nodiscard]] std::string to_string() const;
  /// Machine-readable report (for SIEM/automation pipelines), schema
  /// version 2.5: per-diff wall/simulated timing, the worker-thread
  /// count, per-resource scan status (`status`, `degraded`, `error`) so
  /// partial results are first-class, a per-diff "views" array (one
  /// entry per contributing view: id, name, trust, count, status) of
  /// which the high_view/low_view pair is a projection, per-finding
  /// "found_in"/"missing_from" view-id arrays, a top-level "scheduler"
  /// object (null for direct engine runs) carrying fleet provenance —
  /// tenant, job id, priority, queue latency — a top-level "metrics"
  /// object (null when collection is off) with the deterministic run
  /// telemetry above, and a top-level "incremental" object (null for
  /// cold runs) with the re-scan provenance. Strings are JSON-escaped;
  /// embedded NULs and control bytes appear as \u00XX.
  [[nodiscard]] std::string to_json() const;
};

/// `json` (a Report::to_json document) with the fields two runs of the
/// same scan may legitimately disagree on zeroed: every "wall_seconds"
/// and "queue_seconds" number and the "worker_threads" count become 0.
/// With `drop_incremental`, an "incremental" provenance object becomes
/// null as well — the only other bytes a session rescan and a cold scan
/// of the same machine state may differ in. Everything else is kept
/// byte for byte, so two normalized reports compare with ==.
[[nodiscard]] std::string normalize_report_json(std::string_view json,
                                                bool drop_incremental = false);

/// Phase 1 of the outside-the-box workflow: high-level (API) snapshots
/// taken on the live, infected machine, plus the blue-screen kernel dump
/// when some enabled provider needs it. Per-entry scans can individually
/// fail; outside_diff() turns those into degraded diffs.
struct InsideCapture {
  struct Entry {
    ResourceType type = ResourceType::kFile;
    support::StatusOr<ScanResult> high;
  };
  std::vector<Entry> entries;  // in provider registration order
  std::optional<kernel::KernelDump> dump;
  /// The raw blue-screen image, kept even when parsing failed: the
  /// signature-carving view sweeps these bytes directly, so a scrubbed
  /// or truncated dump still yields evidence. Empty when no view asked
  /// for a dump.
  std::vector<std::byte> dump_bytes;
  /// Why `dump` is absent when a view wanted it (e.g. a scrubber
  /// corrupted the blue-screen write). OK when the dump is present or
  /// no registered view needs one.
  support::Status dump_status;
};

/// Spec for ScanEngine::open_session().
struct SessionSpec {
  /// Paranoia mode: before splicing, re-read and re-parse every MFT
  /// record and every directory index blob, and fall back to a full walk
  /// if any slot differs from what the image holds — an out-of-band write
  /// the journal never saw. Costs a full walk's reads and parses per
  /// rescan: it trades the parse savings for tamper evidence. A default
  /// session trusts the journal: record bytes and index blobs written
  /// behind the volume driver's back reach its reports only at the next
  /// full walk.
  bool verify_spliced = false;
};

/// An incremental scanning session: keeps the volume's MFT image and the
/// change-journal cursor between scans of one machine, in memory only.
///
/// rescan() consults the journal for what changed since the previous
/// scan, re-parses only those MFT records, splices the image's parses for
/// the rest, re-reads and re-parses every hive payload as a cold scan
/// does, and returns a Report that is byte-for-byte identical (modulo
/// wall-clock fields) to a cold ScanEngine inside scan of the same
/// machine state — at O(changes) low-level cost instead of O(volume).
/// When the journal cannot vouch for the snapshot (cold start, journal
/// wrapped/reset, digest mismatch under verify_spliced), rescan() falls
/// back to a full walk and says so in the report's "incremental" block.
///
/// The session borrows its engine (and the engine its machine): both
/// must outlive it. Like the engine, a session is not thread-safe.
class ScanSession {
 public:
  ~ScanSession();
  ScanSession(ScanSession&&) noexcept;

  /// Incremental inside scan; never fails (no cancel token). Advances
  /// the machine's virtual clock exactly as a cold inside scan would.
  Report rescan();
  /// Cancellable/observable form (what ScanScheduler drives). Returns
  /// kCancelled when the token was raised before completion; the
  /// snapshot keeps its pre-scan cursor, so the next rescan simply
  /// re-syncs the skipped changes.
  [[nodiscard]] support::StatusOr<Report> rescan(
      const support::CancelToken* cancel,
      support::TaskCounter* progress = nullptr);

  /// Provenance of the latest rescan()'s snapshot sync.
  [[nodiscard]] const IncrementalStats& last_sync() const;

  [[nodiscard]] machine::Machine& machine() const;
  [[nodiscard]] ScanEngine& engine() const { return *engine_; }

 private:
  friend class ScanEngine;
  ScanSession(ScanEngine& engine, SessionSpec spec);

  ScanEngine* engine_;
  std::unique_ptr<internal::SessionState> state_;
};

/// One scan engine bound to one machine: owns the worker pool, so
/// repeated scans amortize thread startup. Not itself thread-safe — use
/// one engine per thread (engines on *different* machines may run
/// concurrently, as in a fleet sweep).
class ScanEngine {
 public:
  explicit ScanEngine(machine::Machine& m, ScanConfig cfg = {});

  /// The entry point: dispatches on spec.kind and honors spec.cancel /
  /// spec.progress. Returns the report, or Status kCancelled when the
  /// token was raised before the scan completed (the partial work is
  /// discarded whole — no torn report, no clock advance). The scan
  /// advances the machine's virtual clock by its simulated time; an
  /// outside run leaves the machine powered off. spec.machine/tenant/
  /// priority/config/configure_engine describe the job to a scheduler;
  /// an already-constructed engine ignores them.
  [[nodiscard]] support::StatusOr<Report> run(const JobSpec& spec);

  /// Opens an incremental scanning session against this engine's
  /// machine. The session's first rescan() is a full walk that builds
  /// its MFT image; later rescans are O(changes). The engine must
  /// outlive the session.
  [[nodiscard]] ScanSession open_session(SessionSpec spec = {});

  // --- the outside-the-box run in two phases ------------------------------
  // run(kOutside) is capture_inside_high(), shutdown, boot delay, then
  // outside_diff(). Call the phases directly to act on the machine in
  // between (halt a VM from the host, archive the dump, prove the diff
  // refuses a running machine).

  /// Phase 1: the API views on the live machine, then the blue-screen
  /// dump if an outside view needs one. Leaves the machine halted (dump)
  /// or running (no dump) — callers shut it down next.
  InsideCapture capture_inside_high();

  /// Phase 2: diffs the capture against the clean views of the powered-
  /// off disk (WinPE) and the captured dump. Throws std::logic_error if
  /// the machine is running.
  Report outside_diff(const InsideCapture& capture);

  /// Adds a provider after the defaults chosen by the config's resource
  /// mask. Its diff is appended to reports in registration order.
  void register_scanner(std::unique_ptr<ResourceScanner> scanner);

  machine::Machine& machine() { return machine_; }
  /// Executors: pool workers + the calling thread.
  std::size_t worker_count() const { return pool_.size() + 1; }

 private:
  /// The scan kinds, composed over the task runner in scan_engine.cpp;
  /// `job` supplies the cancel token and progress sink. With a session,
  /// run_inside syncs the session's image against the change journal
  /// instead of building a fresh one, and the report gets its
  /// "incremental" block.
  [[nodiscard]] support::StatusOr<Report> run_inside(
      const JobSpec& job, internal::SessionState* session = nullptr);
  [[nodiscard]] support::StatusOr<Report> run_injected(const JobSpec& job);
  [[nodiscard]] support::StatusOr<Report> run_outside(const JobSpec& job);
  InsideCapture capture(const JobSpec& job);
  [[nodiscard]] support::StatusOr<Report> diff_capture(
      const InsideCapture& capture, const JobSpec& job);

  winapi::Ctx scanner_context();
  /// Each provider's live trusted views, in provider order.
  std::vector<std::vector<ResourceScanner::ViewDef>> live_views() const;
  /// The task context of a live phase over `defs`. When a view reads the
  /// MFT (or `session` is set) it syncs the scan's one MFT image first:
  /// the session's state, or else `cold`, emplaced empty.
  ScanTaskContext live_context(
      const std::vector<std::vector<ResourceScanner::ViewDef>>& defs,
      internal::SessionState* session,
      std::optional<internal::SessionState>& cold);
  /// Totals the report, advances the clock, and — with telemetry on —
  /// fills the metrics block from `tally` (the reductions' view counts).
  void finalize(Report& report, double wall_seconds, const char* kind,
                const Report::Metrics& tally);
  void flush_hives_if_needed();

  friend class ScanSession;  // drives run_inside with its state

  machine::Machine& machine_;
  ScanConfig cfg_;
  support::ThreadPool pool_;
  std::vector<std::unique_ptr<ResourceScanner>> scanners_;
  /// Telemetry sink; null when cfg_.collect_metrics is false.
  obs::MetricsRegistry* registry_ = nullptr;
};

}  // namespace gb::core
