// The daemon's job vocabulary: a scan job described by value.
//
// core::JobSpec carries live pointers (the Machine, a session, engine
// hooks) because the in-process scheduler can. A serving daemon cannot:
// a job must survive a daemon crash inside an append-only journal and
// cross a byte-stream wire protocol, so the fleet-facing description is
// pure data — the machine is named by id and resolved server-side, and
// the config is the small deterministic subset a remote caller may
// choose. JobRequest is that description; it serializes through the same
// ByteWriter/ByteReader primitives as every other on-disk format here.
#pragma once

#include <cstdint>
#include <string>

#include "core/scan_engine.h"
#include "support/bytes.h"
#include "support/status.h"

namespace gb::daemon {

/// Rebuilds a Status from its serialized (code, message) pair, as the
/// journal's complete records and the wire protocol's replies carry it.
/// A code outside the StatusCode enum maps to kInternal.
[[nodiscard]] support::Status status_from_wire(std::uint8_t code,
                                               std::string message);

/// Appends a Status as code (u8) | message_len (u32) | message: the
/// encoding the journal's complete records and the wire's replies share.
void put_status(ByteWriter& w, const support::Status& status);
/// Reads a Status written by put_status. Throws ParseError on truncated
/// input, like the ByteReader it reads from.
[[nodiscard]] support::Status get_status(ByteReader& r);

/// Stable 64-bit hash of a machine id — the shard-partitioning key.
/// support::fnv1a: deterministic across runs and platforms, so a job
/// re-queued after a daemon restart lands on the same shard index.
[[nodiscard]] std::uint64_t machine_shard_hash(std::string_view machine_id);

/// One fleet scan job, by value. Everything here is journal- and
/// wire-serializable; nothing points at live state.
struct JobRequest {
  /// Server-side machine name, resolved through the daemon's machine
  /// catalog at dispatch (and again at journal replay).
  std::string machine_id;
  /// Fair-queuing tenant + within-tenant priority (see ScanScheduler).
  std::string tenant = "default";
  std::int32_t priority = 0;
  core::ScanKind kind = core::ScanKind::kInside;
  /// Resource coverage and the remotely selectable process-view policy.
  core::ResourceMask resources = core::ResourceMask::kAll;
  bool advanced = false;  // scheduler thread-table view (paper's advanced mode)
  core::CarveMode carve = core::CarveMode::kOutsideOnly;
  /// Cross-process trace propagation (see obs/trace.h). Zero means "no
  /// caller-supplied context": the daemon derives the canonical ids from
  /// the assigned job id (obs::TraceContext::for_job), which the client
  /// re-derives from the submit reply — both sides agree without a
  /// second round trip. A non-zero trace_id overrides the derivation so
  /// an outer trace (e.g. a console request id) can adopt the job.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;

  bool operator==(const JobRequest&) const = default;

  /// Projects this request onto an engine config (the scheduler forces
  /// parallelism to 1 itself — the fleet fan-out is the parallelism).
  [[nodiscard]] core::ScanConfig to_scan_config() const {
    core::ScanConfig cfg;
    cfg.resources = resources;
    cfg.processes.scheduler_view = advanced;
    cfg.processes.carve = carve;
    return cfg;
  }

  /// Appends the canonical little-endian encoding (shared by the journal
  /// submit record and the wire submit verb).
  void serialize(ByteWriter& w) const;
  /// Decodes one serialized JobRequest. kCorrupt on truncated input or
  /// out-of-range enum values.
  [[nodiscard]] static support::StatusOr<JobRequest> deserialize(
      ByteReader& r);
};

}  // namespace gb::daemon
