// Flight recorder: a lock-cheap ring buffer of structured lifecycle
// events with CRC-framed persistence, readable after a crash.
//
// The job journal records what the daemon *owes* (which jobs must
// survive); the flight recorder records what the daemon was *doing* —
// submits, dispatch starts, completions, admission rejections, per-view
// degradations, journal truncations, the kill itself. Every append is
// framed and flushed before it returns, exactly like a journal record,
// so `gb_daemond --flight-recorder` can replay the last N events of a
// daemon that died mid-job.
//
// The file is a support::RecordFile ("GBEL", version 1, records up to
// 64 KiB), the job journal's format. RecordFile owns the framing and the
// torn-tail and sticky-failure rules; this class keeps the ring and the
// payload codec:
//
//   payload  seq (u64) | type (u8) | job id (u64) | ts_us (u64)
//            | detail_len (u32) | detail bytes
//
// Determinism: the recorder observes; it never feeds back into scan
// output. Reports are byte-identical with the event log on or off.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "support/record_file.h"
#include "support/status.h"
#include "support/thread_annotations.h"

namespace gb::obs {

/// What happened. Values are the on-disk encoding — append only.
enum class EventType : std::uint8_t {
  kSubmit = 1,            // job accepted and journaled
  kStart = 2,             // job dispatched to a shard scheduler
  kComplete = 3,          // terminal result published
  kCancel = 4,            // cancelled (client ask or crash requeue race)
  kRejected = 5,          // admission control refused the submit
  kDegraded = 6,          // a view degraded inside the job's report
  kJournalTruncated = 7,  // torn journal tail dropped at open
  kRequeued = 8,          // replay re-queued an interrupted job
  kKill = 9,              // simulated SIGKILL (crash drill)
  kDrain = 10,            // graceful drain/shutdown
};

/// Human-readable tag for dumps ("submit", "start", ...).
[[nodiscard]] const char* event_type_name(EventType type);

/// One recorded lifecycle event. job_id == 0 means daemon-scoped.
struct LogEvent {
  std::uint64_t seq = 0;
  EventType type = EventType::kSubmit;
  std::uint64_t job_id = 0;
  std::uint64_t ts_us = 0;  // since the recorder's epoch
  std::string detail;
};

class EventLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  explicit EventLog(std::size_t capacity = kDefaultCapacity);

  /// Attaches persistence: replays any existing file (seq numbering
  /// continues where the previous incarnation stopped), then appends —
  /// each append is flushed before returning, so everything up to a
  /// kill survives. Without attach() the log is memory-only.
  [[nodiscard]] support::Status attach(const std::string& path);

  /// Records one event. Thread-safe; cheap (one small mutex, one framed
  /// write when attached). Never throws; a failed persistence write is
  /// counted, not fatal — the ring still records. After one failed write
  /// the file takes no more records, and each later append counts too.
  void append(EventType type, std::uint64_t job_id, std::string detail);

  /// The last n events (oldest first). n == 0 returns everything the
  /// ring still holds.
  [[nodiscard]] std::vector<LogEvent> recent(std::size_t n = 0) const;

  [[nodiscard]] std::uint64_t appended() const;
  [[nodiscard]] std::uint64_t write_failures() const;

  /// Post-mortem read of a persisted event file: every intact record in
  /// order. A torn tail ends the list; a bad header is kCorrupt.
  [[nodiscard]] static support::StatusOr<std::vector<LogEvent>> read_file(
      const std::string& path);

 private:
  mutable support::Mutex mu_;
  std::size_t capacity_;
  std::vector<LogEvent> ring_ GB_GUARDED_BY(mu_);  // ring_[seq % capacity_]
  std::uint64_t next_seq_ GB_GUARDED_BY(mu_) = 0;
  std::uint64_t write_failures_ GB_GUARDED_BY(mu_) = 0;
  std::chrono::steady_clock::time_point epoch_;
  std::optional<support::RecordFile> file_ GB_GUARDED_BY(mu_);
};

}  // namespace gb::obs
