// JobJournal: the daemon's crash-safe, append-only job store.
//
// Every externally visible job transition is appended here *before* it
// is acknowledged — submit before the client learns its job id, complete
// before any client can stream the result. Records are individually
// CRC-framed, so a daemon killed mid-append leaves at worst one torn
// tail record, which replay truncates; everything before it is truth.
// Replay reduces the record stream to the daemon's restart image: jobs
// with a durable result (served as-is — at-most-once delivery, the scan
// never re-runs) and jobs without one (re-queued, including jobs that
// were mid-scan on a lost worker — re-running is safe because a
// cancelled or interrupted scan never advances the machine's virtual
// clock, so the re-run is byte-identical to the run the crash stole).
//
// The file is a support::RecordFile ("GBJL", version 2, records up to
// 64 MiB), which owns the framing, the torn-tail and sticky-failure rules
// and the flush per record. This class keeps the record encoders and
// apply_record, which folds each payload into the restart image:
//
//   payload  record type (u8) | job id (u64) | type-specific fields
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "daemon/job_request.h"
#include "support/record_file.h"
#include "support/status.h"

namespace gb::daemon {

enum class JournalRecordType : std::uint8_t {
  kSubmit = 1,    // job accepted: id + full JobRequest
  kStart = 2,     // job handed to a scheduler shard (informational)
  kComplete = 3,  // terminal: status + (on success) the report JSON
  kCancel = 4,    // terminal: cancelled before producing a report
};

/// The in-memory image a journal replay produces: what the restarted
/// daemon must re-queue and what it must serve from the store.
struct JournalReplay {
  struct PendingJob {
    std::uint64_t id = 0;
    JobRequest request;
    /// A kStart record was seen — the job was on a worker when the
    /// daemon died. Replay re-queues it either way; the flag feeds the
    /// requeued-after-loss stat.
    bool started = false;
  };
  struct CompletedJob {
    std::uint64_t id = 0;
    /// The originating request, folded over from the submit record, so
    /// lifetime quota accounting survives restarts.
    JobRequest request;
    support::Status status;
    /// Schema-v2 report JSON; empty unless status is OK.
    std::string report_json;
  };

  /// Submitted jobs with no terminal record, in submit order.
  std::vector<PendingJob> pending;
  /// Terminal jobs keyed by id — the at-most-once result store.
  std::map<std::uint64_t, CompletedJob> completed;
  /// One past the highest id seen; the restarted daemon allocates from
  /// here so ids never collide across incarnations.
  std::uint64_t next_job_id = 1;
  std::uint64_t records = 0;          // CRC-valid records replayed
  std::uint64_t truncated_bytes = 0;  // torn tail dropped at open
};

/// Append-only journal handle. Writes flush before returning: when an
/// append call comes back OK the record survives a kill -9 of the
/// daemon, and after one failed append every later one fails unwritten.
/// Not internally synchronized — the daemon serializes appends under its
/// own lock.
class JobJournal {
 public:
  /// Opens (creating if absent) and replays the journal at `path`.
  /// A torn tail is truncated in place; a CRC-valid record stream that
  /// violates journal semantics (terminal record for an unknown id,
  /// duplicate submit) is kCorrupt — that is not crash damage, and the
  /// file is left as found.
  [[nodiscard]] static support::StatusOr<JobJournal> open(
      const std::string& path);

  JobJournal(JobJournal&&) = default;
  JobJournal& operator=(JobJournal&&) = default;

  /// The restart image captured by open(). Appends after open do not
  /// update it; the daemon folds live transitions into its own state.
  [[nodiscard]] const JournalReplay& replay() const { return replay_; }
  [[nodiscard]] const std::string& path() const { return file_.path(); }

  [[nodiscard]] support::Status append_submit(std::uint64_t id,
                                              const JobRequest& request);
  [[nodiscard]] support::Status append_start(std::uint64_t id,
                                             std::uint32_t shard);
  [[nodiscard]] support::Status append_complete(std::uint64_t id,
                                                const support::Status& result,
                                                std::string_view report_json);
  [[nodiscard]] support::Status append_cancel(std::uint64_t id);

 private:
  JobJournal(support::RecordFile file, JournalReplay replay)
      : file_(std::move(file)), replay_(std::move(replay)) {}

  support::RecordFile file_;
  JournalReplay replay_;
};

}  // namespace gb::daemon
