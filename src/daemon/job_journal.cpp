#include "daemon/job_journal.h"

#include <utility>

#include "support/bytes.h"

namespace gb::daemon {
namespace {

// Version 2: JobRequest carries trace ids. The record cap is a backstop
// against a torn length field decoding as a huge allocation: reports
// are a few hundred KB, and nothing legitimate approaches 64 MiB.
constexpr support::RecordFormat kFormat{"journal", "GBJL", 2, 64u << 20};

struct ParseState {
  std::map<std::uint64_t, JournalReplay::PendingJob> pending;
  JournalReplay replay;
};

// Applies one CRC-valid payload to the replay image. A payload that
// fails here was durably written yet violates journal semantics — that
// is corruption or a daemon bug, never an ordinary torn tail.
support::Status apply_record(std::span<const std::byte> payload,
                             ParseState& st) {
  ByteReader r(payload);
  std::uint8_t type = 0;
  std::uint64_t id = 0;
  try {
    type = r.u8();
    id = r.u64();
  } catch (const ParseError& e) {
    return support::Status::corrupt(std::string("journal record: ") +
                                    e.what());
  }
  if (id >= st.replay.next_job_id) st.replay.next_job_id = id + 1;
  const bool is_pending = st.pending.contains(id);
  const bool is_completed = st.replay.completed.contains(id);
  switch (static_cast<JournalRecordType>(type)) {
    case JournalRecordType::kSubmit: {
      if (is_pending || is_completed) {
        return support::Status::corrupt("journal: duplicate submit for job " +
                                        std::to_string(id));
      }
      support::StatusOr<JobRequest> req = JobRequest::deserialize(r);
      if (!req.ok()) return req.status();
      st.pending[id] =
          JournalReplay::PendingJob{id, std::move(req).value(), false};
      return support::Status();
    }
    case JournalRecordType::kStart: {
      // Shard index follows but replay ignores it: the restarted daemon
      // re-derives the shard from the machine-id hash.
      if (!is_pending) {
        return support::Status::corrupt("journal: start for unknown job " +
                                        std::to_string(id));
      }
      st.pending[id].started = true;
      return support::Status();
    }
    case JournalRecordType::kComplete: {
      if (!is_pending) {
        return support::Status::corrupt("journal: complete for unknown job " +
                                        std::to_string(id));
      }
      try {
        support::Status status = get_status(r);
        std::string report_json = r.str(r.u32());
        st.replay.completed[id] = JournalReplay::CompletedJob{
            id, std::move(st.pending[id].request), std::move(status),
            std::move(report_json)};
      } catch (const ParseError& e) {
        return support::Status::corrupt(std::string("journal complete: ") +
                                        e.what());
      }
      st.pending.erase(id);
      return support::Status();
    }
    case JournalRecordType::kCancel: {
      if (!is_pending) {
        return support::Status::corrupt("journal: cancel for unknown job " +
                                        std::to_string(id));
      }
      st.replay.completed[id] = JournalReplay::CompletedJob{
          id, std::move(st.pending[id].request),
          support::Status::cancelled("cancelled via daemon"), ""};
      st.pending.erase(id);
      return support::Status();
    }
  }
  return support::Status::corrupt("journal: unknown record type " +
                                  std::to_string(type));
}

}  // namespace

support::StatusOr<JobJournal> JobJournal::open(const std::string& path) {
  ParseState st;
  auto file = support::RecordFile::open(
      path, kFormat, [&st](std::span<const std::byte> payload) {
        return apply_record(payload, st);
      });
  if (!file.ok()) return file.status();
  JournalReplay replay = std::move(st.replay);
  replay.records = file->replay().records;
  replay.truncated_bytes = file->replay().truncated_bytes;
  for (auto& [id, job] : st.pending) {
    replay.pending.push_back(std::move(job));  // id order
  }
  return JobJournal(std::move(file).value(), std::move(replay));
}

support::Status JobJournal::append_submit(std::uint64_t id,
                                          const JobRequest& request) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(JournalRecordType::kSubmit));
  w.u64(id);
  request.serialize(w);
  return file_.append(w.view());
}

support::Status JobJournal::append_start(std::uint64_t id,
                                         std::uint32_t shard) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(JournalRecordType::kStart));
  w.u64(id);
  w.u32(shard);
  return file_.append(w.view());
}

support::Status JobJournal::append_complete(std::uint64_t id,
                                            const support::Status& result,
                                            std::string_view report_json) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(JournalRecordType::kComplete));
  w.u64(id);
  put_status(w, result);
  w.u32(static_cast<std::uint32_t>(report_json.size()));
  w.str(report_json);
  return file_.append(w.view());
}

support::Status JobJournal::append_cancel(std::uint64_t id) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(JournalRecordType::kCancel));
  w.u64(id);
  return file_.append(w.view());
}

}  // namespace gb::daemon
