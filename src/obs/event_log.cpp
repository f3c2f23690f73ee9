#include "obs/event_log.h"

#include <utility>

#include "support/bytes.h"

namespace gb::obs {

namespace {

constexpr support::RecordFormat kFormat{"event log", "GBEL", 1, 64 * 1024};

void encode_event(ByteWriter& w, const LogEvent& e) {
  w.u64(e.seq);
  w.u8(static_cast<std::uint8_t>(e.type));
  w.u64(e.job_id);
  w.u64(e.ts_us);
  w.u32(static_cast<std::uint32_t>(e.detail.size()));
  w.str(e.detail);
}

/// Decodes one intact record's payload onto `out`. A CRC-valid record
/// with a bad event type or a malformed body is kCorrupt.
support::Status decode_event(std::span<const std::byte> payload,
                             std::vector<LogEvent>& out) {
  ByteReader r(payload);
  LogEvent e;
  try {
    e.seq = r.u64();
    const std::uint8_t type = r.u8();
    if (type < static_cast<std::uint8_t>(EventType::kSubmit) ||
        type > static_cast<std::uint8_t>(EventType::kDrain)) {
      return support::Status::corrupt("event log: bad event type " +
                                      std::to_string(type));
    }
    e.type = static_cast<EventType>(type);
    e.job_id = r.u64();
    e.ts_us = r.u64();
    e.detail = r.str(r.u32());
  } catch (const ParseError&) {
    return support::Status::corrupt("event log: malformed record payload");
  }
  if (!r.at_end()) {
    return support::Status::corrupt("event log: malformed record payload");
  }
  out.push_back(std::move(e));
  return support::Status();
}

}  // namespace

const char* event_type_name(EventType type) {
  switch (type) {
    case EventType::kSubmit: return "submit";
    case EventType::kStart: return "start";
    case EventType::kComplete: return "complete";
    case EventType::kCancel: return "cancel";
    case EventType::kRejected: return "rejected";
    case EventType::kDegraded: return "degraded";
    case EventType::kJournalTruncated: return "journal-truncated";
    case EventType::kRequeued: return "requeued";
    case EventType::kKill: return "kill";
    case EventType::kDrain: return "drain";
  }
  return "unknown";
}

EventLog::EventLog(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      epoch_(std::chrono::steady_clock::now()) {
  ring_.resize(capacity_);
}

support::Status EventLog::attach(const std::string& path) {
  std::vector<LogEvent> replayed;
  auto file = support::RecordFile::open(
      path, kFormat, [&replayed](std::span<const std::byte> payload) {
        return decode_event(payload, replayed);
      });
  if (!file.ok()) return file.status();
  // Continue the previous incarnation's sequence numbering.
  support::MutexLock lk(mu_);
  for (LogEvent& e : replayed) {
    next_seq_ = e.seq + 1;
    ring_[e.seq % capacity_] = std::move(e);
  }
  file_ = std::move(file).value();
  return support::Status();
}

void EventLog::append(EventType type, std::uint64_t job_id,
                      std::string detail) {
  support::MutexLock lk(mu_);
  LogEvent e;
  e.seq = next_seq_++;
  e.type = type;
  e.job_id = job_id;
  e.ts_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  e.detail = std::move(detail);
  if (file_) {
    ByteWriter payload;
    encode_event(payload, e);
    // Appending under mu keeps the file in seq order.
    if (!file_->append(payload.view()).ok()) ++write_failures_;
  }
  ring_[e.seq % capacity_] = std::move(e);
}

std::vector<LogEvent> EventLog::recent(std::size_t n) const {
  support::MutexLock lk(mu_);
  const std::uint64_t held =
      next_seq_ < capacity_ ? next_seq_ : static_cast<std::uint64_t>(capacity_);
  const std::uint64_t want = (n == 0 || n > held) ? held : n;
  std::vector<LogEvent> out;
  out.reserve(static_cast<std::size_t>(want));
  for (std::uint64_t seq = next_seq_ - want; seq < next_seq_; ++seq) {
    out.push_back(ring_[seq % capacity_]);
  }
  return out;
}

std::uint64_t EventLog::appended() const {
  support::MutexLock lk(mu_);
  return next_seq_;
}

std::uint64_t EventLog::write_failures() const {
  support::MutexLock lk(mu_);
  return write_failures_;
}

support::StatusOr<std::vector<LogEvent>> EventLog::read_file(
    const std::string& path) {
  std::vector<LogEvent> events;
  const support::Status read = support::RecordFile::read(
      path, kFormat, [&events](std::span<const std::byte> payload) {
        return decode_event(payload, events);
      });
  if (!read.ok()) return read;
  return events;
}

}  // namespace gb::obs
