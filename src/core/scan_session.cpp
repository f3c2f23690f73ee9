#include "core/scan_session.h"

#include <string>
#include <utility>
#include <vector>

#include "disk/change_journal.h"

namespace gb::core {

void sync_session(machine::Machine& m, internal::SessionState& s,
                  support::ThreadPool* pool) {
  const disk::ChangeJournal& journal = m.volume().journal();
  IncrementalStats stats;
  stats.journal_id = journal.journal_id();

  std::string fallback;
  if (!s.mft.ok()) {
    fallback = "cold start";
  } else if (s.journal_id != journal.journal_id()) {
    // The volume was remounted (or the journal otherwise restarted): the
    // cursor belongs to a dead incarnation and vouches for nothing.
    fallback = "journal reset";
  } else if (auto boot = ntfs::read_boot_sector(m.disk());
             !boot.ok() || *boot != s.mft->boot()) {
    // The MFT moved or no longer parses: a write no journal records.
    fallback = "boot sector changed";
  } else {
    auto read = journal.read_since(s.cursor);
    if (!read.ok()) {
      fallback = read.status().code() == support::StatusCode::kNotFound
                     ? "journal wrapped"
                     : "stale journal cursor";
    } else {
      stats.journal_records = read->size();
      std::vector<std::uint64_t> dirty;
      dirty.reserve(read->size());
      for (const auto& rec : *read) dirty.push_back(rec.record);
      ntfs::MftSnapshot& image = s.mft.value();
      const std::uint64_t reparsed = image.refresh(m.disk(), dirty);
      if (s.spec.verify_spliced && !image.verify(m.disk()).empty()) {
        // An out-of-band write the journal never saw: distrust the whole
        // image rather than guess which spliced entries are stale.
        fallback = "digest mismatch";
      } else {
        stats.incremental = true;
        stats.records_reparsed = reparsed;
        stats.records_spliced = image.record_capacity() - reparsed;
      }
    }
  }

  if (!stats.incremental) {
    stats.fallback_reason = fallback;
    s.mft = ntfs::MftSnapshot::capture(m.disk(), pool);
    if (s.mft.ok()) {
      stats.records_reparsed = s.mft->record_capacity();
      stats.records_spliced = 0;
    } else {
      // Volume no longer parses: the views report the image's Status,
      // exactly as a cold scan does, and the next sync starts cold.
      stats.fallback_reason +=
          " (capture failed: " + s.mft.status().message() + ")";
    }
  }

  s.journal_id = journal.journal_id();
  s.cursor = journal.next_usn();
  stats.cursor = journal.next_usn();
  s.last = stats;
}

ScanSession::ScanSession(ScanEngine& engine, SessionSpec spec)
    : engine_(&engine),
      state_(std::make_unique<internal::SessionState>()) {
  state_->spec = spec;
}

ScanSession::~ScanSession() = default;
ScanSession::ScanSession(ScanSession&&) noexcept = default;

Report ScanSession::rescan() {
  return std::move(rescan(nullptr, nullptr)).value();
}

support::StatusOr<Report> ScanSession::rescan(
    const support::CancelToken* cancel, support::TaskCounter* progress) {
  JobSpec job;
  job.cancel = cancel;
  job.progress = progress;
  return engine_->run_inside(job, state_.get());
}

const IncrementalStats& ScanSession::last_sync() const { return state_->last; }

machine::Machine& ScanSession::machine() const { return engine_->machine(); }

}  // namespace gb::core
