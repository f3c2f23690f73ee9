// JobJournal crash matrix: the journal's whole value is what survives a
// kill -9 at an arbitrary byte. These tests cut a known record stream at
// every record boundary and at torn offsets inside every record, reopen,
// and require the replay image to equal the longest clean prefix — no
// lost jobs, no duplicates, no partially-applied records. Semantic
// corruption (CRC-valid records that violate journal rules) must be
// distinguished from crash damage and rejected as kCorrupt.
#include "daemon/job_journal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "daemon/job_request.h"
#include "support/status.h"

namespace gb {
namespace {

using daemon::JobJournal;
using daemon::JobRequest;
using daemon::JournalReplay;

constexpr std::size_t kHeaderBytes = 8;  // "GBJL" magic + format version

std::string temp_path(const char* tag) {
  const std::string path =
      ::testing::TempDir() + "/gb_journal_" + tag + ".gbj";
  std::filesystem::remove(path);
  return path;
}

JobRequest request_for(const std::string& machine, const std::string& tenant) {
  JobRequest request;
  request.machine_id = machine;
  request.tenant = tenant;
  request.priority = 3;
  request.advanced = true;
  return request;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::vector<char>& bytes,
          std::size_t count) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(count));
}

/// Walks the frame stream and returns every record boundary offset,
/// starting with the header end and ending at EOF.
std::vector<std::size_t> record_boundaries(const std::vector<char>& bytes) {
  std::vector<std::size_t> offsets = {kHeaderBytes};
  std::size_t at = kHeaderBytes;
  while (at + 8 <= bytes.size()) {
    std::uint32_t len = 0;
    std::memcpy(&len, bytes.data() + at, 4);
    at += 8 + len;
    offsets.push_back(at);
  }
  return offsets;
}

/// The five-record stream every crash test cuts up:
///   0 submit(1)  1 start(1)  2 submit(2)  3 complete(1)  4 cancel(2)
std::string build_reference_journal(const char* tag) {
  const std::string path = temp_path(tag);
  auto journal = JobJournal::open(path);
  EXPECT_TRUE(journal.ok());
  EXPECT_TRUE(journal->append_submit(1, request_for("BOX-A", "corp")).ok());
  EXPECT_TRUE(journal->append_start(1, 0).ok());
  EXPECT_TRUE(journal->append_submit(2, request_for("BOX-B", "lab")).ok());
  EXPECT_TRUE(journal
                  ->append_complete(2, support::Status(),
                                    "{\"infected\":false}")
                  .ok());
  EXPECT_TRUE(journal->append_cancel(1).ok());
  return path;
}

TEST(JobJournal, FreshJournalIsEmpty) {
  const std::string path = temp_path("fresh");
  auto journal = JobJournal::open(path);
  ASSERT_TRUE(journal.ok());
  EXPECT_TRUE(journal->replay().pending.empty());
  EXPECT_TRUE(journal->replay().completed.empty());
  EXPECT_EQ(journal->replay().next_job_id, 1u);
  EXPECT_EQ(journal->replay().records, 0u);
  EXPECT_EQ(journal->replay().truncated_bytes, 0u);
  // The header is durable immediately.
  EXPECT_EQ(std::filesystem::file_size(path), kHeaderBytes);
}

TEST(JobJournal, ReplayFoldsRequestsIntoTheRestartImage) {
  const std::string path = build_reference_journal("replay");
  auto journal = JobJournal::open(path);
  ASSERT_TRUE(journal.ok());
  const JournalReplay& replay = journal->replay();
  EXPECT_EQ(replay.records, 5u);
  EXPECT_EQ(replay.truncated_bytes, 0u);
  EXPECT_EQ(replay.next_job_id, 3u);

  // Job 2 completed: request folded over, report stored whole.
  ASSERT_EQ(replay.completed.size(), 2u);
  const auto& done = replay.completed.at(2);
  EXPECT_EQ(done.request, request_for("BOX-B", "lab"));
  EXPECT_TRUE(done.status.ok());
  EXPECT_EQ(done.report_json, "{\"infected\":false}");

  // Job 1 was cancelled — terminal, with the canonical cancel status.
  const auto& cancelled = replay.completed.at(1);
  EXPECT_EQ(cancelled.status.code(), support::StatusCode::kCancelled);
  EXPECT_TRUE(cancelled.report_json.empty());
  EXPECT_TRUE(replay.pending.empty());
}

TEST(JobJournal, PendingJobsKeepSubmitOrderAndStartedFlag) {
  const std::string path = temp_path("pending");
  {
    auto journal = JobJournal::open(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->append_submit(5, request_for("BOX-A", "corp")).ok());
    ASSERT_TRUE(journal->append_submit(9, request_for("BOX-B", "lab")).ok());
    ASSERT_TRUE(journal->append_start(9, 2).ok());
  }
  auto journal = JobJournal::open(path);
  ASSERT_TRUE(journal.ok());
  const JournalReplay& replay = journal->replay();
  ASSERT_EQ(replay.pending.size(), 2u);
  EXPECT_EQ(replay.pending[0].id, 5u);
  EXPECT_FALSE(replay.pending[0].started);
  EXPECT_EQ(replay.pending[1].id, 9u);
  EXPECT_TRUE(replay.pending[1].started);
  EXPECT_EQ(replay.next_job_id, 10u);
}

TEST(JobJournal, CrashAtEveryRecordBoundaryReplaysTheCleanPrefix) {
  const std::string path = build_reference_journal("boundaries");
  const std::vector<char> bytes = slurp(path);
  const std::vector<std::size_t> boundaries = record_boundaries(bytes);
  ASSERT_EQ(boundaries.size(), 6u);  // header + 5 records

  // Expected image after replaying the first N records.
  struct Expected {
    std::size_t pending, completed;
    std::uint64_t next_id;
  };
  const Expected expected[] = {
      {0, 0, 1},  // nothing
      {1, 0, 2},  // submit(1)
      {1, 0, 2},  // start(1)
      {2, 0, 3},  // submit(2)
      {1, 1, 3},  // complete(2)
      {0, 2, 3},  // cancel(1)
  };
  const std::string cut_path = temp_path("boundaries_cut");
  for (std::size_t n = 0; n < boundaries.size(); ++n) {
    dump(cut_path, bytes, boundaries[n]);
    auto journal = JobJournal::open(cut_path);
    ASSERT_TRUE(journal.ok()) << "cut after record " << n;
    const JournalReplay& replay = journal->replay();
    EXPECT_EQ(replay.records, n) << "cut after record " << n;
    EXPECT_EQ(replay.truncated_bytes, 0u) << "cut after record " << n;
    EXPECT_EQ(replay.pending.size(), expected[n].pending)
        << "cut after record " << n;
    EXPECT_EQ(replay.completed.size(), expected[n].completed)
        << "cut after record " << n;
    EXPECT_EQ(replay.next_job_id, expected[n].next_id)
        << "cut after record " << n;
  }
}

TEST(JobJournal, TornWriteInsideAnyRecordTruncatesToTheLastBoundary) {
  const std::string path = build_reference_journal("torn");
  const std::vector<char> bytes = slurp(path);
  const std::vector<std::size_t> boundaries = record_boundaries(bytes);
  ASSERT_EQ(boundaries.size(), 6u);

  const std::string cut_path = temp_path("torn_cut");
  for (std::size_t n = 0; n + 1 < boundaries.size(); ++n) {
    const std::size_t begin = boundaries[n];
    const std::size_t end = boundaries[n + 1];
    // Tear record n at several depths: one byte of header, mid-header,
    // mid-payload, one byte short of complete.
    for (const std::size_t cut :
         {begin + 1, begin + 5, (begin + end) / 2, end - 1}) {
      dump(cut_path, bytes, cut);
      auto journal = JobJournal::open(cut_path);
      ASSERT_TRUE(journal.ok()) << "torn record " << n << " at " << cut;
      EXPECT_EQ(journal->replay().records, n)
          << "torn record " << n << " at " << cut;
      EXPECT_EQ(journal->replay().truncated_bytes, cut - begin)
          << "torn record " << n << " at " << cut;
      // The torn tail is physically gone: the file ends at the boundary…
      EXPECT_EQ(std::filesystem::file_size(cut_path), begin);
    }
    // …and the truncated journal accepts new appends that then replay.
    {
      auto journal = JobJournal::open(cut_path);
      ASSERT_TRUE(journal.ok());
      const std::uint64_t id = journal->replay().next_job_id;
      ASSERT_TRUE(journal->append_submit(id, request_for("BOX-N", "q")).ok());
    }
    auto reopened = JobJournal::open(cut_path);
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(reopened->replay().records, n + 1);
  }
}

TEST(JobJournal, CrcMismatchTruncatesFromTheCorruptRecord) {
  const std::string path = build_reference_journal("crc");
  std::vector<char> bytes = slurp(path);
  const std::vector<std::size_t> boundaries = record_boundaries(bytes);
  // Flip one payload byte of record 2 (its payload begins 8 bytes past
  // the boundary, after the len/crc frame).
  bytes[boundaries[2] + 8 + 3] ^= 0x40;
  const std::string bad_path = temp_path("crc_bad");
  dump(bad_path, bytes, bytes.size());

  auto journal = JobJournal::open(bad_path);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(journal->replay().records, 2u);
  EXPECT_EQ(journal->replay().truncated_bytes,
            bytes.size() - boundaries[2]);
  EXPECT_EQ(std::filesystem::file_size(bad_path), boundaries[2]);
}

TEST(JobJournal, OversizedRecordLengthIsATornTail) {
  const std::string path = temp_path("oversized");
  { ASSERT_TRUE(JobJournal::open(path).ok()); }  // write the header
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const std::uint32_t len = 256u << 20;  // 256 MiB > kMaxRecordBytes
    out.write(reinterpret_cast<const char*>(&len), 4);
    const std::uint32_t crc = 0;
    out.write(reinterpret_cast<const char*>(&crc), 4);
    out.write("garbage", 7);
  }
  auto journal = JobJournal::open(path);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(journal->replay().records, 0u);
  EXPECT_EQ(journal->replay().truncated_bytes, 15u);
  EXPECT_EQ(std::filesystem::file_size(path), kHeaderBytes);
}

TEST(JobJournal, ZeroLengthFrameIsATornTail) {
  // Eight zero bytes: a length of 0 and a CRC that checks, because
  // crc32("") == 0. No writer emits an empty record, so this is damage
  // like a CRC mismatch, not a record to decode: the clean prefix
  // replays and the daemon can restart.
  const std::string path = build_reference_journal("zero_length");
  const std::size_t clean = std::filesystem::file_size(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char zeros[8] = {};
    out.write(zeros, sizeof zeros);
  }
  auto journal = JobJournal::open(path);
  ASSERT_TRUE(journal.ok()) << journal.status().to_string();
  EXPECT_EQ(journal->replay().records, 5u);
  EXPECT_EQ(journal->replay().truncated_bytes, 8u);
  EXPECT_EQ(std::filesystem::file_size(path), clean);
}

TEST(JobJournal, DuplicateSubmitIsSemanticCorruptionNotCrashDamage) {
  const std::string path = temp_path("dup_submit");
  {
    auto journal = JobJournal::open(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->append_submit(1, request_for("BOX-A", "corp")).ok());
    ASSERT_TRUE(journal->append_submit(1, request_for("BOX-A", "corp")).ok());
  }
  auto journal = JobJournal::open(path);
  ASSERT_FALSE(journal.ok());
  EXPECT_EQ(journal.status().code(), support::StatusCode::kCorrupt);
}

TEST(JobJournal, TerminalRecordForUnknownJobIsCorrupt) {
  const std::string path = temp_path("unknown_terminal");
  {
    auto journal = JobJournal::open(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(
        journal->append_complete(7, support::Status(), "{}").ok());
  }
  auto journal = JobJournal::open(path);
  ASSERT_FALSE(journal.ok());
  EXPECT_EQ(journal.status().code(), support::StatusCode::kCorrupt);
}

TEST(JobJournal, SecondTerminalRecordForOneJobIsCorrupt) {
  const std::string path = temp_path("double_terminal");
  {
    auto journal = JobJournal::open(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->append_submit(1, request_for("BOX-A", "corp")).ok());
    ASSERT_TRUE(journal->append_cancel(1).ok());
    ASSERT_TRUE(
        journal->append_complete(1, support::Status(), "{}").ok());
  }
  auto journal = JobJournal::open(path);
  ASSERT_FALSE(journal.ok());
  EXPECT_EQ(journal.status().code(), support::StatusCode::kCorrupt);
}

TEST(JobJournal, BadMagicIsCorrupt) {
  const std::string path = temp_path("magic");
  {
    std::ofstream out(path, std::ios::binary);
    out.write("NOPE\x01\x00\x00\x00", 8);
  }
  auto journal = JobJournal::open(path);
  ASSERT_FALSE(journal.ok());
  EXPECT_EQ(journal.status().code(), support::StatusCode::kCorrupt);
}

TEST(JobJournal, TornHeaderStartsFresh) {
  const std::string path = temp_path("torn_header");
  {
    std::ofstream out(path, std::ios::binary);
    out.write("GB", 2);  // killed while writing the very first bytes
  }
  auto journal = JobJournal::open(path);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(journal->replay().records, 0u);
  EXPECT_EQ(std::filesystem::file_size(path), kHeaderBytes);
  ASSERT_TRUE(journal->append_submit(1, request_for("BOX-A", "corp")).ok());
}

TEST(JobJournal, ReportJsonSurvivesByteExact) {
  // Reports cross the journal as opaque bytes: embedded quotes, UTF-8,
  // and NULs must come back byte-identical (never-torn delivery).
  const std::string path = temp_path("byte_exact");
  std::string report = "{\"s\":\"q\\\"uote\",\"b\":\"\xE2\x9C\x93\"}";
  report.push_back('\0');
  report += "tail";
  {
    auto journal = JobJournal::open(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->append_submit(1, request_for("BOX-A", "corp")).ok());
    ASSERT_TRUE(journal->append_complete(1, support::Status(), report).ok());
  }
  auto journal = JobJournal::open(path);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(journal->replay().completed.at(1).report_json, report);
}

// --- golden file -------------------------------------------------------------
//
// tests/golden/job_journal_v2.gbj was written by the append_* calls in
// append_golden_records. It pins the on-disk format from both sides: a
// journal written by an earlier build must replay, and the same appends
// must still produce the same bytes.

std::string golden_journal() {
  return std::string(GB_GOLDEN_DIR) + "/job_journal_v2.gbj";
}

std::string golden_report() {
  std::string report = "{\"s\":\"q\\\"uote\",\"b\":\"\xE2\x9C\x93\"}";
  report.push_back('\0');
  report += "tail";
  return report;
}

JobRequest golden_request(std::uint64_t id) {
  switch (id) {
    case 1: return request_for("BOX-A", "corp");
    case 2: {
      JobRequest request;
      request.machine_id = "BOX-B";
      request.tenant = "lab";
      request.priority = -2;
      request.kind = core::ScanKind::kOutside;
      request.resources = core::ResourceMask::kFiles;
      request.carve = core::CarveMode::kOn;
      request.trace_id = 0x1122334455667788ull;
      request.parent_span_id = 0x99;
      return request;
    }
    default: {
      JobRequest request;
      request.machine_id = "BOX-C";
      request.tenant = "corp";
      return request;
    }
  }
}

/// submit, start and an OK complete for job 1 (report with quotes, UTF-8
/// and an embedded NUL); submit, start and a failed complete for job 2;
/// submit and cancel for job 3.
void append_golden_records(JobJournal& journal) {
  ASSERT_TRUE(journal.append_submit(1, golden_request(1)).ok());
  ASSERT_TRUE(journal.append_start(1, 0).ok());
  ASSERT_TRUE(journal.append_complete(1, support::Status(), golden_report())
                  .ok());
  ASSERT_TRUE(journal.append_submit(2, golden_request(2)).ok());
  ASSERT_TRUE(journal.append_start(2, 1).ok());
  ASSERT_TRUE(journal
                  .append_complete(
                      2, support::Status::internal("scan job threw: disk gone"),
                      "")
                  .ok());
  ASSERT_TRUE(journal.append_submit(3, golden_request(3)).ok());
  ASSERT_TRUE(journal.append_cancel(3).ok());
}

TEST(JobJournalGolden, OpeningTheGoldenReplaysEveryRecord) {
  // open() repairs a file in place, so it reads a copy: the golden stays
  // as committed.
  const std::string path = temp_path("golden_copy");
  std::filesystem::copy_file(golden_journal(), path);
  auto journal = JobJournal::open(path);
  ASSERT_TRUE(journal.ok()) << journal.status().to_string();
  const JournalReplay& replay = journal->replay();
  EXPECT_EQ(replay.records, 8u);
  EXPECT_EQ(replay.truncated_bytes, 0u);
  EXPECT_EQ(replay.next_job_id, 4u);
  EXPECT_TRUE(replay.pending.empty());
  ASSERT_EQ(replay.completed.size(), 3u);

  const auto& done = replay.completed.at(1);
  EXPECT_EQ(done.request, golden_request(1));
  EXPECT_TRUE(done.status.ok());
  EXPECT_EQ(done.report_json, golden_report());

  const auto& failed = replay.completed.at(2);
  EXPECT_EQ(failed.request, golden_request(2));
  EXPECT_EQ(failed.status,
            support::Status::internal("scan job threw: disk gone"));
  EXPECT_TRUE(failed.report_json.empty());

  const auto& cancelled = replay.completed.at(3);
  EXPECT_EQ(cancelled.request, golden_request(3));
  EXPECT_EQ(cancelled.status.code(), support::StatusCode::kCancelled);
  EXPECT_TRUE(cancelled.report_json.empty());
  EXPECT_EQ(std::filesystem::file_size(path),
            std::filesystem::file_size(golden_journal()));
}

TEST(JobJournalGolden, AppendingTheSameRecordsReproducesTheGoldenBytes) {
  const std::string path = temp_path("golden_rewrite");
  {
    auto journal = JobJournal::open(path);
    ASSERT_TRUE(journal.ok());
    append_golden_records(*journal);
  }
  EXPECT_EQ(slurp(path), slurp(golden_journal()));
}

}  // namespace
}  // namespace gb
