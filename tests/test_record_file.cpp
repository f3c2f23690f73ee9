// The one framed-record codec (support/record_file.h): a zero or
// over-cap length is damage and is never written, a file that fails
// replay stays as found, and a failed append is sticky, for RecordFile
// itself and for the flight recorder built on it. The journal, event log
// and wire suites, their goldens and test_parser_fuzz cover the rest.
#include "support/record_file.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <array>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "obs/event_log.h"
#include "support/bytes.h"

namespace gb::support {
namespace {

constexpr RecordFormat kFormat{"test file", "GBTF", 1, 64};

std::string temp_path(const char* tag) {
  const std::string path = ::testing::TempDir() + "/gb_record_" + tag;
  std::filesystem::remove(path);
  return path;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

/// Replays into `out`, one string per record.
RecordDecoder collect(std::vector<std::string>& out) {
  return [&out](std::span<const std::byte> payload) {
    out.push_back(to_string(payload));
    return Status();
  };
}

/// Runs `fn` while any write past `max_bytes` of a file fails (EFBIG,
/// with SIGXFSZ ignored): a disk that fills up mid-append. Only this
/// process's limit changes, and it is restored before returning.
template <typename Fn>
void with_file_size_limit(rlim_t max_bytes, Fn&& fn) {
  rlimit old{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &old), 0);
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  rlimit capped = old;
  capped.rlim_cur = max_bytes;
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &capped), 0);
  fn();
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &old), 0);
  std::signal(SIGXFSZ, old_handler);
}

TEST(FrameCodec, ZeroLengthFrameIsDamageAndIsNeverWritten) {
  // Eight zero bytes pass the CRC, since crc32("") == 0, but no writer
  // emits an empty frame: the length alone rules it out.
  const std::array<std::byte, kFramePrefixBytes> zeros{};
  EXPECT_EQ(check_frame(zeros, {}, 64).state, FrameState::kBadLength);

  ByteWriter w;
  EXPECT_EQ(put_frame(w, {}, 64).code(), StatusCode::kInternal);
  EXPECT_EQ(put_frame(w, std::vector<std::byte>(65), 64).code(),
            StatusCode::kInternal);
  EXPECT_EQ(w.size(), 0u);
}

TEST(RecordFile, FailedReplayLeavesTheFileAsFound) {
  const std::string path = temp_path("failed_replay");
  {
    std::vector<std::string> none;
    auto file = RecordFile::open(path, kFormat, collect(none));
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file->append(to_bytes("good")).ok());
    ASSERT_TRUE(file->append(to_bytes("bad")).ok());
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "torn";  // a tail that a successful open would truncate
  }
  const std::vector<char> before = slurp(path);
  const auto refuse_bad = [](std::span<const std::byte> payload) {
    return to_string(payload) == "bad" ? Status::corrupt("bad record")
                                       : Status();
  };
  const auto file = RecordFile::open(path, kFormat, refuse_bad);
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kCorrupt);
  EXPECT_EQ(slurp(path), before);
}

TEST(RecordFile, FailedAppendIsSticky) {
  const std::string path = temp_path("sticky");
  std::vector<std::string> none;
  auto file = RecordFile::open(path, kFormat, collect(none));
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->append(to_bytes("kept")).ok());
  const auto intact = std::filesystem::file_size(path);

  // The disk fills up part-way through the next frame.
  Status failed;
  with_file_size_limit(intact + 4, [&] {
    failed = file->append(to_bytes(std::string(40, 'x')));
  });
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  const auto torn = std::filesystem::file_size(path);
  EXPECT_GT(torn, intact);

  // Room again, but a record after the torn frame could never be
  // replayed: the append fails without writing.
  EXPECT_EQ(file->append(to_bytes("late")).code(), StatusCode::kUnavailable);
  EXPECT_EQ(std::filesystem::file_size(path), torn);

  std::vector<std::string> records;
  auto reopened = RecordFile::open(path, kFormat, collect(records));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(records, std::vector<std::string>{"kept"});
  EXPECT_EQ(reopened->replay().truncated_bytes, torn - intact);
}

TEST(EventLog, CountsEveryAppendAfterAFailedWrite) {
  const std::string path = temp_path("sticky_events");
  obs::EventLog log;
  ASSERT_TRUE(log.attach(path).ok());
  log.append(obs::EventType::kSubmit, 1, "kept");
  const auto intact = std::filesystem::file_size(path);

  with_file_size_limit(intact + 4, [&] {
    log.append(obs::EventType::kStart, 1, std::string(200, 'x'));
  });
  const auto torn = std::filesystem::file_size(path);
  log.append(obs::EventType::kComplete, 1, "late");

  EXPECT_EQ(log.write_failures(), 2u);
  EXPECT_EQ(log.appended(), 3u);  // the ring still records every event
  EXPECT_EQ(log.recent().size(), 3u);
  EXPECT_EQ(std::filesystem::file_size(path), torn);
  const auto events = obs::EventLog::read_file(path);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 1u);
  EXPECT_EQ(events->front().detail, "kept");
}

}  // namespace
}  // namespace gb::support
