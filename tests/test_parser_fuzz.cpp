// Parser robustness fuzzing: random and mutated inputs must produce
// ParseError (or a valid parse), never crashes or hangs. The byte-level
// parsers are the trusted foundation of every low-level scan, so they
// face adversarial inputs by design. The MFT image build and the
// clean-boot mount sit on top of them and must turn any volume bytes
// into a value or a Status. So does the one record-framing
// parser (support/record_file.h): a crash leaves the job journal and
// the flight recorder half-written, and a wire peer may send anything.
// Those cases must turn every input into a value or a Status.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <string>

#include "core/file_scans.h"
#include "daemon/job_journal.h"
#include "daemon/transport.h"
#include "daemon/wire.h"
#include "hive/hive.h"
#include "kernel/carve.h"
#include "kernel/dump.h"
#include "kernel/dump_format.h"
#include "machine/machine.h"
#include "ntfs/dir_index.h"
#include "ntfs/mft_record.h"
#include "ntfs/mft_scanner.h"
#include "ntfs/runlist.h"
#include "ntfs/snapshot.h"
#include "ntfs/volume.h"
#include "obs/event_log.h"
#include "support/rng.h"
#include "support/status.h"

namespace gb {
namespace {

std::vector<std::byte> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.below(256));
  return out;
}

/// Mutations per seed for the record-framing cases.
constexpr int kFramingRounds = 50;

std::vector<std::byte> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> chars((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  const auto* first = reinterpret_cast<const std::byte*>(chars.data());
  return std::vector<std::byte>(first, first + chars.size());
}

void write_bytes(const std::string& path, std::span<const std::byte> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::byte> golden(const char* name) {
  const std::vector<std::byte> bytes =
      read_bytes(std::string(GB_GOLDEN_DIR) + "/" + name);
  EXPECT_FALSE(bytes.empty()) << name;
  return bytes;
}

/// Overwrites a few random bytes, then half the time cuts the copy at a
/// random length: the damage a crash or a hostile peer leaves.
std::vector<std::byte> mutate(Rng& rng, std::vector<std::byte> bytes) {
  const std::size_t hits = 1 + rng.below(4);
  for (std::size_t i = 0; i < hits && !bytes.empty(); ++i) {
    bytes[rng.below(bytes.size())] = static_cast<std::byte>(rng.below(256));
  }
  if (rng.below(2) == 0) bytes.resize(rng.below(bytes.size() + 1));
  return bytes;
}

/// Sends `bytes` as one closed stream and reads frames until the Framer
/// stops: at EOF between frames (kUnavailable) or at damage (kCorrupt).
void read_every_frame(std::span<const std::byte> bytes) {
  daemon::PipePair pipe = daemon::make_pipe();  // holds the whole stream
  ASSERT_TRUE(pipe.client->send_bytes(bytes).ok());
  pipe.client->close();
  daemon::Framer framer(*pipe.server);
  for (std::size_t frames = 0;; ++frames) {
    // A frame is at least 13 bytes (magic, prefix, one payload byte), so
    // a reader that keeps "succeeding" past that is not making progress.
    ASSERT_LE(frames, bytes.size() / 13);
    const auto frame = framer.read_frame();
    if (frame.ok()) continue;
    const support::StatusCode code = frame.status().code();
    EXPECT_TRUE(code == support::StatusCode::kCorrupt ||
                code == support::StatusCode::kUnavailable)
        << frame.status().to_string();
    return;
  }
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Rng rng_{GetParam() * 2654435761ull};

  std::string temp_file(const char* tag) const {
    return ::testing::TempDir() + "/gb_fuzz_" + tag + "_" +
           std::to_string(GetParam());
  }
};

TEST_P(ParserFuzz, RandomMftRecordsNeverCrash) {
  auto bytes = random_bytes(rng_, ntfs::kMftRecordSize);
  try {
    const auto rec = ntfs::MftRecord::parse(bytes);
    (void)rec;  // random bytes that happen to parse are fine
  } catch (const ParseError&) {
  }
}

TEST_P(ParserFuzz, MutatedMftRecordsNeverCrash) {
  // Start from a valid record, flip a burst of bytes.
  ntfs::MftRecord rec;
  rec.record_number = 42;
  rec.flags = ntfs::kRecordInUse;
  rec.std_info = ntfs::StandardInfo{1, 2, 3, 0x20};
  rec.file_name = ntfs::FileNameAttr{5, "victim-of-fuzzing.bin"};
  ntfs::DataAttr da;
  da.resident = true;
  da.resident_data = random_bytes(rng_, 100);
  da.real_size = 100;
  rec.data = da;
  auto image = rec.serialize();

  const std::size_t start = rng_.below(image.size());
  const std::size_t len = 1 + rng_.below(32);
  for (std::size_t i = start; i < std::min(image.size(), start + len); ++i) {
    image[i] = static_cast<std::byte>(rng_.below(256));
  }
  try {
    const auto parsed = ntfs::MftRecord::parse(image);
    (void)parsed;
  } catch (const ParseError&) {
  }
}

TEST_P(ParserFuzz, RandomHivesNeverCrash) {
  auto bytes =
      random_bytes(rng_, hive::kBaseBlockSize + rng_.below(8192));
  try {
    const auto key = hive::parse_hive(bytes);
    (void)key;
  } catch (const ParseError&) {
  }
}

TEST_P(ParserFuzz, MutatedHivesNeverCrash) {
  hive::Key root;
  root.name = "FUZZ";
  for (int i = 0; i < 5; ++i) {
    hive::Key& k = root.ensure_subkey("key" + std::to_string(i));
    k.set_value(hive::Value::string("v" + std::to_string(i),
                                    std::string(50, 'x')));
  }
  auto image = hive::serialize_hive(root, "FUZZ");
  // Mutate inside the hbin area (past the base block) so the root cell
  // reference and cell graph get damaged.
  for (int hit = 0; hit < 8; ++hit) {
    const std::size_t at =
        hive::kBaseBlockSize + rng_.below(image.size() - hive::kBaseBlockSize);
    image[at] = static_cast<std::byte>(rng_.below(256));
  }
  try {
    const auto key = hive::parse_hive(image);
    (void)key;
  } catch (const ParseError&) {
  }
}

TEST_P(ParserFuzz, RandomDumpsNeverCrash) {
  auto bytes = random_bytes(rng_, 16 + rng_.below(4096));
  try {
    const auto dump = kernel::parse_dump(bytes);
    (void)dump;
  } catch (const ParseError&) {
  }
}

TEST_P(ParserFuzz, MutatedDumpsNeverCrash) {
  kernel::Kernel k;
  k.create_process("C:\\a.exe", 4, 2);
  k.create_process("C:\\b.exe", 4, 1);
  auto bytes = kernel::write_dump(k);
  const std::size_t at = rng_.below(bytes.size());
  bytes[at] = static_cast<std::byte>(rng_.below(256));
  try {
    const auto dump = kernel::parse_dump(bytes);
    (void)dump;
  } catch (const ParseError&) {
  }
}

TEST_P(ParserFuzz, TruncatedRunListsNeverCrash) {
  ntfs::RunList runs;
  const std::size_t n = 1 + rng_.below(6);
  for (std::size_t i = 0; i < n; ++i) {
    runs.push_back({rng_.below(1 << 20), 1 + rng_.below(100)});
  }
  ByteWriter w;
  ntfs::encode_runlist(runs, w);
  auto bytes = std::move(w).take();
  bytes.resize(rng_.below(bytes.size() + 1));  // truncate anywhere
  ByteReader r(bytes);
  try {
    const auto decoded = ntfs::decode_runlist(r);
    (void)decoded;
  } catch (const ParseError&) {
  }
}

TEST_P(ParserFuzz, MutatedBootSectorsBuildAnImageOrAStatus) {
  disk::MemDisk disk(4096);
  ntfs::NtfsVolume::format(disk, 256);
  {
    ntfs::NtfsVolume vol(disk);
    vol.create_directories("\\dir");
    vol.write_file("\\dir\\a.txt", "payload");
  }
  std::vector<std::byte> original(ntfs::kSectorSize);
  disk.read(0, original);
  for (int round = 0; round < kFramingRounds; ++round) {
    // Mostly the OEM id and the MFT extent fields, sometimes anywhere.
    std::vector<std::byte> boot = original;
    const std::size_t hits = 1 + rng_.below(4);
    for (std::size_t i = 0; i < hits; ++i) {
      const std::size_t at = rng_.below(2) == 0
                                 ? ntfs::BootSectorLayout::kMftStartCluster +
                                       rng_.below(12)
                                 : rng_.below(boot.size());
      boot[at] = static_cast<std::byte>(rng_.below(256));
    }
    disk.write(0, boot);
    support::ThreadPool pool(2);
    const auto image = ntfs::MftSnapshot::capture(disk, &pool, 16);
    if (!image.ok()) {
      EXPECT_EQ(image.status().code(), support::StatusCode::kCorrupt)
          << image.status().to_string();
      continue;
    }
    (void)image->index_orphans();
    (void)image->index_status();
    EXPECT_LE(image->simulate_scan_io().sectors_read, disk.sector_count() * 2);
  }
}

TEST_P(ParserFuzz, IndexBlobsDecodeOrThrowParseError) {
  std::vector<ntfs::IndexEntry> entries;
  for (std::size_t i = 0, n = rng_.below(12); i < n; ++i) {
    entries.push_back({rng_.below(1u << 20), std::string(rng_.below(9), 'n')});
  }
  const std::vector<std::byte> valid = ntfs::encode_index_entries(entries);
  for (int round = 0; round < kFramingRounds; ++round) {
    const std::vector<std::byte> blob =
        round % 2 == 0 ? random_bytes(rng_, rng_.below(64)) : mutate(rng_, valid);
    try {
      const auto decoded = ntfs::decode_index_entries(blob);
      EXPECT_LE(decoded.size(), blob.size() / 10);
    } catch (const ParseError&) {
    }
  }
}

TEST_P(ParserFuzz, MutatedDirectoryRecordsMountToAListingOrAStatus) {
  machine::MachineConfig mc;
  mc.disk_sectors = 16 * 1024;
  mc.mft_records = 512;
  mc.synthetic_files = 8;
  mc.synthetic_registry_keys = 4;
  machine::Machine m(mc);
  m.volume().create_directories("\\probe");
  m.volume().write_file("\\probe\\f.txt", "payload");
  const auto boot = ntfs::read_boot_sector(m.disk()).value();
  const std::uint64_t directories[] = {ntfs::kMftRecordRoot,
                                       m.volume().stat("\\probe")->record};
  for (int round = 0; round < kFramingRounds; ++round) {
    // The root's and \probe's records in turn: their index entries are
    // what the clean-boot mount trusts to list the volume.
    const std::uint64_t lba = boot.record_lba(directories[round % 2]);
    std::vector<std::byte> original(ntfs::kMftRecordSize);
    m.disk().read(lba, original);
    const std::size_t used = ntfs::MftRecord::parse(original).serialized_size();
    std::vector<std::byte> record = original;
    for (std::size_t i = 0, hits = 1 + rng_.below(4); i < hits; ++i) {
      // Mostly the attributes; sometimes the padding after them.
      const std::size_t at =
          rng_.below(rng_.below(4) == 0 ? record.size() : used);
      record[at] = static_cast<std::byte>(rng_.below(256));
    }
    m.disk().write(lba, record);
    const auto scan = core::outside_file_scan(m.disk());
    if (!scan.ok()) {
      EXPECT_EQ(scan.status().code(), support::StatusCode::kCorrupt)
          << scan.status().to_string();
    }
    m.disk().write(lba, original);
  }
}

TEST_P(ParserFuzz, MutatedJournalsOpenToAReplayOrAStatus) {
  const std::vector<std::byte> original = golden("job_journal_v2.gbj");
  const std::string path = temp_file("journal");
  for (int round = 0; round < kFramingRounds; ++round) {
    const std::vector<std::byte> bytes = mutate(rng_, original);
    write_bytes(path, bytes);
    const auto journal = daemon::JobJournal::open(path);
    const std::vector<std::byte> after = read_bytes(path);
    if (!journal.ok()) {
      // Failing replay is kCorrupt and leaves the file as found.
      EXPECT_EQ(journal.status().code(), support::StatusCode::kCorrupt)
          << journal.status().to_string();
      EXPECT_EQ(after, bytes);
      continue;
    }
    EXPECT_LE(journal->replay().records, 8u);
    if (bytes.size() < 8) {
      EXPECT_EQ(after.size(), 8u);  // a fresh header
    } else {
      // The intact prefix stays, the torn tail goes.
      ASSERT_EQ(after.size() + journal->replay().truncated_bytes,
                bytes.size());
      EXPECT_TRUE(std::equal(after.begin(), after.end(), bytes.begin()));
    }
  }
}

TEST_P(ParserFuzz, MutatedEventLogsReadToEventsOrAStatus) {
  const std::vector<std::byte> original = golden("event_log_v1.events");
  const std::string path = temp_file("events");
  for (int round = 0; round < kFramingRounds; ++round) {
    const std::vector<std::byte> bytes = mutate(rng_, original);
    write_bytes(path, bytes);
    const auto events = obs::EventLog::read_file(path);
    if (events.ok()) {
      EXPECT_LE(events->size(), 10u);
    } else {
      const support::StatusCode code = events.status().code();
      EXPECT_TRUE(code == support::StatusCode::kCorrupt ||
                  code == support::StatusCode::kNotFound)
          << events.status().to_string();
    }
    EXPECT_EQ(read_bytes(path), bytes);  // a post-mortem read never writes
  }
}

TEST_P(ParserFuzz, RandomFrameStreamsEndInAStatus) {
  for (int round = 0; round < kFramingRounds; ++round) {
    std::vector<std::byte> bytes = random_bytes(rng_, rng_.below(512));
    if (bytes.size() >= 4 && rng_.below(2) == 0) {
      // Get past the magic half the time, so the length and CRC checks
      // see random values too.
      const auto magic = to_bytes("GBWF");
      std::copy(magic.begin(), magic.end(), bytes.begin());
    }
    read_every_frame(bytes);
  }
}

TEST_P(ParserFuzz, MutatedFrameStreamsEndInAStatus) {
  const std::vector<std::byte> poll = golden("wire_poll.frame");
  const std::vector<std::byte> chunk = golden("wire_result_chunk.frame");
  std::vector<std::byte> stream;
  for (int i = 0; i < 2; ++i) {
    stream.insert(stream.end(), poll.begin(), poll.end());
    stream.insert(stream.end(), chunk.begin(), chunk.end());
  }
  for (int round = 0; round < kFramingRounds; ++round) {
    read_every_frame(mutate(rng_, stream));
  }
}

// A hostile directory count must fail the structured parse cleanly,
// never size an allocation from it, and cost the carve nothing: the
// directory only labels records, so the sweep still recovers every one,
// now as orphaned slack.
TEST(DumpCountBounds, SmashedDirectoryCountIsCorruptButStillCarves) {
  kernel::Kernel k;
  k.create_process("C:\\a.exe", 4, 2);
  k.create_process("C:\\b.exe", 4, 1);
  auto bytes = kernel::write_dump(k);
  const std::size_t n_records = kernel::parse_dump(bytes).processes.size();
  ASSERT_GT(n_records, 0u);

  // The directory (u32 count, then one u64 offset per record) ends where
  // the record heap begins.
  const auto heap =
      std::search(bytes.begin(), bytes.end(),
                  kernel::internal::kRecordTag.begin(),
                  kernel::internal::kRecordTag.end());
  ASSERT_NE(heap, bytes.end());
  const std::size_t count_at =
      static_cast<std::size_t>(heap - bytes.begin()) - 8 * n_records - 4;
  ByteReader before(std::span<const std::byte>(bytes).subspan(count_at, 4));
  ASSERT_EQ(before.u32(), n_records);
  std::fill_n(bytes.begin() + static_cast<std::ptrdiff_t>(count_at), 4,
              std::byte{0xFF});

  const auto parsed = kernel::parse_dump_or(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), support::StatusCode::kCorrupt);

  const auto carved = kernel::carve_dump(bytes);
  ASSERT_TRUE(carved.ok()) << carved.status().to_string();
  EXPECT_EQ(carved->processes.size(), n_records);
  EXPECT_EQ(carved->orphan_count(), n_records);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Range<std::uint64_t>(0, 40));

}  // namespace
}  // namespace gb
