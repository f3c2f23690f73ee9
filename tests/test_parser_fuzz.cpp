// Parser robustness fuzzing: random and mutated inputs must produce
// ParseError (or a valid parse), never crashes or hangs. The byte-level
// parsers are the trusted foundation of every low-level scan, so they
// face adversarial inputs by design.
#include <gtest/gtest.h>

#include <algorithm>

#include "hive/hive.h"
#include "kernel/carve.h"
#include "kernel/dump.h"
#include "kernel/dump_format.h"
#include "ntfs/mft_record.h"
#include "ntfs/runlist.h"
#include "support/rng.h"

namespace gb {
namespace {

std::vector<std::byte> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.below(256));
  return out;
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Rng rng_{GetParam() * 2654435761ull};
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
