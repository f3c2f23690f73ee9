#include "ntfs/runlist.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "support/rng.h"

namespace gb::ntfs {
namespace {

RunList round_trip(const RunList& runs) {
  ByteWriter w;
  encode_runlist(runs, w);
  ByteReader r(w.view());
  return decode_runlist(r);
}

TEST(RunList, EmptyEncodesToSingleTerminator) {
  ByteWriter w;
  encode_runlist({}, w);
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(std::to_integer<int>(w.buffer()[0]), 0);
  ByteReader r(w.view());
  EXPECT_TRUE(decode_runlist(r).empty());
}

TEST(RunList, SingleRunRoundTrip) {
  const RunList runs = {{100, 8}};
  EXPECT_EQ(round_trip(runs), runs);
}

TEST(RunList, BackwardDeltaUsesSignedEncoding) {
  // Second run starts *before* the first: negative LCN delta.
  const RunList runs = {{1000, 4}, {10, 2}, {5000, 1}};
  EXPECT_EQ(round_trip(runs), runs);
}

TEST(RunList, LargeValuesNeedWideFields) {
  const RunList runs = {{0xdeadbeefull, 0x123456ull}, {1, 1}};
  EXPECT_EQ(round_trip(runs), runs);
}

TEST(RunList, ClusterTotal) {
  EXPECT_EQ(runlist_clusters({{5, 3}, {100, 7}}), 10u);
  EXPECT_EQ(runlist_clusters({}), 0u);
}

TEST(RunList, CompactEncodingForSmallRuns) {
  // One small run: header + 1 length byte + 1 offset byte + terminator.
  ByteWriter w;
  encode_runlist({{10, 3}}, w);
  EXPECT_EQ(w.size(), 4u);
}

TEST(RunList, MalformedHeaderThrows) {
  // Header declares zero-width length field.
  ByteWriter w;
  w.u8(0x10);
  w.u8(0x00);
  ByteReader r(w.view());
  EXPECT_THROW(decode_runlist(r), ParseError);
}

TEST(RunList, TruncatedStreamThrows) {
  ByteWriter w;
  w.u8(0x11);  // promises 1 length byte + 1 offset byte
  w.u8(5);     // ...but stream ends here
  ByteReader r(w.view());
  EXPECT_THROW(decode_runlist(r), ParseError);
}

TEST(RunList, OverflowingLcnThrows) {
  // Two 8-byte deltas, INT64_MAX then +1: the second LCN is past INT64_MAX,
  // which must be rejected before the add, not wrapped into a negative.
  ByteWriter w;
  w.u8(0x81);  // 1 length byte, 8 offset bytes
  w.u8(1);
  w.u64(static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()));
  w.u8(0x81);
  w.u8(1);
  w.u64(1);
  w.u8(0);
  ByteReader r(w.view());
  try {
    (void)decode_runlist(r);
    FAIL() << "decoded an overflowing LCN";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("overflow"), std::string::npos)
        << e.what();
  }
}

class RunListPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RunListPropertyTest, RandomRunListsRoundTrip) {
  Rng rng(GetParam());
  const std::size_t n = 1 + rng.below(10);
  RunList runs;
  for (std::size_t i = 0; i < n; ++i) {
    runs.push_back({rng.below(1u << 30), 1 + rng.below(1u << 16)});
  }
  EXPECT_EQ(round_trip(runs), runs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunListPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace gb::ntfs
