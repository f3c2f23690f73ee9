#include "disk/disk.h"

#include <gtest/gtest.h>

namespace gb::disk {
namespace {

TEST(MemDisk, ReadBackWrittenSectors) {
  MemDisk d(64);
  std::vector<std::byte> sector(kSectorSize, std::byte{0xab});
  d.write(10, sector);
  std::vector<std::byte> out(kSectorSize);
  d.read(10, out);
  EXPECT_EQ(out, sector);
}

TEST(MemDisk, FreshDiskIsZeroed) {
  MemDisk d(4);
  std::vector<std::byte> out(kSectorSize);
  d.read(3, out);
  for (auto b : out) EXPECT_EQ(std::to_integer<int>(b), 0);
}

TEST(MemDisk, MultiSectorTransfer) {
  MemDisk d(64);
  std::vector<std::byte> blob(kSectorSize * 3);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::byte>(i & 0xff);
  }
  d.write(5, blob);
  std::vector<std::byte> out(blob.size());
  d.read(5, out);
  EXPECT_EQ(out, blob);
}

TEST(MemDisk, OutOfRangeThrows) {
  MemDisk d(8);
  std::vector<std::byte> sector(kSectorSize);
  EXPECT_THROW(d.read(8, sector), std::out_of_range);
  EXPECT_THROW(d.write(7, std::vector<std::byte>(kSectorSize * 2)),
               std::out_of_range);
}

TEST(MemDisk, UnalignedSizeRejected) {
  MemDisk d(8);
  std::vector<std::byte> partial(100);
  EXPECT_THROW(d.read(0, partial), std::invalid_argument);
  EXPECT_THROW(d.write(0, partial), std::invalid_argument);
}

TEST(CountingDevice, StatsCountSectorsAndSeeks) {
  MemDisk disk(64);
  CountingDevice d(disk);
  std::vector<std::byte> sector(kSectorSize);
  d.read(0, sector);   // seek 1
  d.read(1, sector);   // sequential: no new seek
  d.read(10, sector);  // seek 2
  d.write(11, sector); // sequential write
  EXPECT_EQ(d.stats().sectors_read, 3u);
  EXPECT_EQ(d.stats().sectors_written, 1u);
  EXPECT_EQ(d.stats().seeks, 2u);
  EXPECT_EQ(d.stats().bytes_read(), 3 * kSectorSize);
  IoStats stats = d.stats();
  stats.reset();
  EXPECT_EQ(stats.sectors_read, 0u);
}

TEST(MemDisk, ImageExposesRawBytes) {
  MemDisk d(2);
  std::vector<std::byte> sector(kSectorSize, std::byte{0x5a});
  d.write(1, sector);
  const auto img = d.image();
  ASSERT_EQ(img.size(), 2 * kSectorSize);
  EXPECT_EQ(std::to_integer<int>(img[kSectorSize]), 0x5a);
  EXPECT_EQ(std::to_integer<int>(img[0]), 0);
}

}  // namespace
}  // namespace gb::disk
