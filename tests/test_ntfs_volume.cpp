#include "ntfs/volume.h"

#include <gtest/gtest.h>

#include <vector>

#include "support/rng.h"
#include "support/strings.h"

namespace gb::ntfs {
namespace {

class NtfsVolumeTest : public ::testing::Test {
 protected:
  NtfsVolumeTest() : disk_(16 * 1024) {  // 8 MiB
    NtfsVolume::format(disk_, /*mft_record_count=*/512);
    vol_ = std::make_unique<NtfsVolume>(disk_);
  }

  void remount() { vol_ = std::make_unique<NtfsVolume>(disk_); }

  disk::MemDisk disk_;
  std::unique_ptr<NtfsVolume> vol_;
};

TEST_F(NtfsVolumeTest, FreshVolumeHasEmptyRoot) {
  EXPECT_TRUE(vol_->list_directory("\\").empty());
  EXPECT_TRUE(vol_->exists("\\"));
}

TEST_F(NtfsVolumeTest, WriteAndReadBackSmallFile) {
  vol_->write_file("\\hello.txt", "hi there");
  EXPECT_TRUE(vol_->exists("\\hello.txt"));
  EXPECT_EQ(to_string(vol_->read_file("\\hello.txt")), "hi there");
}

TEST_F(NtfsVolumeTest, DrivePrefixAccepted) {
  vol_->write_file("C:\\boot.ini", "[boot]");
  EXPECT_TRUE(vol_->exists("\\boot.ini"));
  EXPECT_TRUE(vol_->exists("c:\\BOOT.INI"));
}

TEST_F(NtfsVolumeTest, NestedDirectories) {
  vol_->create_directories("\\windows\\system32\\drivers");
  vol_->write_file("\\windows\\system32\\drivers\\null.sys", "driver");
  const auto entries = vol_->list_directory("\\windows\\system32");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "drivers");
  EXPECT_TRUE(entries[0].is_directory);
}

TEST_F(NtfsVolumeTest, CreateDirectoriesIsIdempotent) {
  vol_->create_directories("\\a\\b");
  vol_->create_directories("\\a\\b\\c");
  vol_->create_directories("\\a\\b");
  EXPECT_TRUE(vol_->exists("\\a\\b\\c"));
  EXPECT_EQ(vol_->list_directory("\\a").size(), 1u);
}

TEST_F(NtfsVolumeTest, MissingParentThrows) {
  EXPECT_THROW(vol_->write_file("\\no\\such\\dir\\f.txt", "x"), FsError);
}

TEST_F(NtfsVolumeTest, CaseInsensitiveLookupPreservesCase) {
  vol_->create_directories("\\Windows");
  vol_->write_file("\\Windows\\ReadMe.TXT", "case");
  EXPECT_TRUE(vol_->exists("\\WINDOWS\\readme.txt"));
  const auto entries = vol_->list_directory("\\windows");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "ReadMe.TXT");
}

TEST_F(NtfsVolumeTest, OverwriteReplacesContent) {
  vol_->write_file("\\f.txt", "first");
  vol_->write_file("\\f.txt", "second version");
  EXPECT_EQ(to_string(vol_->read_file("\\f.txt")), "second version");
  EXPECT_EQ(vol_->stat("\\f.txt")->size, 14u);
}

TEST_F(NtfsVolumeTest, AppendGrowsFile) {
  vol_->write_file("\\log.txt", "line1\n");
  vol_->append_file("\\log.txt", "line2\n");
  EXPECT_EQ(to_string(vol_->read_file("\\log.txt")), "line1\nline2\n");
}

TEST_F(NtfsVolumeTest, LargeFileGoesNonResidentAndSurvivesRemount) {
  std::vector<std::byte> big(300 * 1024);
  Rng rng(5);
  for (auto& b : big) b = static_cast<std::byte>(rng.below(256));
  vol_->write_file("\\pagefile.sys", big);
  EXPECT_EQ(vol_->read_file("\\pagefile.sys"), big);
  remount();
  EXPECT_EQ(vol_->read_file("\\pagefile.sys"), big);
}

TEST_F(NtfsVolumeTest, MetadataSurvivesRemount) {
  vol_->create_directories("\\windows\\system32");
  vol_->write_file("\\windows\\system32\\kernel32.dll", "MZ...",
                   kAttrSystem | kAttrReadOnly);
  remount();
  const auto info = vol_->stat("\\windows\\system32\\kernel32.dll");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->attributes, kAttrSystem | kAttrReadOnly);
  EXPECT_EQ(info->size, 5u);
  EXPECT_FALSE(info->is_directory);
}

TEST_F(NtfsVolumeTest, RemoveFileFreesRecordAndName) {
  vol_->write_file("\\temp.bin", "xxx");
  vol_->remove("\\temp.bin");
  EXPECT_FALSE(vol_->exists("\\temp.bin"));
  remount();
  EXPECT_FALSE(vol_->exists("\\temp.bin"));
}

TEST_F(NtfsVolumeTest, RemoveNonEmptyDirectoryThrows) {
  vol_->create_directories("\\dir");
  vol_->write_file("\\dir\\f", "x");
  EXPECT_THROW(vol_->remove("\\dir"), FsError);
  vol_->remove_recursive("\\dir");
  EXPECT_FALSE(vol_->exists("\\dir"));
}

TEST_F(NtfsVolumeTest, ClusterReuseAfterDelete) {
  std::vector<std::byte> big(200 * 1024, std::byte{1});
  vol_->write_file("\\a.bin", big);
  vol_->remove("\\a.bin");
  // Space must be reusable: write several files of the same size.
  for (int i = 0; i < 5; ++i) {
    vol_->write_file("\\b" + std::to_string(i) + ".bin", big);
    vol_->remove("\\b" + std::to_string(i) + ".bin");
  }
  vol_->write_file("\\final.bin", big);
  EXPECT_EQ(vol_->read_file("\\final.bin"), big);
}

TEST_F(NtfsVolumeTest, Win32InvalidNamesAcceptedAtNativeLevel) {
  // The volume is the "native API": names Win32 would reject are legal.
  vol_->write_file("\\trailing.", "dot");
  vol_->write_file("\\trailing ", "space");
  vol_->write_file("\\aux", "reserved");
  remount();
  EXPECT_EQ(to_string(vol_->read_file("\\trailing.")), "dot");
  EXPECT_EQ(to_string(vol_->read_file("\\trailing ")), "space");
  EXPECT_EQ(to_string(vol_->read_file("\\aux")), "reserved");
  // "trailing." and "trailing " are distinct entries.
  EXPECT_EQ(vol_->list_directory("\\").size(), 3u);
}

TEST_F(NtfsVolumeTest, SetAttributesPersists) {
  vol_->write_file("\\h.txt", "x");
  vol_->set_attributes("\\h.txt", kAttrHidden | kAttrSystem);
  remount();
  EXPECT_EQ(vol_->stat("\\h.txt")->attributes, kAttrHidden | kAttrSystem);
}

TEST_F(NtfsVolumeTest, StatMissingReturnsNullopt) {
  EXPECT_FALSE(vol_->stat("\\nothing").has_value());
  EXPECT_THROW(vol_->read_file("\\nothing"), FsError);
  EXPECT_THROW(vol_->list_directory("\\nothing"), FsError);
}

TEST_F(NtfsVolumeTest, ListDirectorySortedByFoldedName) {
  vol_->write_file("\\Bravo", "");
  vol_->write_file("\\alpha", "");
  vol_->write_file("\\Charlie", "");
  const auto entries = vol_->list_directory("\\");
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "alpha");
  EXPECT_EQ(entries[1].name, "Bravo");
  EXPECT_EQ(entries[2].name, "Charlie");
}

TEST_F(NtfsVolumeTest, MftFullThrows) {
  disk::MemDisk small(4 * 1024);
  NtfsVolume::format(small, /*mft_record_count=*/20);  // 4 user records
  NtfsVolume v(small);
  int created = 0;
  try {
    for (int i = 0; i < 100; ++i) {
      v.write_file("\\f" + std::to_string(i), "x");
      ++created;
    }
    FAIL() << "expected FsError";
  } catch (const FsError&) {
    EXPECT_EQ(created, 4);
  }
}

TEST_F(NtfsVolumeTest, TimestampsUseClock) {
  VirtualClock clock;
  vol_->set_clock(&clock);
  clock.advance(1'000'000);
  vol_->write_file("\\t.txt", "x");
  EXPECT_EQ(vol_->stat("\\t.txt")->created_us, 1'000'000u);
  clock.advance(5'000'000);
  vol_->write_file("\\t.txt", "y");
  EXPECT_EQ(vol_->stat("\\t.txt")->created_us, 1'000'000u);
  EXPECT_EQ(vol_->stat("\\t.txt")->modified_us, 6'000'000u);
}

TEST_F(NtfsVolumeTest, UsageCounters) {
  const auto base_records = vol_->live_record_count();
  vol_->write_file("\\a", std::string(1000, 'x'));
  vol_->create_directories("\\d");
  EXPECT_EQ(vol_->live_record_count(), base_records + 2);
  EXPECT_GE(vol_->used_data_bytes(), 1000u);
}

TEST_F(NtfsVolumeTest, ManyFilesStressRoundTrip) {
  Rng rng(11);
  vol_->create_directories("\\data");
  std::map<std::string, std::string> expect;
  for (int i = 0; i < 100; ++i) {
    const std::string name = "\\data\\" + rng.identifier(12) + ".bin";
    const std::string content = rng.identifier(rng.below(2000));
    vol_->write_file(name, content);
    expect[name] = content;
  }
  remount();
  for (const auto& [name, content] : expect) {
    EXPECT_EQ(to_string(vol_->read_file(name)), content) << name;
  }
  EXPECT_EQ(vol_->list_directory("\\data").size(), expect.size());
}

}  // namespace
}  // namespace gb::ntfs
