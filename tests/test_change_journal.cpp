// Change-journal semantics and the volume's emission contract: every
// scan-visible MFT mutation is journaled with the right reason, cursors
// survive exactly as long as the ring and the incarnation do, and a
// rename chain A→B→A restores byte-identical records that a refreshed
// snapshot still matches.
#include "disk/change_journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "ntfs/snapshot.h"
#include "ntfs/volume.h"

namespace gb {
namespace {

using disk::ChangeJournal;
using disk::UsnReason;
using disk::UsnRecord;

// --- pure journal semantics ------------------------------------------------

TEST(ChangeJournal, UsnsAreMonotonicAndReadSinceReturnsSuffix) {
  ChangeJournal j(/*journal_id=*/7);
  EXPECT_EQ(j.journal_id(), 7u);
  EXPECT_EQ(j.next_usn(), 0u);
  j.append(10, UsnReason::kCreate);
  j.append(11, UsnReason::kDataOverwrite);
  j.append(10, UsnReason::kDelete);
  EXPECT_EQ(j.next_usn(), 3u);

  const auto all = j.read_since(0);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 3u);
  EXPECT_EQ((*all)[0], (UsnRecord{0, 10, UsnReason::kCreate}));
  EXPECT_EQ((*all)[2], (UsnRecord{2, 10, UsnReason::kDelete}));

  const auto tail = j.read_since(2);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->size(), 1u);
  EXPECT_EQ(tail->front().record, 10u);

  // A fully caught-up cursor reads an empty (but successful) batch.
  const auto none = j.read_since(j.next_usn());
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(ChangeJournal, WrapTruncatesOldestAndReportsNotFound) {
  ChangeJournal j(/*journal_id=*/1, /*capacity=*/4);
  for (std::uint64_t i = 0; i < 10; ++i) j.append(i, UsnReason::kCreate);
  EXPECT_EQ(j.size(), 4u);
  EXPECT_EQ(j.first_usn(), 6u);

  const auto wrapped = j.read_since(0);
  ASSERT_FALSE(wrapped.ok());
  EXPECT_EQ(wrapped.status().code(), support::StatusCode::kNotFound);

  const auto served = j.read_since(j.first_usn());
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served->size(), 4u);
}

TEST(ChangeJournal, FutureCursorIsFailedPrecondition) {
  ChangeJournal j;
  j.append(1, UsnReason::kCreate);
  const auto ahead = j.read_since(j.next_usn() + 1);
  ASSERT_FALSE(ahead.ok());
  EXPECT_EQ(ahead.status().code(), support::StatusCode::kFailedPrecondition);
}

TEST(ChangeJournal, ResetStartsNewIncarnation) {
  ChangeJournal j(/*journal_id=*/1);
  j.append(1, UsnReason::kCreate);
  j.append(2, UsnReason::kCreate);
  const std::uint64_t old_cursor = j.next_usn();

  j.reset(/*new_journal_id=*/2);
  EXPECT_EQ(j.journal_id(), 2u);
  EXPECT_EQ(j.next_usn(), 0u);
  EXPECT_EQ(j.size(), 0u);
  // The old incarnation's cursor is ahead of the fresh USN counter.
  EXPECT_FALSE(j.read_since(old_cursor).ok());
}

TEST(ChangeJournal, SetCapacityEvictsImmediately) {
  ChangeJournal j;
  for (std::uint64_t i = 0; i < 8; ++i) j.append(i, UsnReason::kCreate);
  j.set_capacity(2);
  EXPECT_EQ(j.size(), 2u);
  EXPECT_EQ(j.first_usn(), 6u);
  EXPECT_FALSE(j.read_since(0).ok());
}

// --- what the volume writes into it ----------------------------------------

class VolumeJournalTest : public ::testing::Test {
 protected:
  VolumeJournalTest() : disk_(16 * 1024) {  // 8 MiB
    ntfs::NtfsVolume::format(disk_, /*mft_record_count=*/512);
    vol_ = std::make_unique<ntfs::NtfsVolume>(disk_);
  }

  void remount() { vol_ = std::make_unique<ntfs::NtfsVolume>(disk_); }

  std::vector<UsnRecord> since(std::uint64_t cursor) {
    auto r = vol_->journal().read_since(cursor);
    EXPECT_TRUE(r.ok()) << r.status().to_string();
    return r.ok() ? *r : std::vector<UsnRecord>{};
  }

  static bool has(const std::vector<UsnRecord>& rs, std::uint64_t record,
                  UsnReason reason) {
    for (const auto& r : rs) {
      if (r.record == record && r.reason == reason) return true;
    }
    return false;
  }

  std::uint64_t record_of(std::string_view path) {
    const auto info = vol_->stat(path);
    EXPECT_TRUE(info.has_value()) << path;
    return info ? info->record : 0;
  }

  disk::MemDisk disk_;
  std::unique_ptr<ntfs::NtfsVolume> vol_;
};

TEST_F(VolumeJournalTest, CreateOverwriteDeleteEmitExpectedReasons) {
  std::uint64_t cursor = vol_->journal().next_usn();
  vol_->write_file("\\a.txt", "one");
  const std::uint64_t rec = record_of("\\a.txt");
  auto batch = since(cursor);
  EXPECT_TRUE(has(batch, rec, UsnReason::kCreate));

  cursor = vol_->journal().next_usn();
  vol_->write_file("\\a.txt", "two");
  batch = since(cursor);
  EXPECT_TRUE(has(batch, rec, UsnReason::kDataOverwrite));
  EXPECT_FALSE(has(batch, rec, UsnReason::kCreate));

  cursor = vol_->journal().next_usn();
  vol_->remove("\\a.txt");
  batch = since(cursor);
  EXPECT_TRUE(has(batch, rec, UsnReason::kDelete));
}

TEST_F(VolumeJournalTest, RenameAttrStreamAndIndexEmitExpectedReasons) {
  vol_->create_directories("\\dir");
  vol_->write_file("\\dir\\f.txt", "payload");
  const std::uint64_t rec = record_of("\\dir\\f.txt");
  const std::uint64_t dir_rec = record_of("\\dir");

  std::uint64_t cursor = vol_->journal().next_usn();
  vol_->rename("\\dir\\f.txt", "\\dir\\g.txt");
  auto batch = since(cursor);
  EXPECT_TRUE(has(batch, rec, UsnReason::kRename));
  // rename rewrites the parent's on-disk index attribute too.
  EXPECT_TRUE(has(batch, dir_rec, UsnReason::kIndexChange));

  cursor = vol_->journal().next_usn();
  vol_->set_attributes("\\dir\\g.txt", ntfs::kAttrHidden);
  EXPECT_TRUE(has(since(cursor), rec, UsnReason::kAttrChange));

  cursor = vol_->journal().next_usn();
  vol_->write_stream("\\dir\\g.txt", "ads", "hidden bytes");
  EXPECT_TRUE(has(since(cursor), rec, UsnReason::kDataOverwrite));

  cursor = vol_->journal().next_usn();
  EXPECT_TRUE(vol_->remove_stream("\\dir\\g.txt", "ads"));
  EXPECT_TRUE(has(since(cursor), rec, UsnReason::kDataOverwrite));
}

TEST_F(VolumeJournalTest, RemountStartsFreshIncarnationInvalidatingCursors) {
  vol_->write_file("\\a.txt", "x");
  const std::uint64_t old_id = vol_->journal().journal_id();
  const std::uint64_t cursor = vol_->journal().next_usn();
  ASSERT_GT(cursor, 0u);

  remount();
  // New incarnation: the boot-sector mount sequence gives every mount a
  // fresh id, and USNs restart from zero — the old cursor is doubly
  // invalid.
  EXPECT_NE(vol_->journal().journal_id(), old_id);
  EXPECT_EQ(vol_->journal().next_usn(), 0u);
  EXPECT_FALSE(vol_->journal().read_since(cursor).ok());

  // Journal the new mount past the old cursor. The cursor is now
  // numerically serveable — which is exactly why the id must differ:
  // consumers (sync_session) compare ids first, and an id collision
  // here would silently splice over the new mount's earliest writes.
  while (vol_->journal().next_usn() < cursor) {
    vol_->write_file("\\churn.txt", "tick");
  }
  EXPECT_TRUE(vol_->journal().read_since(cursor).ok());
  EXPECT_NE(vol_->journal().journal_id(), old_id);
}

TEST_F(VolumeJournalTest, EveryMountGetsADistinctJournalId) {
  std::vector<std::uint64_t> ids{vol_->journal().journal_id()};
  for (int i = 0; i < 3; ++i) {
    remount();
    ids.push_back(vol_->journal().journal_id());
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST_F(VolumeJournalTest, RenameChainRestoresByteIdenticalRecords) {
  vol_->write_file("\\a.txt", "stable payload");
  vol_->write_file("\\other.txt", "untouched");

  auto snap = ntfs::MftSnapshot::capture(disk_);
  ASSERT_TRUE(snap.ok()) << snap.status().to_string();
  const ntfs::MftSnapshot original = *snap;
  std::uint64_t cursor = vol_->journal().next_usn();

  // One-way rename: genuinely new bytes, so the dirty records reparse.
  vol_->rename("\\a.txt", "\\b.txt");
  std::vector<std::uint64_t> dirty;
  for (const auto& r : since(cursor)) dirty.push_back(r.record);
  cursor = vol_->journal().next_usn();
  EXPECT_GT(snap->refresh(disk_, dirty), 0u);

  // Renaming back restores every touched record to byte-identical
  // content (rename never touches standard-information timestamps).
  vol_->rename("\\b.txt", "\\a.txt");
  dirty.clear();
  for (const auto& r : since(cursor)) dirty.push_back(r.record);
  snap->refresh(disk_, dirty);

  // The device now matches the capture taken before the chain byte for
  // byte, and the refreshed image matches the device.
  EXPECT_TRUE(original.verify(disk_).empty());
  EXPECT_TRUE(snap->verify(disk_).empty());
}

TEST_F(VolumeJournalTest, DeleteThenRecreateLandsOnNewRecordNumber) {
  vol_->write_file("\\a.txt", "first life");
  const std::uint64_t old_rec = record_of("\\a.txt");

  std::uint64_t cursor = vol_->journal().next_usn();
  vol_->remove("\\a.txt");
  // The freed slot is recycled LIFO; occupy it so the recreated a.txt
  // lands on a different MFT record, as in a real delete/reinstall race.
  vol_->write_file("\\squatter.txt", "takes the freed slot");
  ASSERT_EQ(record_of("\\squatter.txt"), old_rec);
  vol_->write_file("\\a.txt", "second life");
  const std::uint64_t new_rec = record_of("\\a.txt");
  EXPECT_NE(new_rec, old_rec);

  const auto batch = since(cursor);
  EXPECT_TRUE(has(batch, old_rec, UsnReason::kDelete));
  EXPECT_TRUE(has(batch, new_rec, UsnReason::kCreate));

  // An incremental consumer replaying exactly the journaled records sees
  // the same listing a cold walk does: a.txt once, on the new record.
  auto snap = ntfs::MftSnapshot::capture(disk_);
  ASSERT_TRUE(snap.ok());
  std::size_t hits = 0;
  for (const auto& f : snap->listing()) {
    if (f.path == "a.txt") {
      ++hits;
      EXPECT_EQ(f.record, new_rec);
    }
  }
  EXPECT_EQ(hits, 1u);
}

}  // namespace
}  // namespace gb
