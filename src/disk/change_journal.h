// Simulated NTFS change journal ($UsnJrnl) — the incremental-scan feed.
//
// Every metadata mutation the file-system driver persists appends one
// append-only record here: create, delete, rename, data overwrite,
// attribute change, directory-index change. A re-scan that remembers the
// (journal id, next-USN) cursor from its last walk can ask "what changed
// since?" and re-parse only those MFT records instead of the whole
// volume — the paper's fleet deployment re-scans millions of endpoints
// on a cadence, and ~92% of an inside scan is the raw MFT walks over an
// almost entirely unchanged volume.
//
// Semantics mirror the real journal closely enough for the consumer
// contract to be honest:
//   * USNs are monotonically increasing within one journal incarnation.
//   * The journal is a bounded ring: once more than `capacity` records
//     have been appended, the oldest fall off and a cursor older than
//     first_usn() can no longer be served — read_since() reports the
//     wrap and the caller must fall back to a full walk.
//   * reset() starts a new incarnation under a new journal id; cursors
//     from the old incarnation are invalid (same fallback).
//
// Determinism: the journal holds no wall-clock time and draws no random
// ids — the id is caller-chosen and USNs count from zero. The volume
// derives it from its boot-sector serial and an on-device mount-sequence
// counter, so every mount is a distinct incarnation without sacrificing
// determinism. Identical mutation sequences produce byte-identical
// journals, which is what lets the incremental scan keep the report
// byte-identical to a cold scan.
//
// Id uniqueness matters: reset() restarts USNs at zero, so if two
// incarnations shared an id, a cursor taken under the first could look
// serveable against the second once it had journaled that many writes —
// and a consumer would silently miss the second incarnation's earliest
// changes. Callers of reset() must supply an id never used before on
// the volume (the mount-sequence scheme above guarantees this).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "support/status.h"

namespace gb::disk {

/// Why a record changed. One reason per journal record (the simulation
/// journals at the record-write choke point, so compound operations emit
/// one record per MFT write rather than OR-ed reason masks).
enum class UsnReason : std::uint8_t {
  kCreate = 0,
  kDelete = 1,
  kRename = 2,
  kDataOverwrite = 3,
  kAttrChange = 4,
  kIndexChange = 5,
};

/// One journal entry: which MFT record changed, why, and its USN.
struct UsnRecord {
  std::uint64_t usn = 0;
  std::uint64_t record = 0;  // MFT record number
  UsnReason reason = UsnReason::kDataOverwrite;

  bool operator==(const UsnRecord&) const = default;
};

class ChangeJournal {
 public:
  /// Default ring capacity — generous for test volumes, small enough
  /// that a busy volume demonstrably wraps.
  static constexpr std::size_t kDefaultCapacity = 64 * 1024;

  explicit ChangeJournal(std::uint64_t journal_id = 1,
                         std::size_t capacity = kDefaultCapacity)
      : journal_id_(journal_id), capacity_(capacity ? capacity : 1) {}

  /// Identity of this journal incarnation. Changes only via reset().
  [[nodiscard]] std::uint64_t journal_id() const { return journal_id_; }
  /// The USN the next append will receive; a reader holding this cursor
  /// is fully caught up.
  [[nodiscard]] std::uint64_t next_usn() const { return next_usn_; }
  /// Oldest USN still in the ring. A cursor below this has been wrapped
  /// past and cannot be served.
  [[nodiscard]] std::uint64_t first_usn() const {
    return next_usn_ - ring_.size();
  }
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Appends one record, evicting the oldest when the ring is full.
  void append(std::uint64_t record, UsnReason reason) {
    ring_.push_back(UsnRecord{next_usn_++, record, reason});
    while (ring_.size() > capacity_) ring_.pop_front();
  }

  /// Everything in [cursor, next_usn()), in append order. Errors demand
  /// a full-walk fallback from the caller:
  ///   * kNotFound — the ring wrapped past `cursor` (truncation); the
  ///     missing records are gone for good.
  ///   * kFailedPrecondition — `cursor` is ahead of next_usn(), i.e. it
  ///     came from a different journal incarnation.
  [[nodiscard]] support::StatusOr<std::vector<UsnRecord>> read_since(
      std::uint64_t cursor) const {
    if (cursor > next_usn_) {
      return support::Status::failed_precondition(
          "journal cursor " + std::to_string(cursor) +
          " is ahead of next USN " + std::to_string(next_usn_));
    }
    if (cursor < first_usn()) {
      return support::Status::not_found(
          "journal wrapped: cursor " + std::to_string(cursor) +
          " older than first retained USN " + std::to_string(first_usn()));
    }
    std::vector<UsnRecord> out;
    out.reserve(static_cast<std::size_t>(next_usn_ - cursor));
    for (const UsnRecord& r : ring_) {
      if (r.usn >= cursor) out.push_back(r);
    }
    return out;
  }

  /// Shrinks (or grows) the ring, evicting oldest records immediately.
  /// Tests use a tiny capacity to force the wrap fallback on demand.
  void set_capacity(std::size_t capacity) {
    capacity_ = capacity ? capacity : 1;
    while (ring_.size() > capacity_) ring_.pop_front();
  }

  /// Starts a new incarnation: new id, empty ring, USNs from zero.
  /// Every outstanding cursor becomes invalid.
  void reset(std::uint64_t new_journal_id) {
    journal_id_ = new_journal_id;
    ring_.clear();
    next_usn_ = 0;
  }

 private:
  std::uint64_t journal_id_;
  std::size_t capacity_;
  std::uint64_t next_usn_ = 0;
  std::deque<UsnRecord> ring_;
};

}  // namespace gb::disk
