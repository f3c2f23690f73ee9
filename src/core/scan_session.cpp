#include "core/scan_session.h"

#include <fstream>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

#include "disk/change_journal.h"

namespace gb::core {

namespace {

constexpr std::uint32_t kStoreMagic = 0x53534247;  // "GBSS"
constexpr std::uint16_t kStoreVersion = 2;

}  // namespace

void VolumeSnapshotStore::serialize(ByteWriter& w) const {
  w.u32(kStoreMagic);
  w.u16(kStoreVersion);
  w.u64(journal_id);
  w.u64(cursor);
  w.u8(primed ? 1 : 0);
  if (mft.ok()) {
    mft->serialize(w);
  } else {
    ntfs::MftSnapshot{}.serialize(w);
  }
}

support::StatusOr<VolumeSnapshotStore> VolumeSnapshotStore::deserialize(
    ByteReader& r) {
  try {
    if (r.u32() != kStoreMagic) {
      return support::Status::corrupt("not a snapshot store (bad magic)");
    }
    if (const auto v = r.u16(); v != kStoreVersion) {
      return support::Status::corrupt("unsupported snapshot store version " +
                                      std::to_string(v));
    }
    VolumeSnapshotStore store;
    store.journal_id = r.u64();
    store.cursor = r.u64();
    store.primed = r.u8() != 0;
    auto mft = ntfs::MftSnapshot::deserialize(r);
    if (!mft.ok()) return mft.status();
    store.mft = std::move(mft.value());
    return store;
  } catch (const ParseError& e) {
    return support::Status::corrupt(std::string("truncated snapshot store: ") +
                                    e.what());
  } catch (const std::bad_alloc&) {
    return support::Status::corrupt("snapshot store too large for memory");
  } catch (const std::length_error&) {
    return support::Status::corrupt("snapshot store length field out of range");
  }
}

support::Status VolumeSnapshotStore::save(const std::string& path) const {
  ByteWriter w;
  serialize(w);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return support::Status::unavailable("cannot open " + path);
  const auto view = w.view();
  os.write(reinterpret_cast<const char*>(view.data()),
           static_cast<std::streamsize>(view.size()));
  if (!os) return support::Status::unavailable("short write to " + path);
  return support::Status{};
}

support::StatusOr<VolumeSnapshotStore> VolumeSnapshotStore::load(
    const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return support::Status::unavailable("cannot open " + path);
  std::vector<char> raw((std::istreambuf_iterator<char>(is)),
                        std::istreambuf_iterator<char>());
  ByteReader r(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(raw.data()), raw.size()));
  return deserialize(r);
}

void sync_session(machine::Machine& m, internal::SessionState& s,
                  support::ThreadPool* pool) {
  const disk::ChangeJournal& journal = m.volume().journal();
  IncrementalStats stats;
  stats.journal_id = journal.journal_id();

  std::string fallback;
  if (!s.store.primed) {
    fallback = "cold start";
  } else if (s.store.journal_id != journal.journal_id()) {
    // The volume was remounted (or the journal otherwise restarted): the
    // cursor belongs to a dead incarnation and vouches for nothing.
    fallback = "journal reset";
  } else if (auto boot = ntfs::read_boot_sector(m.disk());
             !boot.ok() || *boot != s.store.mft->boot()) {
    // The MFT moved or no longer parses: a write no journal records.
    fallback = "boot sector changed";
  } else {
    auto read = journal.read_since(s.store.cursor);
    if (!read.ok()) {
      fallback = read.status().code() == support::StatusCode::kNotFound
                     ? "journal wrapped"
                     : "stale journal cursor";
    } else {
      stats.journal_records = read->size();
      std::vector<std::uint64_t> dirty;
      dirty.reserve(read->size());
      for (const auto& rec : *read) dirty.push_back(rec.record);
      ntfs::MftSnapshot& image = s.store.mft.value();
      const std::uint64_t reparsed = image.refresh(m.disk(), dirty);
      if (s.spec.verify_spliced && !image.verify(m.disk()).empty()) {
        // An out-of-band write the journal never saw, or a restored slot
        // that does not re-parse to what it claims: distrust the whole
        // snapshot rather than guess which spliced entries are stale.
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
    s.store.mft = ntfs::MftSnapshot::capture(m.disk(), pool);
    if (s.store.mft.ok()) {
      s.store.primed = true;
      stats.records_reparsed = s.store.mft->record_capacity();
      stats.records_spliced = 0;
    } else {
      // Volume no longer parses: the views report the image's Status,
      // exactly as a cold scan does, and the next sync starts cold.
      s.store.primed = false;
      stats.fallback_reason +=
          " (capture failed: " + s.store.mft.status().message() + ")";
    }
  }

  s.store.journal_id = journal.journal_id();
  s.store.cursor = journal.next_usn();
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
ScanSession& ScanSession::operator=(ScanSession&&) noexcept = default;

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

support::Status ScanSession::save(const std::string& path) const {
  return state_->store.save(path);
}

support::Status ScanSession::restore(const std::string& path) {
  auto loaded = VolumeSnapshotStore::load(path);
  if (!loaded.ok()) return loaded.status();
  // Reject a snapshot of some other volume: the record count is the
  // cheapest shape check, and a mismatched store could splice a foreign
  // listing into the report if its journal cursor happened to be
  // serveable here (test volumes share the default boot serial).
  if (loaded->primed && loaded->mft->record_capacity() !=
                            machine().volume().mft_record_capacity()) {
    return support::Status::corrupt("snapshot store is for another volume");
  }
  state_->store = std::move(loaded.value());
  return support::Status{};
}

machine::Machine& ScanSession::machine() const { return engine_->machine(); }

}  // namespace gb::core
