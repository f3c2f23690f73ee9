#include "core/file_scans.h"

#include <functional>
#include <set>
#include <string>
#include <string_view>

#include "support/strings.h"

namespace gb::core {

support::StatusOr<ScanResult> high_level_file_scan(machine::Machine& m,
                                                   const winapi::Ctx& ctx,
                                                   support::ThreadPool* pool) {
  ScanResult out;
  out.view_name = "Win32 FindFile walk (" + ctx.image_name + ")";
  out.type = ResourceType::kFile;
  out.trust = TrustLevel::kApiView;

  winapi::ApiEnv* env = m.win32().env(ctx.pid);
  if (!env) {
    return support::Status::failed_precondition(
        "no API environment for context pid " + std::to_string(ctx.pid));
  }

  // Level-parallel breadth-first walk: each frontier directory is listed
  // by one task, and listings merge in frontier order — so the resource
  // set, the records_visited count, and the normalized output match the
  // recursive serial walk exactly at any worker count.
  struct Listing {
    std::vector<std::pair<std::string, bool>> entries;  // (path, is_dir)
  };
  std::vector<std::string> frontier{"C:"};
  while (!frontier.empty()) {
    std::vector<Listing> listings(frontier.size());
    auto list_one = [&](std::size_t i) {
      bool ok = false;
      const auto entries = env->find_files(ctx, frontier[i], &ok);
      if (!ok) return;  // path beyond Win32: contents invisible to this view
      for (const auto& e : entries) {
        listings[i].entries.emplace_back(join_path(frontier[i], e.name),
                                         e.is_directory);
      }
    };
    if (pool && pool->size() > 0 && frontier.size() > 1) {
      pool->parallel_for(frontier.size(), list_one);
    } else {
      for (std::size_t i = 0; i < frontier.size(); ++i) list_one(i);
    }
    std::vector<std::string> next;
    for (const auto& l : listings) {
      for (const auto& [full, is_dir] : l.entries) {
        out.resources.push_back(Resource{file_key(full), printable(full)});
        ++out.work.records_visited;
        if (is_dir) next.push_back(full);
      }
    }
    frontier = std::move(next);
  }
  out.normalize();
  return out;
}

ScanResult low_level_file_scan(const ntfs::MftSnapshot& image) {
  ScanResult out;
  out.view_name = "raw MFT scan";
  out.type = ResourceType::kFile;
  out.trust = TrustLevel::kTruthApproximation;

  for (const auto& f : image.listing()) {
    if (f.is_system) continue;
    const std::string full = "C:\\" + f.path;
    out.resources.push_back(Resource{file_key(full), printable(full)});
  }
  // The walk visits every record slot, used or not: charge them all.
  out.work.records_visited = image.record_capacity();
  const disk::IoStats io = image.simulate_scan_io();
  out.work.bytes_read = io.bytes_read();
  out.work.seeks = io.seeks;
  out.normalize();
  return out;
}

support::StatusOr<ScanResult> low_level_file_scan(machine::Machine& m,
                                                  support::ThreadPool* pool) {
  auto image = ntfs::MftSnapshot::capture(m.disk(), pool);
  if (!image.ok()) return image.status();
  return low_level_file_scan(*image);
}

support::StatusOr<ScanResult> index_file_scan(const ntfs::MftSnapshot& image) {
  ScanResult out;
  out.view_name = "raw directory-index walk";
  out.type = ResourceType::kFile;
  out.trust = TrustLevel::kTruthApproximation;

  if (auto st = image.index_status(); !st.ok()) return st;
  // Index-visible = full listing minus records no directory index
  // references — plus everything beneath an unindexed directory.
  std::set<std::uint64_t> orphan_records;
  std::set<std::string, std::less<>> orphan_dirs;
  for (const auto& o : image.index_orphans()) {
    orphan_records.insert(o.record);
    if (o.is_directory) orphan_dirs.insert(o.path);
  }
  auto beneath_orphan = [&](std::string_view path) {
    for (std::size_t sep = path.find('\\'); sep != std::string_view::npos;
         sep = path.find('\\', sep + 1)) {
      if (orphan_dirs.contains(path.substr(0, sep))) return true;
    }
    return false;
  };
  for (const auto& f : image.listing()) {
    if (f.is_system || orphan_records.contains(f.record) ||
        beneath_orphan(f.path)) {
      continue;
    }
    const std::string full = "C:\\" + f.path;
    out.resources.push_back(Resource{file_key(full), printable(full)});
  }
  out.work.records_visited = 2ull * image.record_capacity();
  const disk::IoStats io = image.simulate_scan_io();
  out.work.bytes_read = io.bytes_read();
  out.work.seeks = io.seeks;
  out.normalize();
  return out;
}

support::StatusOr<ScanResult> outside_file_scan(disk::SectorDevice& dev) {
  ScanResult out;
  out.view_name = "WinPE clean-boot scan";
  out.type = ResourceType::kFile;
  out.trust = TrustLevel::kTruth;

  try {
    // Fresh read-only mount: no hooks, no filters — and provably no
    // writes to the evidence disk (not even the mount-sequence bump).
    ntfs::NtfsVolume vol(dev, ntfs::MountMode::kReadOnly);
    std::function<void(const std::string&)> walk =
        [&](const std::string& dir) {
          for (const auto& e : vol.list_directory(dir)) {
            const std::string full = join_path(dir, e.name);
            out.resources.push_back(Resource{file_key(full), printable(full)});
            ++out.work.records_visited;
            if (e.is_directory) walk(full);
          }
        };
    walk("C:");
  } catch (const ParseError& e) {
    return support::Status::corrupt(e.what());
  }
  out.normalize();
  return out;
}

}  // namespace gb::core
