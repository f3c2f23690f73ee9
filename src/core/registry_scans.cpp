#include "core/registry_scans.h"

#include <functional>

#include "core/scan_session.h"
#include "hive/hive.h"
#include "ntfs/mft_scanner.h"
#include "obs/trace.h"
#include "registry/aseps.h"
#include "support/checksum.h"
#include "support/strings.h"

namespace gb::core {

namespace {

/// View-independent ASEP walk: callers supply how to enumerate subkeys
/// and values of a key, and the walk converts the catalogue's hooks to
/// canonical resources. Using the same extraction for every view
/// guarantees key-for-key comparability.
struct AsepFetchers {
  std::function<std::vector<std::string>(const std::string& key)> subkeys;
  // (counted name, data-as-string) pairs
  std::function<std::vector<std::pair<std::string, std::string>>(
      const std::string& key)>
      values;
};

std::string find_value_data(const AsepFetchers& f, const std::string& key,
                            std::string_view name) {
  for (const auto& [n, data] : f.values(key)) {
    if (iequals(n, name)) return data;
  }
  return {};
}

void extract_asep_hooks(const AsepFetchers& f, ScanResult& out) {
  for (const auto& asep : registry::standard_aseps()) {
    switch (asep.kind) {
      case registry::AsepKind::kValues:
        for (const auto& [name, data] : f.values(asep.key_path)) {
          out.resources.push_back(
              Resource{asep_key(asep.key_path, name, ""),
                       asep.id + ": " + printable(name) + " -> " +
                           printable(data)});
          ++out.work.records_visited;
        }
        break;
      case registry::AsepKind::kSubkeys:
        for (const auto& sub : f.subkeys(asep.key_path)) {
          const std::string key = asep.key_path + "\\" + sub;
          const std::string target = find_value_data(f, key, "ImagePath");
          out.resources.push_back(
              Resource{asep_key(key, "", ""),
                       asep.id + ": " + printable(sub) + " -> " +
                           printable(target)});
          ++out.work.records_visited;
        }
        break;
      case registry::AsepKind::kNamedValue: {
        const std::string data =
            find_value_data(f, asep.key_path, asep.value_name);
        for (const auto& item : split(data, ' ')) {
          if (item.empty()) continue;
          out.resources.push_back(
              Resource{asep_key(asep.key_path, asep.value_name, item),
                       asep.id + ": " + printable(item)});
          ++out.work.records_visited;
        }
        break;
      }
    }
  }
}

/// Loads the standard hives from raw disk bytes into an offline registry.
/// All backing files resolve against one pre-scanned listing, so the MFT
/// is walked once rather than once per hive. Each mount's payload read
/// runs as its own task over a private CountingDevice, and the trees,
/// byte counts, and seek counts merge in standard-mount order — so the
/// result (and the work accounting) is identical at any worker count.
/// One unparseable hive fails the whole view with kCorrupt: a partial
/// ASEP catalogue would silently miss hooks, which is worse than an
/// honest degraded diff.
support::StatusOr<registry::ConfigurationManager> load_offline_registry(
    disk::SectorDevice& base, const std::vector<ntfs::RawFile>& files,
    support::ThreadPool* pool, machine::ScanWork& work) {
  const auto& mounts = registry::standard_hive_mounts();

  struct MountRead {
    std::optional<std::uint64_t> record;
    support::StatusOr<hive::Key> tree;
    std::uint64_t payload_bytes = 0;
    std::uint64_t seeks = 0;
  };
  std::vector<MountRead> reads(mounts.size());
  for (std::size_t i = 0; i < mounts.size(); ++i) {
    reads[i].record =
        ntfs::MftScanner::find_in(files, mounts[i].backing_file);
  }

  auto read_one = [&](std::size_t i) {
    MountRead& r = reads[i];
    if (!r.record) return;  // hive file absent: skipped, as before
    auto span = obs::default_tracer().span("hive.read", "parse");
    span.arg("file", mounts[i].backing_file);
    disk::CountingDevice dev(base);
    auto scanner = ntfs::MftScanner::open(dev);
    if (!scanner.ok()) {
      r.tree = scanner.status();
      return;
    }
    try {
      const auto bytes = scanner->read_file_data(*r.record);
      r.payload_bytes = bytes.size();
      r.tree = hive::parse_hive_or(bytes);
    } catch (const ParseError& e) {  // corrupt run list / record
      r.tree = support::Status::corrupt(e.what());
    }
    r.seeks = dev.stats().seeks;
  };
  if (pool && pool->size() > 0 && reads.size() > 1) {
    pool->parallel_for(reads.size(), read_one);
  } else {
    for (std::size_t i = 0; i < reads.size(); ++i) read_one(i);
  }

  registry::ConfigurationManager offline;
  for (std::size_t i = 0; i < mounts.size(); ++i) {
    MountRead& r = reads[i];
    if (!r.record) continue;
    work.bytes_read += r.payload_bytes;
    work.seeks += r.seeks;
    if (!r.tree.ok()) return r.tree.status();
    offline.create_hive(mounts[i].mount, mounts[i].backing_file);
    offline.load_hive(mounts[i].mount, std::move(r.tree.value()));
  }
  return offline;
}

/// load_offline_registry with a content-addressed parse cache: every
/// mount's payload bytes are still read through the device (the work
/// accounting must match the cold scan), but an unchanged payload's
/// *parse* is served from `cache` by digest. Tasks only read the cache
/// concurrently; fresh parses are inserted in the serial merge loop.
support::StatusOr<registry::ConfigurationManager>
load_offline_registry_cached(disk::SectorDevice& base,
                             const std::vector<ntfs::RawFile>& files,
                             support::ThreadPool* pool,
                             machine::ScanWork& work,
                             std::map<std::uint64_t, CachedHiveParse>& cache) {
  const auto& mounts = registry::standard_hive_mounts();

  struct MountRead {
    std::optional<std::uint64_t> record;
    support::StatusOr<hive::Key> tree;
    std::uint64_t payload_bytes = 0;
    std::uint64_t seeks = 0;
    std::uint64_t digest = 0;
    std::string hive_name;
    bool fresh_parse = false;
  };
  std::vector<MountRead> reads(mounts.size());
  for (std::size_t i = 0; i < mounts.size(); ++i) {
    reads[i].record =
        ntfs::MftScanner::find_in(files, mounts[i].backing_file);
  }

  auto read_one = [&](std::size_t i) {
    MountRead& r = reads[i];
    if (!r.record) return;  // hive file absent: skipped, as before
    auto span = obs::default_tracer().span("hive.read", "parse");
    span.arg("file", mounts[i].backing_file);
    disk::CountingDevice dev(base);
    auto scanner = ntfs::MftScanner::open(dev);
    if (!scanner.ok()) {
      r.tree = scanner.status();
      return;
    }
    try {
      const auto bytes = scanner->read_file_data(*r.record);
      r.payload_bytes = bytes.size();
      r.digest = support::fnv1a(bytes);
      if (auto it = cache.find(r.digest); it != cache.end()) {
        span.arg("cached", "1");
        r.tree = it->second.tree;
      } else {
        span.arg("cached", "0");
        r.tree = hive::parse_hive_or(bytes);
        if (r.tree.ok()) {
          r.hive_name = hive::hive_name(bytes);
          r.fresh_parse = true;
        }
      }
    } catch (const ParseError& e) {  // corrupt run list / record
      r.tree = support::Status::corrupt(e.what());
    }
    r.seeks = dev.stats().seeks;
  };
  if (pool && pool->size() > 0 && reads.size() > 1) {
    pool->parallel_for(reads.size(), read_one);
  } else {
    for (std::size_t i = 0; i < reads.size(); ++i) read_one(i);
  }

  registry::ConfigurationManager offline;
  for (std::size_t i = 0; i < mounts.size(); ++i) {
    MountRead& r = reads[i];
    if (!r.record) continue;
    work.bytes_read += r.payload_bytes;
    work.seeks += r.seeks;
    if (!r.tree.ok()) return r.tree.status();
    if (r.fresh_parse) {
      cache.insert_or_assign(r.digest,
                             CachedHiveParse{r.hive_name, r.tree.value()});
    }
    offline.create_hive(mounts[i].mount, mounts[i].backing_file);
    offline.load_hive(mounts[i].mount, std::move(r.tree.value()));
  }
  return offline;
}

AsepFetchers offline_fetchers(const registry::ConfigurationManager& reg) {
  AsepFetchers f;
  f.subkeys = [&reg](const std::string& key) {
    return reg.enum_subkeys_raw(key);
  };
  f.values = [&reg](const std::string& key) {
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& v : reg.enum_values_raw(key)) {
      out.emplace_back(v.name, v.as_string());
    }
    return out;
  };
  return f;
}

}  // namespace

support::StatusOr<ScanResult> high_level_registry_scan(
    machine::Machine& m, const winapi::Ctx& ctx) {
  ScanResult out;
  out.view_name = "Win32 Reg API scan (" + ctx.image_name + ")";
  out.type = ResourceType::kAsepHook;
  out.trust = TrustLevel::kApiView;

  winapi::ApiEnv* env = m.win32().env(ctx.pid);
  if (!env) {
    return support::Status::failed_precondition(
        "no API environment for context pid " + std::to_string(ctx.pid));
  }

  AsepFetchers f;
  f.subkeys = [env, &ctx](const std::string& key) {
    return env->reg_enum_keys(ctx, key);
  };
  f.values = [env, &ctx](const std::string& key) {
    std::vector<std::pair<std::string, std::string>> out_vals;
    for (const auto& v : env->reg_enum_values(ctx, key)) {
      out_vals.emplace_back(v.name, v.value.as_string());
    }
    return out_vals;
  };
  extract_asep_hooks(f, out);
  out.normalize();
  return out;
}

support::StatusOr<ScanResult> low_level_registry_scan(machine::Machine& m,
                                                      support::ThreadPool* pool,
                                                      bool flush_hives) {
  ScanResult out;
  out.view_name = "raw hive parse";
  out.type = ResourceType::kAsepHook;
  out.trust = TrustLevel::kTruthApproximation;

  // Make the backing files current, then read them below the API stack.
  // (The flush itself is why this is a truth *approximation*: privileged
  // ghostware could in principle tamper with the copy path.)
  if (flush_hives) m.flush_registry();
  auto lookup = ntfs::MftScanner::open(m.disk());
  if (!lookup.ok()) return lookup.status();
  const auto files = lookup->scan(pool);
  auto offline = load_offline_registry(m.disk(), files, pool, out.work);
  if (!offline.ok()) return offline.status();
  extract_asep_hooks(offline_fetchers(*offline), out);
  out.work.seeks += lookup->last_scan_stats().seeks;
  out.normalize();
  return out;
}

support::StatusOr<ScanResult> spliced_low_level_registry_scan(
    machine::Machine& m, internal::SessionState& s,
    support::ThreadPool* pool) {
  if (!s.store.primed) {
    // Snapshot capture failed at sync time: cold path, identical report.
    // The engine already flushed the hives serially; never re-flush here.
    return low_level_registry_scan(m, pool, /*flush_hives=*/false);
  }
  ScanResult out;
  out.view_name = "raw hive parse";
  out.type = ResourceType::kAsepHook;
  out.trust = TrustLevel::kTruthApproximation;

  // The backing-file lookup walk is spliced from the snapshot: same
  // listing the cold scan's MFT walk would produce (default batch size),
  // and the same seek charge for it.
  const auto files = s.store.mft.listing();
  auto offline = load_offline_registry_cached(m.disk(), files, pool,
                                              out.work, s.store.hives);
  if (!offline.ok()) return offline.status();
  extract_asep_hooks(offline_fetchers(*offline), out);
  out.work.seeks += s.store.mft.simulate_scan_io(0).seeks;
  out.normalize();
  return out;
}

support::StatusOr<ScanResult> outside_registry_scan(
    disk::SectorDevice& dev, support::ThreadPool* pool) {
  ScanResult out;
  out.view_name = "WinPE mounted-hive scan";
  out.type = ResourceType::kAsepHook;
  out.trust = TrustLevel::kTruth;

  auto scanner = ntfs::MftScanner::open(dev);
  if (!scanner.ok()) return scanner.status();
  auto offline =
      load_offline_registry(dev, scanner->scan(pool), pool, out.work);
  if (!offline.ok()) return offline.status();
  extract_asep_hooks(offline_fetchers(*offline), out);
  out.normalize();
  return out;
}

}  // namespace gb::core
