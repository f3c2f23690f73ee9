#include "core/registry_scans.h"

#include <functional>

#include "hive/hive.h"
#include "ntfs/mft_scanner.h"
#include "obs/trace.h"
#include "registry/aseps.h"
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

/// Loads the standard hives from raw disk bytes into an offline registry,
/// in standard-mount order. The backing files resolve against the
/// image's listing, so no hive costs another MFT walk. One unparseable
/// hive fails the whole view with kCorrupt: a partial ASEP catalogue
/// would silently miss hooks, which is worse than an honest degraded
/// diff.
support::StatusOr<registry::ConfigurationManager> load_offline_registry(
    disk::SectorDevice& dev, const ntfs::MftSnapshot& image,
    machine::ScanWork& work) {
  registry::ConfigurationManager offline;
  for (const auto& mount : registry::standard_hive_mounts()) {
    const auto record =
        ntfs::MftScanner::find_in(image.listing(), mount.backing_file);
    if (!record) continue;  // hive file absent: skipped
    auto span = obs::default_tracer().span("hive.read", "parse");
    span.arg("file", mount.backing_file);
    support::StatusOr<hive::Key> tree;
    try {
      const auto bytes = image.read_data(dev, *record, work.seeks);
      work.bytes_read += bytes.size();
      tree = hive::parse_hive_or(bytes);
    } catch (const std::exception& e) {  // hostile record or run list
      tree = support::Status::corrupt(e.what());
    }
    if (!tree.ok()) return tree.status();
    offline.create_hive(mount.mount, mount.backing_file);
    offline.load_hive(mount.mount, std::move(tree.value()));
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

support::StatusOr<ScanResult> low_level_registry_scan(
    disk::SectorDevice& dev, const ntfs::MftSnapshot& image) {
  ScanResult out;
  out.view_name = "raw hive parse";
  out.type = ResourceType::kAsepHook;
  out.trust = TrustLevel::kTruthApproximation;

  // The flush that made the backing files current is why this is a
  // truth *approximation*: privileged ghostware could in principle
  // tamper with the copy path.
  auto offline = load_offline_registry(dev, image, out.work);
  if (!offline.ok()) return offline.status();
  extract_asep_hooks(offline_fetchers(*offline), out);
  // The backing-file lookup is charged as the raw walk that locates
  // them.
  out.work.seeks += image.simulate_scan_io().seeks;
  out.normalize();
  return out;
}

support::StatusOr<ScanResult> low_level_registry_scan(machine::Machine& m,
                                                      support::ThreadPool* pool,
                                                      bool flush_hives) {
  if (flush_hives) m.flush_registry();
  auto image = ntfs::MftSnapshot::capture(m.disk(), pool);
  if (!image.ok()) return image.status();
  return low_level_registry_scan(m.disk(), *image);
}

support::StatusOr<ScanResult> outside_registry_scan(
    disk::SectorDevice& dev, support::ThreadPool* pool) {
  ScanResult out;
  out.view_name = "WinPE mounted-hive scan";
  out.type = ResourceType::kAsepHook;
  out.trust = TrustLevel::kTruth;

  auto image = ntfs::MftSnapshot::capture(dev, pool);
  if (!image.ok()) return image.status();
  auto offline = load_offline_registry(dev, *image, out.work);
  if (!offline.ok()) return offline.status();
  extract_asep_hooks(offline_fetchers(*offline), out);
  out.normalize();
  return out;
}

}  // namespace gb::core
