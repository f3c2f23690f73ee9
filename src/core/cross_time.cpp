#include "core/cross_time.h"

#include "hive/hive.h"
#include "ntfs/mft_scanner.h"
#include "registry/aseps.h"
#include "support/checksum.h"
#include "support/strings.h"

namespace gb::core {

namespace {

void hash_registry_tree(const hive::Key& key, const std::string& prefix,
                        std::map<std::string, std::uint64_t>& out) {
  for (const auto& v : key.values) {
    out[fold_case(prefix + "|" + v.name)] = support::fnv1a(v.data);
  }
  for (const auto& sub : key.subkeys) {
    hash_registry_tree(sub, prefix + "\\" + sub.name, out);
  }
}

}  // namespace

Checkpoint take_checkpoint(machine::Machine& m) {
  Checkpoint cp;
  cp.taken_at = m.clock().now();

  m.flush_registry();
  ntfs::MftScanner scanner(m.disk());
  const auto files = scanner.scan();
  for (const auto& f : files) {
    if (f.is_system) continue;
    Checkpoint::FileEntry e;
    e.size = f.size;
    e.is_directory = f.is_directory;
    if (!f.is_directory) {
      e.content_hash = support::fnv1a(scanner.read_file_data(f.record));
    }
    cp.files[fold_case("C:\\" + f.path)] = e;
  }
  for (const auto& mount : registry::standard_hive_mounts()) {
    const auto rec = ntfs::MftScanner::find_in(files, mount.backing_file);
    if (!rec) continue;
    const auto tree = hive::parse_hive(scanner.read_file_data(*rec));
    hash_registry_tree(tree, mount.mount, cp.registry);
  }
  return cp;
}

std::size_t CrossTimeDiff::added() const {
  std::size_t n = 0;
  for (const auto& c : changes) n += c.kind == ChangeKind::kAdded;
  return n;
}
std::size_t CrossTimeDiff::removed() const {
  std::size_t n = 0;
  for (const auto& c : changes) n += c.kind == ChangeKind::kRemoved;
  return n;
}
std::size_t CrossTimeDiff::modified() const {
  std::size_t n = 0;
  for (const auto& c : changes) n += c.kind == ChangeKind::kModified;
  return n;
}

CrossTimeDiff cross_time_diff(const Checkpoint& before,
                              const Checkpoint& after) {
  CrossTimeDiff diff;
  for (const auto& [path, entry] : after.files) {
    const auto it = before.files.find(path);
    if (it == before.files.end()) {
      diff.changes.push_back({ChangeKind::kAdded, path, false});
    } else if (!(it->second == entry)) {
      diff.changes.push_back({ChangeKind::kModified, path, false});
    }
  }
  for (const auto& [path, entry] : before.files) {
    if (!after.files.contains(path)) {
      diff.changes.push_back({ChangeKind::kRemoved, path, false});
    }
  }
  for (const auto& [key, hash] : after.registry) {
    const auto it = before.registry.find(key);
    if (it == before.registry.end()) {
      diff.changes.push_back({ChangeKind::kAdded, key, true});
    } else if (it->second != hash) {
      diff.changes.push_back({ChangeKind::kModified, key, true});
    }
  }
  for (const auto& [key, hash] : before.registry) {
    if (!after.registry.contains(key)) {
      diff.changes.push_back({ChangeKind::kRemoved, key, true});
    }
  }
  return diff;
}

std::vector<Change> filter_noise(const std::vector<Change>& changes,
                                 const std::vector<std::string>& patterns) {
  std::vector<Change> out;
  for (const auto& c : changes) {
    bool noisy = false;
    for (const auto& pat : patterns) {
      if (glob_match(pat, c.what)) {
        noisy = true;
        break;
      }
    }
    if (!noisy) out.push_back(c);
  }
  return out;
}

const std::vector<std::string>& default_noise_patterns() {
  static const std::vector<std::string> kPatterns = {
      "*\\prefetch\\*",   "*\\temp\\*",       "*\\restore\\*",
      "*.log",            "*\\temporary internet files\\*",
      "*\\ccm\\*",        "*|wordwrap",       "*index.dat",
  };
  return kPatterns;
}

}  // namespace gb::core
