#include "unixland/checkers.h"

#include "support/checksum.h"

namespace gb::unixland {

namespace {

/// The binaries a 2004-era integrity db would track.
constexpr const char* kTrackedBinaries[] = {
    "/bin/ls",      "/bin/ps",         "/bin/netstat",
    "/bin/login",   "/bin/sh",         "/usr/bin/find",
    "/usr/bin/du",  "/sbin/ifconfig",  "/sbin/insmod",
};

}  // namespace

std::vector<HookInfo> check_syscall_table(const UnixMachine& m) {
  return m.sys_getdents().hooks();
}

BinaryHashDb build_hash_db(const UnixMachine& clean_box) {
  BinaryHashDb db;
  for (const char* path : kTrackedBinaries) {
    if (clean_box.fs().exists(path)) {
      db[path] = support::fnv1a(clean_box.fs().read(path));
    }
  }
  return db;
}

std::vector<std::string> check_binaries(const UnixMachine& m,
                                        const BinaryHashDb& db) {
  std::vector<std::string> bad;
  for (const auto& [path, good_hash] : db) {
    if (!m.fs().exists(path)) {
      bad.push_back(path + " (missing)");
      continue;
    }
    if (support::fnv1a(m.fs().read(path)) != good_hash) bad.push_back(path);
  }
  return bad;
}

}  // namespace gb::unixland
