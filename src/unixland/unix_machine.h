// A Unix box: filesystem + syscall table + user-land tools.
//
// Two points of view exist, per Section 5:
//   * the infected runtime — getdents may be hooked by LKM rootkits, and
//     /bin/ls itself may be a T0rnkit trojan;
//   * the clean runtime — "the same command from the clean, bootable CD
//     distribution of the OS" walks the same disk state through an
//     unhooked syscall table with a known-good ls.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "support/hookable.h"
#include "unixland/unixfs.h"

namespace gb::unixland {

class UnixMachine {
 public:
  UnixMachine();

  UnixFs& fs() { return fs_; }
  const UnixFs& fs() const { return fs_; }

  /// The getdents(2) syscall — the LKM hooking point.
  Hookable<std::vector<UnixDirEnt>(const std::string& path)>& sys_getdents() {
    return sys_getdents_;
  }
  const Hookable<std::vector<UnixDirEnt>(const std::string& path)>&
  sys_getdents() const {
    return sys_getdents_;
  }

  /// Loaded kernel modules (lsmod view). Knark-style rootkits may elect
  /// to hide themselves from this list too.
  void load_lkm(std::string_view name, bool visible = true);
  std::vector<std::string> lsmod() const;

  /// Replaces /bin/ls with a trojan filter (T0rnkit). The trojan decides
  /// which names to suppress *after* getdents returns.
  using LsFilter = std::function<void(std::vector<UnixDirEnt>&)>;
  void trojan_ls(LsFilter filter) { ls_trojan_ = std::move(filter); }
  bool ls_is_trojaned() const { return static_cast<bool>(ls_trojan_); }

  /// Runs the *installed* /bin/ls on one directory (infected view).
  std::vector<UnixDirEnt> run_ls(const std::string& path) const;
  /// Recursive infected-view walk of all mounted partitions ("ls -laR /").
  std::vector<std::string> scan_all_infected() const;
  /// Recursive walk as from the clean boot CD: pristine ls over an
  /// unhooked getdents, same disk.
  std::vector<std::string> scan_all_clean() const;

  /// Daemon activity (Section 5's FP source: "mostly temporary files and
  /// log files generated by system daemons such as FTP"). Writes up to
  /// `max_new_files` new files in /var/log and /tmp.
  void daemon_activity(int max_new_files);

 private:
  void create_baseline();

  UnixFs fs_;
  Hookable<std::vector<UnixDirEnt>(const std::string& path)> sys_getdents_;
  LsFilter ls_trojan_;
  std::vector<std::pair<std::string, bool>> lkms_;  // (name, visible)
  int daemon_seq_ = 0;
};

}  // namespace gb::unixland
