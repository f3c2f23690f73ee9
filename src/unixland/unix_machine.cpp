#include "unixland/unix_machine.h"

#include <functional>

namespace gb::unixland {

UnixMachine::UnixMachine() {
  sys_getdents_.set_base(
      [this](const std::string& path) { return fs_.readdir(path); });
  create_baseline();
}

void UnixMachine::create_baseline() {
  for (const char* dir :
       {"/bin", "/sbin", "/etc", "/lib/modules", "/usr/bin", "/usr/sbin",
        "/var/log", "/var/run", "/tmp", "/home/user", "/root"}) {
    fs_.mkdirs(dir);
  }
  for (const char* bin :
       {"/bin/ls", "/bin/ps", "/bin/netstat", "/bin/login", "/bin/sh",
        "/usr/bin/find", "/usr/bin/du", "/sbin/ifconfig", "/sbin/insmod"}) {
    fs_.write(bin, "\x7f" "ELF-binary");
  }
  fs_.write("/etc/passwd", "root:x:0:0::/root:/bin/sh\n");
  fs_.write("/etc/inetd.conf", "ftp stream tcp nowait root in.ftpd\n");
  fs_.write("/var/log/messages", "kernel: booted\n");
  fs_.write("/var/log/xferlog", "");
  fs_.write("/home/user/notes.txt", "hello\n");
}

void UnixMachine::load_lkm(std::string_view name, bool visible) {
  lkms_.emplace_back(std::string(name), visible);
}

std::vector<std::string> UnixMachine::lsmod() const {
  std::vector<std::string> out;
  for (const auto& [name, visible] : lkms_) {
    if (visible) out.push_back(name);
  }
  return out;
}

std::vector<UnixDirEnt> UnixMachine::run_ls(const std::string& path) const {
  auto entries = sys_getdents_(path);  // hooked view
  if (ls_trojan_) ls_trojan_(entries);
  return entries;
}

namespace {

void walk(const std::function<std::vector<UnixDirEnt>(const std::string&)>& ls,
          const std::string& dir, std::vector<std::string>& out) {
  for (const auto& e : ls(dir)) {
    const std::string full = (dir == "/" ? "" : dir) + "/" + e.name;
    out.push_back(full);
    if (e.is_dir) walk(ls, full, out);
  }
}

}  // namespace

std::vector<std::string> UnixMachine::scan_all_infected() const {
  std::vector<std::string> out;
  walk([this](const std::string& d) { return run_ls(d); }, "/", out);
  return out;
}

std::vector<std::string> UnixMachine::scan_all_clean() const {
  // Clean CD boot: pristine ls over unhooked getdents, same disk.
  std::vector<std::string> out;
  walk([this](const std::string& d) { return sys_getdents_.call_base(d); },
       "/", out);
  return out;
}

void UnixMachine::daemon_activity(int max_new_files) {
  // FTP transfer log lines (append: no presence change)...
  fs_.append("/var/log/xferlog", "RETR file.bin ok\n");
  // ...plus a bounded number of new temp/log files (presence FPs).
  for (int i = 0; i < max_new_files; ++i) {
    const std::string n = std::to_string(daemon_seq_++);
    if (i % 2 == 0) {
      fs_.write("/tmp/ftpd" + n, "transfer scratch");
    } else {
      fs_.write("/var/log/daemon" + n + ".log", "daemon says hi\n");
    }
  }
}

}  // namespace gb::unixland
