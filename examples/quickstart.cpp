// Quickstart: build a machine, infect it with Hacker Defender, and let
// GhostBuster's inside-the-box cross-view diff expose everything the
// rootkit hides.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "core/scan_engine.h"
#include "malware/hackerdefender.h"

int main() {
  using namespace gb;

  // 1. A simulated Windows machine: NTFS volume, registry hives, kernel,
  //    Win32 subsystem, background services.
  machine::Machine m;
  std::printf("machine up: %zu files, %zu registry keys, %zu processes\n",
              m.volume().live_record_count(), m.registry().total_keys(),
              m.kernel().active_process_list().size());

  // 2. Infect it. Hacker Defender detours NtDll in every process, hides
  //    its files, its two Services hooks, and its process.
  auto hxdef = malware::install_ghostware<malware::HackerDefender>(m);
  std::printf("\ninfected with Hacker Defender 1.0 (%s)\n",
              hxdef->technique().c_str());

  // The lie, as any program on the box sees it: no hxdef files at C:\.
  const auto ctx = m.context_for(m.find_pid("explorer.exe"));
  bool ok = false;
  auto listing = m.win32().env(ctx.pid)->find_files(ctx, "C:", &ok);
  std::printf("explorer.exe sees %zu entries at C:\\ (none named hxdef*)\n",
              listing.size());

  // 3. Run GhostBuster: high-level API scan vs raw MFT / raw hive /
  //    kernel-list scans, then diff — one provider task graph, one
  //    executor per core.
  core::ScanEngine gb(m);
  const auto report = gb.run({.kind = core::ScanKind::kInside}).value();
  std::printf("\n%s", report.to_string().c_str());
  std::printf("simulated scan time: %.1f s\n", report.total_simulated_seconds);
  return report.infection_detected() ? 0 : 1;
}
