// The Section 6 walkthrough, end to end:
//
// "In the case of Hacker Defender ... we were able to deterministically
//  detect its presence within 5 seconds through hidden-process detection,
//  locate its hidden auto-start Registry keys within one minute, remove
//  the keys to disable the malware, and reboot the machine to delete the
//  now-visible files."
//
//   $ ./examples/forensics_workflow
#include <cstdio>

#include "core/scan_engine.h"
#include "core/removal.h"
#include "malware/hackerdefender.h"

int main() {
  using namespace gb;
  machine::Machine m;
  auto hxdef = malware::install_ghostware<malware::HackerDefender>(m);

  // Step 1: quick hidden-process scan — seconds.
  core::ScanConfig quick;
  quick.resources = core::ResourceMask::kProcesses;
  const auto proc_report =
      core::ScanEngine(m, quick).run({.kind = core::ScanKind::kInside}).value();
  std::printf("[1] hidden-process scan (%.1f simulated s): %s\n",
              proc_report.total_simulated_seconds,
              proc_report.infection_detected() ? "INFECTED" : "clean");

  // Step 2: locate the hidden ASEP hooks — under a minute.
  core::ScanConfig reg;
  reg.resources = core::ResourceMask::kAseps;
  const auto reg_report =
      core::ScanEngine(m, reg).run({.kind = core::ScanKind::kInside}).value();
  std::printf("[2] hidden-ASEP scan (%.1f simulated s):\n",
              reg_report.total_simulated_seconds);
  for (const auto& f : reg_report.all_hidden()) {
    std::printf("      %s\n", f.resource.display.c_str());
  }

  // Step 3: full scan, then the removal workflow: delete hooks, reboot
  // (auto-start guard fails, rootkit stays down), delete visible files.
  const auto full =
      core::ScanEngine(m).run({.kind = core::ScanKind::kInside}).value();
  const auto outcome = core::remove_ghostware(m, full);
  std::printf(
      "[3] removal: %zu hooks deleted, rebooted, %zu files deleted\n",
      outcome.hooks_removed, outcome.files_deleted);

  // Step 4: verification scan.
  std::printf("[4] verification: %s\n",
              outcome.clean() ? "machine clean" : "STILL INFECTED");
  std::printf("    hxdef100.exe on disk: %s, process running: %s\n",
              m.volume().exists("C:\\hxdef100.exe") ? "yes" : "no",
              m.find_pid("hxdef100.exe") ? "yes" : "no");
  return outcome.clean() ? 0 : 1;
}
