// Full stealth audit: everything this library can throw at one machine.
//
// Combines the cross-view scans (all four resource types, advanced
// mode), the DLL-injection sweep, the ADS hunt, hook-inventory
// attribution, mass-hiding assessment, and a cross-time comparison
// against an earlier checkpoint — the "kitchen sink" an incident
// responder would run.
//
//   $ ./examples/stealth_audit
#include <cstdio>

#include "core/ads_scan.h"
#include "core/anomaly.h"
#include "core/attribution.h"
#include "core/cross_time.h"
#include "core/scan_engine.h"
#include "malware/ads_stasher.h"
#include "malware/collection.h"

int main() {
  using namespace gb;
  machine::Machine m;

  // Yesterday's checkpoint (before the compromise).
  const auto yesterday = core::take_checkpoint(m);

  // Tonight, three different intruders arrive: an NtDll-detour rootkit,
  // a DKOM rootkit hiding a backdoor process, and an ADS stasher.
  malware::install_ghostware<malware::HackerDefender>(m);
  auto fu = malware::install_ghostware<malware::FuRootkit>(m);
  const auto backdoor =
      m.spawn_process("C:\\windows\\system32\\svch0st.exe").pid();
  fu->hide_process(m, backdoor);
  malware::install_ghostware<malware::AdsStasher>(m);

  // --- 1. cross-view scans, advanced mode ---------------------------------
  core::ScanConfig audit;
  audit.processes.scheduler_view = true;  // advanced mode: DKOM-proof
  const auto report =
      core::ScanEngine(m, audit).run({.kind = core::ScanKind::kInside}).value();
  std::printf("%s\n", report.to_string().c_str());

  // --- 2. ADS hunt ----------------------------------------------------------
  const auto ads = core::ads_scan(m);
  std::printf("ADS hunt: %zu hidden stream(s)\n", ads.hidden.size());
  for (const auto& f : ads.hidden) {
    std::printf("    %s\n", f.resource.display.c_str());
  }

  // --- 3. attribution --------------------------------------------------------
  const auto attribution = core::attribute_findings(m, report);
  std::printf("\n%s", attribution.to_string().c_str());

  // --- 4. anomaly assessment -------------------------------------------------
  const auto anomaly = core::assess_anomaly(report.diffs);
  std::printf("\nassessment: %s\n", anomaly.summary.c_str());

  // --- 5. cross-time corroboration -------------------------------------------
  const auto today = core::take_checkpoint(m);
  const auto changes = core::filter_noise(
      core::cross_time_diff(yesterday, today).changes,
      core::default_noise_patterns());
  std::printf("cross-time since yesterday: %zu meaningful change(s)\n",
              changes.size());

  const bool all_three_found =
      report.hidden_count(core::ResourceType::kFile) >= 4 &&  // hxdef
      report.hidden_count(core::ResourceType::kProcess) >= 2 &&  // hxdef + fu
      !ads.hidden.empty();
  std::printf("\naudit verdict: %s\n",
              all_three_found ? "all three intruders exposed"
                              : "incomplete detection?!");
  return all_three_found ? 0 : 1;
}
