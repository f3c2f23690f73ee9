// Section 5 extensions: ghostware targeting, the GhostBuster-DLL
// injection mode, the eTrust dilemma demo, mass-hiding anomaly detection,
// and the hook-detector contrast.
#include <gtest/gtest.h>

#include "core/anomaly.h"
#include "core/scan_engine.h"
#include "core/hook_detector.h"
#include "malware/collection.h"
#include "support/strings.h"

namespace gb {
namespace {

using core::ScanEngine;
using core::ScanKind;
using core::ResourceType;

machine::MachineConfig small_config() {
  machine::MachineConfig cfg;
  cfg.synthetic_files = 20;
  cfg.synthetic_registry_keys = 10;
  return cfg;
}

core::ScanConfig files_only() {
  core::ScanConfig cfg;
  cfg.resources = core::ResourceMask::kFiles;
  cfg.parallelism = 1;
  return cfg;
}

TEST(Targeting, UtilityOnlyHidingEvadesPlainScanButNotInjection) {
  // Ghostware hiding only from Task Manager and tlist: the plain
  // GhostBuster EXE cannot experience the hiding; the injected mode can.
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(
      m, std::vector<std::string>{"rcmd*"},
      malware::TargetPolicy::only({"taskmgr.exe", "tlist.exe"}));

  ScanEngine gb(m, files_only());
  const auto plain = gb.run({.kind = ScanKind::kInside}).value();
  EXPECT_FALSE(plain.infection_detected()) << plain.to_string();

  const auto injected = gb.run({.kind = ScanKind::kInjected}).value();
  EXPECT_TRUE(injected.infection_detected()) << injected.to_string();
  const auto* diff = injected.diff_for(ResourceType::kFile);
  bool hxdef_found = false;
  for (const auto& f : diff->hidden) {
    if (icontains(f.resource.key, "hxdef")) hxdef_found = true;
  }
  EXPECT_TRUE(hxdef_found);
}

TEST(Targeting, GhostBusterExemptionEvadesPlainScanButNotInjection) {
  // Ghostware targeting GhostBuster itself: hide from everyone EXCEPT
  // ghostbuster.exe, so GhostBuster's high view equals the truth and the
  // diff is empty — but every other process sees the lie.
  machine::Machine m(small_config());
  malware::install_ghostware<malware::Vanquish>(
      m, malware::TargetPolicy::everyone_except({"ghostbuster.exe"}));

  ScanEngine gb(m, files_only());
  const auto plain = gb.run({.kind = ScanKind::kInside}).value();
  EXPECT_FALSE(plain.infection_detected()) << plain.to_string();

  const auto injected = gb.run({.kind = ScanKind::kInjected}).value();
  EXPECT_TRUE(injected.infection_detected());
}

TEST(Targeting, InjectedScanStillCleanOnCleanMachine) {
  machine::Machine m(small_config());
  core::ScanConfig cfg;
  cfg.parallelism = 1;
  const auto report =
      ScanEngine(m, cfg).run({.kind = ScanKind::kInjected}).value();
  EXPECT_FALSE(report.infection_detected()) << report.to_string();
}

TEST(ETrustDemo, SignatureScannerDilemma) {
  // The paper's demo: a signature AV (InocIT.exe) cannot see hidden files
  // via its own enumeration; injecting GhostBuster into the scanner
  // process reveals them. Hiding from the scanner defeats signatures but
  // triggers the cross-view diff — a dilemma.
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);

  // The AV's on-demand enumeration (running as inocit.exe) never sees the
  // rootkit files, so its signatures never fire.
  const auto av_pid = m.find_pid("inocit.exe");
  ASSERT_NE(av_pid, 0u);
  auto* env = m.win32().env(av_pid);
  const auto ctx = m.context_for(av_pid);
  bool ok = false;
  const auto root_listing = env->find_files(ctx, "C:", &ok);
  for (const auto& e : root_listing) {
    EXPECT_FALSE(icontains(e.name, "hxdef")) << "AV saw the rootkit file";
  }

  // Inject GhostBuster into the scanner process: scan from its context.
  auto cfg = files_only();
  cfg.scanner_image = "inocit.exe";
  const auto report =
      ScanEngine(m, cfg).run({.kind = ScanKind::kInside}).value();
  EXPECT_TRUE(report.infection_detected());
  const auto* diff = report.diff_for(ResourceType::kFile);
  bool found = false;
  for (const auto& f : diff->hidden) {
    if (icontains(f.resource.key, "hxdef100.exe")) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Anomaly, MassHidingIsItselfAnAnomaly) {
  // Hiding many innocent files with the ghostware cannot make the machine
  // look clean — the hidden-file count explodes.
  machine::Machine m(small_config());
  for (int i = 0; i < 80; ++i) {
    m.volume().write_file("C:\\documents\\user\\doc" + std::to_string(i) +
                              ".txt",
                          "innocent");
  }
  auto hider = std::make_shared<malware::Aphex>("doc");  // hide doc*
  hider->install(m);

  const auto report =
      ScanEngine(m, files_only()).run({.kind = ScanKind::kInside}).value();
  const auto assessment = core::assess_anomaly(report.diffs);
  EXPECT_GE(assessment.hidden_files, 80u);
  EXPECT_TRUE(assessment.mass_hiding);
  EXPECT_NE(assessment.summary.find("SERIOUS ANOMALY"), std::string::npos);
}

TEST(Anomaly, NormalInfectionBelowMassThreshold) {
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  const auto report =
      ScanEngine(m, files_only()).run({.kind = ScanKind::kInside}).value();
  const auto assessment = core::assess_anomaly(report.diffs);
  EXPECT_FALSE(assessment.mass_hiding);
  EXPECT_GT(assessment.hidden_files, 0u);
}

TEST(Anomaly, CleanMachineSummary) {
  machine::Machine m(small_config());
  const auto report =
      ScanEngine(m, files_only()).run({.kind = ScanKind::kInside}).value();
  const auto assessment = core::assess_anomaly(report.diffs);
  EXPECT_EQ(assessment.summary, "no hiding detected");
}

TEST(HookDetector, FindsApiAndKernelHooks) {
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);  // NtDll detours
  malware::install_ghostware<malware::ProBotSe>(m);        // SSDT hooks

  const auto hooks = core::detect_hooks(m);
  bool saw_detour = false, saw_ssdt = false;
  for (const auto& h : hooks) {
    if (h.info.owner == "hackerdefender" && h.info.type == HookType::kDetour) {
      saw_detour = true;
    }
    if (h.info.owner == "probotse" && h.info.type == HookType::kSsdt) {
      saw_ssdt = true;
    }
  }
  EXPECT_TRUE(saw_detour);
  EXPECT_TRUE(saw_ssdt);
}

TEST(HookDetector, MissesDataOnlyHiding) {
  // The paper's argument for behaviour-based detection: DKOM and
  // PEB-blanking install no hooks, so a mechanism detector sees nothing
  // while the cross-view diff catches both.
  machine::Machine m(small_config());
  const auto fu = malware::install_ghostware<malware::FuRootkit>(m);
  const auto victim =
      m.spawn_process("C:\\windows\\system32\\notepad.exe").pid();
  fu->hide_process(m, victim);

  const auto hooks = core::detect_hooks(m);
  for (const auto& h : hooks) EXPECT_NE(h.info.owner, "fu");

  core::ScanConfig cfg;
  cfg.resources = core::ResourceMask::kProcesses;
  cfg.processes.scheduler_view = true;
  cfg.parallelism = 1;
  const auto report =
      ScanEngine(m, cfg).run({.kind = ScanKind::kInside}).value();
  EXPECT_TRUE(report.infection_detected());
}

TEST(HookDetector, LegitimateHooksAreFalsePositives) {
  // A benign file hider (think: an AV's on-access filter) is flagged by
  // the mechanism detector but produces no cross-view findings when it
  // hides nothing.
  machine::Machine m(small_config());
  kernel::FilterDriver benign;
  benign.name = "av-onaccess";
  benign.on_query_directory = nullptr;  // pass-through
  m.kernel().filter_chain().attach(std::move(benign));

  const auto suspicious = core::suspicious_hooks(m, {});
  bool flagged = false;
  for (const auto& h : suspicious) {
    if (h.info.owner == "av-onaccess") flagged = true;
  }
  EXPECT_TRUE(flagged);  // mechanism detector: false positive

  const auto report =
      ScanEngine(m, files_only()).run({.kind = ScanKind::kInside}).value();
  EXPECT_FALSE(report.infection_detected());  // cross-view diff: clean

  // Allowlisting fixes the mechanism detector's FP, at the cost of a
  // maintained list.
  const auto allowed = core::suspicious_hooks(m, {"av-onaccess"});
  for (const auto& h : allowed) EXPECT_NE(h.info.owner, "av-onaccess");
}

}  // namespace
}  // namespace gb
