// ScanEngine API behaviour: configuration, report accessors,
// attribution, timing accumulation, error handling.
#include <gtest/gtest.h>

#include "core/attribution.h"
#include "core/scan_engine.h"
#include "malware/collection.h"
#include "registry/aseps.h"
#include "support/strings.h"

namespace gb::core {
namespace {

machine::MachineConfig small_config() {
  machine::MachineConfig cfg;
  cfg.synthetic_files = 20;
  cfg.synthetic_registry_keys = 10;
  return cfg;
}

ScanConfig serial_scan() {
  ScanConfig cfg;
  cfg.parallelism = 1;
  return cfg;
}

TEST(Report, AccessorsAndRendering) {
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  const auto report =
      ScanEngine(m, serial_scan()).run({.kind = ScanKind::kInside}).value();

  EXPECT_TRUE(report.infection_detected());
  EXPECT_EQ(report.diffs.size(), 4u);  // one per resource type
  EXPECT_EQ(report.hidden_count(ResourceType::kFile), 4u);
  EXPECT_EQ(report.hidden_count(ResourceType::kAsepHook), 2u);
  EXPECT_EQ(report.hidden_count(ResourceType::kProcess), 1u);
  EXPECT_NE(report.diff_for(ResourceType::kModule), nullptr);
  EXPECT_EQ(report.all_hidden().size(),
            report.hidden_count(ResourceType::kFile) +
                report.hidden_count(ResourceType::kAsepHook) +
                report.hidden_count(ResourceType::kProcess) +
                report.hidden_count(ResourceType::kModule));

  const auto text = report.to_string();
  EXPECT_NE(text.find("hxdef100.exe"), std::string::npos);
  EXPECT_NE(text.find("truth approximation"), std::string::npos);
  EXPECT_NE(text.find(">>> hidden resources detected"), std::string::npos);
}

TEST(Report, CleanRendering) {
  machine::Machine m(small_config());
  const auto report =
      ScanEngine(m, serial_scan()).run({.kind = ScanKind::kInside}).value();
  EXPECT_NE(report.to_string().find("machine appears clean"),
            std::string::npos);
  EXPECT_EQ(report.diff_for(ResourceType::kFile)->simulated_seconds > 0,
            true);
}

TEST(Report, JsonOutputIsWellFormedAndEscaped) {
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  // A finding whose name needs escaping: embedded NUL in a Run value.
  const std::string sneaky(std::string("Upd") + '\0' + "Svc");
  m.registry().set_value(registry::kRunKey,
                         hive::Value::string(sneaky, "C:\\evil.exe"));
  const auto report =
      ScanEngine(m, serial_scan()).run({.kind = ScanKind::kInside}).value();
  const auto json = report.to_json();
  EXPECT_NE(json.find("\"infected\":true"), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"file\""), std::string::npos);
  EXPECT_NE(json.find("hxdef100.exe"), std::string::npos);
  EXPECT_NE(json.find("\\u0000"), std::string::npos);  // NUL escaped
  EXPECT_EQ(json.find('\0'), std::string::npos);  // no raw NULs
  // Balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(EngineConfig, SelectiveScansProduceSelectiveDiffs) {
  machine::Machine m(small_config());
  ScanConfig o = serial_scan();
  o.resources = ResourceMask::kAseps | ResourceMask::kProcesses;
  const auto report = ScanEngine(m, o).run({.kind = ScanKind::kInside}).value();
  EXPECT_EQ(report.diffs.size(), 2u);
  EXPECT_EQ(report.diff_for(ResourceType::kFile), nullptr);
  EXPECT_NE(report.diff_for(ResourceType::kAsepHook), nullptr);
}

TEST(EngineConfig, ScannerImageSpawnsProcess) {
  machine::Machine m(small_config());
  EXPECT_EQ(m.find_pid("gbscan.exe"), 0u);
  ScanConfig o = serial_scan();
  o.scanner_image = "gbscan.exe";
  o.resources = ResourceMask::kFiles;
  ASSERT_TRUE(ScanEngine(m, o).run({.kind = ScanKind::kInside}).ok());
  EXPECT_NE(m.find_pid("gbscan.exe"), 0u);
}

TEST(Timing, ClockAdvancesBySimulatedScanTime) {
  machine::Machine m(small_config());
  const auto t0 = m.clock().now();
  const auto report =
      ScanEngine(m, serial_scan()).run({.kind = ScanKind::kInside}).value();
  EXPECT_GT(report.total_simulated_seconds, 0.0);
  const double elapsed = VirtualClock::to_seconds(m.clock().now() - t0);
  EXPECT_NEAR(elapsed, report.total_simulated_seconds, 1e-6);
}

TEST(OutsideDiff, RequiresPoweredOffMachine) {
  machine::Machine m(small_config());
  ScanConfig o = serial_scan();
  o.resources = ResourceMask::kFiles | ResourceMask::kAseps;
  ScanEngine gb(m, o);
  const auto cap = gb.capture_inside_high();
  EXPECT_TRUE(m.running());  // no dump requested: machine still up
  EXPECT_THROW(gb.outside_diff(cap), std::logic_error);
  m.shutdown();
  EXPECT_NO_THROW(gb.outside_diff(cap));
}

TEST(Attribution, MapsFindingsToHookOwners) {
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  const auto report =
      ScanEngine(m, serial_scan()).run({.kind = ScanKind::kInside}).value();
  const auto attr = attribute_findings(m, report);

  ASSERT_FALSE(attr.findings.empty());
  bool hxdef_file_attributed = false;
  for (const auto& af : attr.findings) {
    if (af.finding.type == ResourceType::kFile &&
        icontains(af.finding.resource.key, "hxdef100.exe")) {
      for (const auto& owner : af.suspected_owners) {
        if (owner == "hackerdefender") hxdef_file_attributed = true;
      }
      ASSERT_FALSE(af.techniques.empty());
      EXPECT_EQ(af.techniques[0], HookType::kDetour);
    }
  }
  EXPECT_TRUE(hxdef_file_attributed);
  EXPECT_NE(attr.to_string().find("suspects: hackerdefender"),
            std::string::npos);
}

TEST(Attribution, DkomFindingHasNoSuspects) {
  machine::Machine m(small_config());
  auto fu = malware::install_ghostware<malware::FuRootkit>(m);
  const auto victim =
      m.spawn_process("C:\\windows\\system32\\notepad.exe").pid();
  fu->hide_process(m, victim);
  ScanConfig o = serial_scan();
  o.resources = ResourceMask::kProcesses;
  o.processes.scheduler_view = true;
  const auto report = ScanEngine(m, o).run({.kind = ScanKind::kInside}).value();
  const auto attr = attribute_findings(m, report);
  ASSERT_EQ(attr.findings.size(), 1u);
  EXPECT_TRUE(attr.findings[0].suspected_owners.empty());
  EXPECT_NE(attr.to_string().find("data-structure manipulation"),
            std::string::npos);
}

TEST(Attribution, AllowlistSuppressesBenignOwners) {
  machine::Machine m(small_config());
  malware::install_ghostware<malware::Vanquish>(m);
  kernel::FilterDriver benign;
  benign.name = "av-onaccess";
  m.kernel().filter_chain().attach(std::move(benign));

  const auto report =
      ScanEngine(m, serial_scan()).run({.kind = ScanKind::kInside}).value();
  const auto attr = attribute_findings(m, report, {"av-onaccess"});
  for (const auto& h : attr.interceptions) {
    EXPECT_NE(h.info.owner, "av-onaccess");
  }
}

TEST(InjectedScan, UnionsFindingsAcrossContexts) {
  machine::Machine m(small_config());
  // Two programs targeting *different* utilities; no single context sees
  // both lies, but the union does.
  malware::install_ghostware<malware::Aphex>(
      m, "~", malware::TargetPolicy::only({"taskmgr.exe"}));
  malware::install_ghostware<malware::Vanquish>(
      m, malware::TargetPolicy::only({"explorer.exe"}));

  ScanConfig o = serial_scan();
  o.resources = ResourceMask::kFiles;
  ScanEngine gb(m, o);
  const auto plain = gb.run({.kind = ScanKind::kInside}).value();
  EXPECT_FALSE(plain.infection_detected());

  const auto injected = gb.run({.kind = ScanKind::kInjected}).value();
  const auto* diff = injected.diff_for(ResourceType::kFile);
  bool saw_aphex = false, saw_vanquish = false;
  for (const auto& f : diff->hidden) {
    if (icontains(f.resource.key, "~aphex")) saw_aphex = true;
    if (icontains(f.resource.key, "vanquish")) saw_vanquish = true;
  }
  EXPECT_TRUE(saw_aphex);
  EXPECT_TRUE(saw_vanquish);
}

/// A provider whose diff policy allowlists one key: every view is the
/// wrapped default provider's, only diff() differs.
class AllowlistingScanner : public ResourceScanner {
 public:
  AllowlistingScanner(std::unique_ptr<ResourceScanner> inner,
                      std::string allowed)
      : inner_(std::move(inner)), allowed_(std::move(allowed)) {}

  ResourceType type() const override { return inner_->type(); }
  support::StatusOr<ScanResult> high_scan(
      const ScanTaskContext& t, const winapi::Ctx& ctx) const override {
    return inner_->high_scan(t, ctx);
  }
  std::vector<ViewDef> trusted_views(ScanPhase phase,
                                     const ScanConfig& cfg) const override {
    return inner_->trusted_views(phase, cfg);
  }
  DiffReport diff(const ScanTaskContext& t,
                  const std::vector<ViewInput>& views) const override {
    DiffReport d = inner_->diff(t, views);
    std::erase_if(d.hidden, [&](const Finding& f) {
      return f.resource.key == allowed_;
    });
    return d;
  }

 private:
  std::unique_ptr<ResourceScanner> inner_;
  std::string allowed_;
};

TEST(InjectedScan, HonoursTheProviderDiffPolicy) {
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  const std::string allowed = "c:\\hxdef100.ini";
  auto hidden_keys = [&](ScanKind kind) {
    ScanConfig o = serial_scan();
    o.resources = ResourceMask::kNone;
    ScanEngine gb(m, o);
    gb.register_scanner(std::make_unique<AllowlistingScanner>(
        std::move(default_scanners(ResourceMask::kFiles).front()), allowed));
    std::vector<std::string> keys;
    for (const auto& f : gb.run({.kind = kind}).value().all_hidden()) {
      keys.push_back(f.resource.key);
    }
    return keys;
  };
  const auto inside = hidden_keys(ScanKind::kInside);
  EXPECT_EQ(inside.size(), 3u);  // Hacker Defender's four files, less one
  EXPECT_EQ(std::count(inside.begin(), inside.end(), allowed), 0);
  EXPECT_EQ(hidden_keys(ScanKind::kInjected), inside);
}

}  // namespace
}  // namespace gb::core
