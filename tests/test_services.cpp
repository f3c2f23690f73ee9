// Background-service behaviour (the FP model of Section 2).
#include <gtest/gtest.h>

#include "core/scan_engine.h"
#include "machine/services.h"

namespace gb::machine {
namespace {

MachineConfig small_config(bool ccm = false) {
  MachineConfig cfg;
  cfg.synthetic_files = 10;
  cfg.synthetic_registry_keys = 5;
  cfg.ccm_service = ccm;
  return cfg;
}

TEST(Services, EnableDisableToggles) {
  Services s;
  EXPECT_TRUE(s.enabled(Services::kAvRealtime));
  EXPECT_FALSE(s.enabled(Services::kCcm));
  s.set_enabled(Services::kCcm, true);
  s.set_enabled(Services::kAvRealtime, false);
  EXPECT_TRUE(s.enabled(Services::kCcm));
  EXPECT_FALSE(s.enabled(Services::kAvRealtime));
  EXPECT_FALSE(s.enabled("no-such-service"));
  const auto names = s.enabled_services();
  EXPECT_NE(std::find(names.begin(), names.end(), Services::kCcm),
            names.end());
}

TEST(Services, ShutdownCreatesExactlyTheExpectedFpFiles) {
  Machine m(small_config(false));
  const auto before = m.volume().live_record_count();
  m.services().on_shutdown(m);
  // AV rotation + System Restore change log = 2 new files.
  EXPECT_EQ(m.volume().live_record_count(), before + 2);
  EXPECT_TRUE(m.volume().exists("C:\\program files\\etrust\\avlog-0.log"));
  EXPECT_TRUE(m.volume().exists("C:\\windows\\restore\\change0.log"));
}

TEST(Services, CcmAddsFiveInventoryFiles) {
  Machine m(small_config(true));
  m.run_for(VirtualClock::seconds(60));  // ccm dir pre-created by tick
  const auto before = m.volume().live_record_count();
  m.services().on_shutdown(m);
  EXPECT_EQ(m.volume().live_record_count(), before + 7);
}

TEST(Services, SecondShutdownUsesFreshSequenceNumbers) {
  Machine m(small_config(false));
  m.services().on_shutdown(m);
  m.services().on_shutdown(m);
  EXPECT_TRUE(m.volume().exists("C:\\program files\\etrust\\avlog-1.log"));
  EXPECT_TRUE(m.volume().exists("C:\\windows\\restore\\change1.log"));
}

TEST(Services, BootOverwritesPrefetchInPlace) {
  Machine m(small_config(false));
  const auto count_after_first_boot = m.volume().live_record_count();
  m.services().on_boot(m);  // warm: same prefetch names rewritten
  EXPECT_EQ(m.volume().live_record_count(), count_after_first_boot);
  EXPECT_TRUE(m.volume().exists(
      "C:\\windows\\prefetch\\EXPLORER.EXE-00000001.pf"));
}

TEST(Services, DisabledServicesStayQuiet) {
  Machine m(small_config(false));
  for (const char* svc :
       {Services::kAvRealtime, Services::kSystemRestore, Services::kPrefetch,
        Services::kBrowserCache}) {
    m.services().set_enabled(svc, false);
  }
  const auto before = m.volume().live_record_count();
  m.services().on_shutdown(m);
  m.services().on_boot(m);
  m.services().tick(m);
  EXPECT_EQ(m.volume().live_record_count(), before);
}

TEST(Services, RisNetworkBootIsFasterThanCd) {
  // Section 5: enterprise RIS network boot replaces the CD.
  Machine cd_machine(small_config(false));
  Machine ris_machine(small_config(false));
  core::ScanConfig cd;
  cd.resources = core::ResourceMask::kFiles | core::ResourceMask::kAseps;
  cd.parallelism = 1;
  core::ScanConfig ris = cd;
  ris.outside_boot = core::OutsideBoot::kRisNetworkBoot;

  const auto t_cd0 = cd_machine.clock().now();
  ASSERT_TRUE(core::ScanEngine(cd_machine, cd)
                  .run({.kind = core::ScanKind::kOutside})
                  .ok());
  const auto cd_elapsed = cd_machine.clock().now() - t_cd0;

  const auto t_ris0 = ris_machine.clock().now();
  ASSERT_TRUE(core::ScanEngine(ris_machine, ris)
                  .run({.kind = core::ScanKind::kOutside})
                  .ok());
  const auto ris_elapsed = ris_machine.clock().now() - t_ris0;

  EXPECT_LT(ris_elapsed, cd_elapsed);
}

}  // namespace
}  // namespace gb::machine
