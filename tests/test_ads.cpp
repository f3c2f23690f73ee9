// Alternate Data Streams: the future-work extension (Section 6).
#include <gtest/gtest.h>

#include "core/ads_scan.h"
#include "core/scan_engine.h"
#include "registry/aseps.h"
#include "malware/ads_stasher.h"
#include "ntfs/mft_scanner.h"
#include "support/strings.h"

namespace gb {
namespace {

machine::MachineConfig small_config() {
  machine::MachineConfig cfg;
  cfg.synthetic_files = 15;
  cfg.synthetic_registry_keys = 8;
  return cfg;
}

TEST(AdsVolume, WriteReadListRemove) {
  machine::Machine m(small_config());
  auto& vol = m.volume();
  vol.write_file("C:\\host.txt", "main content");
  vol.write_stream("C:\\host.txt", "secret", "stream content");
  vol.write_stream("C:\\host.txt", "second", "more");

  EXPECT_EQ(to_string(vol.read_stream("C:\\host.txt", "SECRET")),
            "stream content");
  EXPECT_EQ(to_string(vol.read_file("C:\\host.txt")), "main content");
  const auto streams = vol.list_streams("C:\\host.txt");
  ASSERT_EQ(streams.size(), 2u);

  EXPECT_TRUE(vol.remove_stream("C:\\host.txt", "second"));
  EXPECT_FALSE(vol.remove_stream("C:\\host.txt", "second"));
  EXPECT_EQ(vol.list_streams("C:\\host.txt").size(), 1u);
  EXPECT_THROW(vol.read_stream("C:\\host.txt", "second"), ntfs::FsError);
}

TEST(AdsVolume, OverwriteReplacesStream) {
  machine::Machine m(small_config());
  m.volume().write_file("C:\\h", "x");
  m.volume().write_stream("C:\\h", "s", "v1");
  m.volume().write_stream("C:\\h", "S", "v2");
  EXPECT_EQ(m.volume().list_streams("C:\\h").size(), 1u);
  EXPECT_EQ(to_string(m.volume().read_stream("C:\\h", "s")), "v2");
}

TEST(AdsVolume, LargeStreamGoesNonResidentAndPersists) {
  machine::Machine m(small_config());
  m.volume().write_file("C:\\h", "x");
  const std::string big(64 * 1024, 'S');
  m.volume().write_stream("C:\\h", "big", big);
  // Re-mount the volume from raw bytes: stream must survive.
  ntfs::NtfsVolume fresh(m.disk());
  EXPECT_EQ(to_string(fresh.read_stream("C:\\h", "big")), big);
}

TEST(AdsVolume, StreamsDieWithTheFile) {
  machine::Machine m(small_config());
  m.volume().write_file("C:\\h", "x");
  m.volume().write_stream("C:\\h", "s", std::string(32 * 1024, 'q'));
  m.volume().remove("C:\\h");
  // Clusters were freed: a full-disk rewrite-sized file must still fit.
  EXPECT_FALSE(m.volume().exists("C:\\h"));
}

TEST(AdsVolume, MainStreamOverwritePreservesNamedStreams) {
  machine::Machine m(small_config());
  m.volume().write_file("C:\\h", "v1");
  m.volume().write_stream("C:\\h", "keep", "kept");
  m.volume().write_file("C:\\h", "v2 main rewritten");
  EXPECT_EQ(to_string(m.volume().read_stream("C:\\h", "keep")), "kept");
}

TEST(AdsScanner, RawScanSeesStreams) {
  machine::Machine m(small_config());
  m.volume().write_file("C:\\carrier.dll", "MZ");
  m.volume().write_stream("C:\\carrier.dll", "payload", "evil");
  ntfs::MftScanner scanner(m.disk());
  bool found = false;
  for (const auto& f : scanner.scan()) {
    if (iequals(f.path, "carrier.dll")) {
      ASSERT_EQ(f.stream_names.size(), 1u);
      EXPECT_EQ(f.stream_names[0], "payload");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(AdsScan, CleanMachineIsQuiet) {
  machine::Machine m(small_config());
  const auto report = core::ads_scan(m);
  EXPECT_TRUE(report.hidden.empty());
}

TEST(AdsScan, AllowlistedStreamsIgnored) {
  machine::Machine m(small_config());
  m.volume().write_file("C:\\download.exe", "MZ");
  m.volume().write_stream("C:\\download.exe", "Zone.Identifier",
                          "[ZoneTransfer]\nZoneId=3\n");
  const auto report = core::ads_scan(m);
  EXPECT_TRUE(report.hidden.empty());
  EXPECT_EQ(report.low_count, 1u);  // seen, but allowlisted
  // Without the allowlist it is reported.
  const auto strict = core::ads_scan(m, {});
  EXPECT_EQ(strict.hidden.size(), 1u);
}

TEST(AdsScan, StasherDetectedOnlyByAdsScan) {
  machine::Machine m(small_config());
  const auto stasher = malware::install_ghostware<malware::AdsStasher>(m);

  // Every classic file view agrees — the payload is invisible to all of
  // them (it hides in a namespace they cannot express).
  core::ScanConfig cfg;
  cfg.resources = core::ResourceMask::kFiles;
  cfg.parallelism = 1;
  core::ScanEngine engine(m, cfg);
  EXPECT_FALSE(engine.run({.kind = core::ScanKind::kInside})
                   .value()
                   .infection_detected());

  // The ADS scan finds it and names the stream.
  const auto report = core::ads_scan(m);
  ASSERT_EQ(report.hidden.size(), 1u);
  EXPECT_EQ(report.hidden[0].resource.key,
            core::file_key(stasher->stream_path()));

  // And the visible Run hook points at the same stream — attribution for
  // the analyst.
  const auto* v = m.registry().get_value(registry::kRunKey, "SystemUpdate");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->as_string(), stasher->stream_path());
}

TEST(AdsScan, WorksOnPoweredOffDisk) {
  machine::Machine m(small_config());
  malware::install_ghostware<malware::AdsStasher>(m);
  m.shutdown();
  const auto report = core::ads_scan(m.disk());
  EXPECT_EQ(report.hidden.size(), 1u);
}

}  // namespace
}  // namespace gb
