// Disk-image save/load: the Section 5 VM workflow ("a utility that
// allows a virtual drive to appear as a normal drive on the host").
#include <gtest/gtest.h>

#include <cstdio>

#include "core/ads_scan.h"
#include "core/file_scans.h"
#include "machine/machine.h"
#include "malware/hackerdefender.h"
#include "support/strings.h"

namespace gb {
namespace {

std::string temp_image_path(const char* tag) {
  return std::string(::testing::TempDir()) + "gb-" + tag + ".img";
}

TEST(DiskImage, RoundTripPreservesBytes) {
  disk::MemDisk d(128);
  std::vector<std::byte> sector(disk::kSectorSize, std::byte{0x7e});
  d.write(100, sector);
  const auto path = temp_image_path("roundtrip");
  d.save_image(path);

  auto loaded = disk::MemDisk::load_image(path);
  EXPECT_EQ(loaded.sector_count(), 128u);
  std::vector<std::byte> out(disk::kSectorSize);
  loaded.read(100, out);
  EXPECT_EQ(out, sector);
  std::remove(path.c_str());
}

TEST(DiskImage, LoadRejectsMissingAndUnaligned) {
  EXPECT_THROW(disk::MemDisk::load_image("/no/such/file.img"),
               std::runtime_error);
  const auto path = temp_image_path("unaligned");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a whole sector", f);
    std::fclose(f);
  }
  EXPECT_THROW(disk::MemDisk::load_image(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(DiskImage, InfectedImageScannedFromHost) {
  // Build + infect a VM, power it down, save the virtual disk, and scan
  // the file from the "host" — the hidden files are all there.
  machine::MachineConfig cfg;
  cfg.synthetic_files = 15;
  cfg.synthetic_registry_keys = 8;
  machine::Machine vm(cfg);
  malware::install_ghostware<malware::HackerDefender>(vm);
  vm.shutdown();
  const auto path = temp_image_path("infected");
  vm.disk().save_image(path);

  auto host_view = disk::MemDisk::load_image(path);
  const auto scan =
      core::outside_file_scan(ntfs::CleanBootMount::open(host_view).value())
          .value();
  EXPECT_TRUE(scan.contains(core::file_key("C:\\hxdef100.exe")));
  EXPECT_TRUE(scan.contains(core::file_key("C:\\hxdefdrv.sys")));
  std::remove(path.c_str());
}

TEST(DiskImage, AdsSurvivesImageRoundTrip) {
  machine::MachineConfig cfg;
  cfg.synthetic_files = 10;
  cfg.synthetic_registry_keys = 5;
  machine::Machine m(cfg);
  m.volume().write_file("C:\\host.bin", "x");
  m.volume().write_stream("C:\\host.bin", "payload", "hidden bytes");
  m.shutdown();
  const auto path = temp_image_path("ads");
  m.disk().save_image(path);

  auto host_view = disk::MemDisk::load_image(path);
  const auto report = core::ads_scan(host_view);
  ASSERT_EQ(report.hidden.size(), 1u);
  EXPECT_EQ(report.hidden[0].resource.key,
            core::file_key("C:\\host.bin:payload"));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gb
