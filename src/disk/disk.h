// Sector-addressed block device abstraction.
//
// The NTFS driver writes real on-disk structures through this interface,
// and the low-level MFT scanner reads them back independently — the same
// bytes a raw-disk read would see on the paper's machines. Per-scan I/O
// statistics (CountingDevice) feed the machine timing model that
// reproduces the paper's scan-time tables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/status.h"

namespace gb::disk {

inline constexpr std::size_t kSectorSize = 512;

/// Cumulative I/O counters; reset-able between measured phases.
struct IoStats {
  std::uint64_t sectors_read = 0;
  std::uint64_t sectors_written = 0;
  std::uint64_t seeks = 0;  // non-contiguous accesses

  std::uint64_t bytes_read() const { return sectors_read * kSectorSize; }
  std::uint64_t bytes_written() const { return sectors_written * kSectorSize; }
  void reset() { *this = IoStats{}; }
};

/// Abstract block device.
class SectorDevice {
 public:
  virtual ~SectorDevice() = default;

  virtual std::uint64_t sector_count() const = 0;
  virtual void read(std::uint64_t lba, std::span<std::byte> out) = 0;
  virtual void write(std::uint64_t lba, std::span<const std::byte> data) = 0;

  std::uint64_t size_bytes() const { return sector_count() * kSectorSize; }
};

/// In-memory disk image.
///
/// This object doubles as the "physical drive": the outside-the-box WinPE
/// scan and the VM host-side scan both operate on the same image after
/// the machine that owned it has shut down.
///
/// Concurrent reads share no mutable state and need no lock; a write
/// must not overlap other I/O on the same sectors. The disk keeps no
/// access counters: a scan that needs I/O accounting wraps it in its own
/// CountingDevice.
class MemDisk final : public SectorDevice {
 public:
  explicit MemDisk(std::uint64_t sector_count);
  MemDisk(MemDisk&&) noexcept = default;

  std::uint64_t sector_count() const override { return sector_count_; }
  void read(std::uint64_t lba, std::span<std::byte> out) override;
  void write(std::uint64_t lba, std::span<const std::byte> data) override;

  /// Full raw image view (for the byte-level scanners).
  std::span<const std::byte> image() const { return image_; }

  /// Writes the raw image to a host file (a ".img" a VM product would
  /// expose — Section 5 scans a powered-down VM's virtual disk from the
  /// host through exactly such a file).
  void save_image(const std::string& host_path) const;
  /// Loads a previously saved image; the file size must be a whole number
  /// of sectors.
  static MemDisk load_image(const std::string& host_path);
  /// Non-throwing variant: a missing file is kNotFound, a short or
  /// unaligned one kCorrupt — what a host-side image-scan tool reports
  /// instead of crashing.
  [[nodiscard]] static support::StatusOr<MemDisk> load_image_or(
      const std::string& host_path);

 private:
  void check_range(std::uint64_t lba, std::size_t sectors) const;

  std::uint64_t sector_count_;
  std::vector<std::byte> image_;
};

/// Pass-through device with private I/O accounting.
///
/// Each scan task wraps the shared device in its own CountingDevice, so
/// the work counters that feed the timing model depend only on that
/// scan's access pattern — never on what other threads read in between.
/// That is what keeps simulated scan times byte-identical between the
/// serial and parallel engines. Not thread-safe: one instance per task.
class CountingDevice final : public SectorDevice {
 public:
  explicit CountingDevice(SectorDevice& inner) : inner_(inner) {}

  std::uint64_t sector_count() const override { return inner_.sector_count(); }
  void read(std::uint64_t lba, std::span<std::byte> out) override;
  void write(std::uint64_t lba, std::span<const std::byte> data) override;

  const IoStats& stats() const { return stats_; }

 private:
  void note_access(std::uint64_t lba, std::size_t sectors, bool write);

  SectorDevice& inner_;
  IoStats stats_;
  std::uint64_t last_lba_ = ~0ull;
};

}  // namespace gb::disk
