#include "disk/disk.h"

#include <cstring>
#include <fstream>

namespace gb::disk {

void MemDisk::save_image(const std::string& host_path) const {
  std::ofstream out(host_path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + host_path);
  out.write(reinterpret_cast<const char*>(image_.data()),
            static_cast<std::streamsize>(image_.size()));
  if (!out) throw std::runtime_error("short write to " + host_path);
}

MemDisk MemDisk::load_image(const std::string& host_path) {
  std::ifstream in(host_path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open " + host_path);
  const auto size = static_cast<std::uint64_t>(in.tellg());
  if (size % kSectorSize != 0) {
    throw std::runtime_error("image size is not sector-aligned");
  }
  MemDisk disk(size / kSectorSize);
  in.seekg(0);
  in.read(reinterpret_cast<char*>(disk.image_.data()),
          static_cast<std::streamsize>(size));
  if (!in) throw std::runtime_error("short read from " + host_path);
  return disk;
}

support::StatusOr<MemDisk> MemDisk::load_image_or(
    const std::string& host_path) {
  std::ifstream in(host_path, std::ios::binary | std::ios::ate);
  if (!in) return support::Status::not_found("cannot open " + host_path);
  try {
    return load_image(host_path);
  } catch (const std::runtime_error& e) {
    return support::Status::corrupt(e.what());
  }
}

MemDisk::MemDisk(std::uint64_t sector_count)
    : sector_count_(sector_count), image_(sector_count * kSectorSize) {}

void MemDisk::check_range(std::uint64_t lba, std::size_t sectors) const {
  if (lba > sector_count_ || sectors > sector_count_ - lba) {
    throw std::out_of_range("disk access beyond device: lba=" +
                            std::to_string(lba) +
                            " sectors=" + std::to_string(sectors));
  }
}

void MemDisk::read(std::uint64_t lba, std::span<std::byte> out) {
  if (out.size() % kSectorSize != 0) {
    throw std::invalid_argument("read size must be sector-aligned");
  }
  const std::size_t sectors = out.size() / kSectorSize;
  check_range(lba, sectors);
  std::memcpy(out.data(), image_.data() + lba * kSectorSize, out.size());
}

void MemDisk::write(std::uint64_t lba, std::span<const std::byte> data) {
  if (data.size() % kSectorSize != 0) {
    throw std::invalid_argument("write size must be sector-aligned");
  }
  const std::size_t sectors = data.size() / kSectorSize;
  check_range(lba, sectors);
  std::memcpy(image_.data() + lba * kSectorSize, data.data(), data.size());
}

void CountingDevice::note_access(std::uint64_t lba, std::size_t sectors,
                                 bool write) {
  if (lba != last_lba_) ++stats_.seeks;
  last_lba_ = lba + sectors;
  if (write) {
    stats_.sectors_written += sectors;
  } else {
    stats_.sectors_read += sectors;
  }
}

void CountingDevice::read(std::uint64_t lba, std::span<std::byte> out) {
  inner_.read(lba, out);
  note_access(lba, out.size() / kSectorSize, /*write=*/false);
}

void CountingDevice::write(std::uint64_t lba,
                           std::span<const std::byte> data) {
  inner_.write(lba, data);
  note_access(lba, data.size() / kSectorSize, /*write=*/true);
}

}  // namespace gb::disk
