// On-disk format constants for the simplified NTFS volume.
//
// The layout is a faithful miniature of NTFS's MFT-centric design: a boot
// sector locating the MFT, fixed-size FILE records holding typed
// attributes (STANDARD_INFORMATION, FILE_NAME, DATA), NTFS-style encoded
// data run lists for non-resident data, and a cluster allocation bitmap.
// Deviations from real NTFS are listed in DESIGN.md §6.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gb::ntfs {

inline constexpr std::size_t kSectorSize = 512;
inline constexpr std::size_t kSectorsPerCluster = 8;
inline constexpr std::size_t kClusterSize = kSectorSize * kSectorsPerCluster;
inline constexpr std::size_t kMftRecordSize = 1024;

/// FILE record signature, little-endian 'F','I','L','E'.
inline constexpr std::uint32_t kFileRecordMagic = 0x454c4946;

/// Boot sector OEM id bytes ("NTFS    ") at offset 3.
inline constexpr char kOemId[8] = {'N', 'T', 'F', 'S', ' ', ' ', ' ', ' '};

/// Attribute type codes (real NTFS values).
enum class AttrType : std::uint32_t {
  kStandardInformation = 0x10,
  kFileName = 0x30,
  kData = 0x80,
  kIndexRoot = 0x90,  // directory index (entries blob; resident or spilled)
  kEnd = 0xffffffff,
};

/// MFT record header flags.
inline constexpr std::uint16_t kRecordInUse = 0x0001;
inline constexpr std::uint16_t kRecordIsDirectory = 0x0002;

/// File attribute flags stored in STANDARD_INFORMATION (real Win32 values).
inline constexpr std::uint32_t kAttrReadOnly = 0x0001;
inline constexpr std::uint32_t kAttrHidden = 0x0002;
inline constexpr std::uint32_t kAttrSystem = 0x0004;
inline constexpr std::uint32_t kAttrDirectory = 0x0010;
inline constexpr std::uint32_t kAttrArchive = 0x0020;
inline constexpr std::uint32_t kAttrNormal = 0x0080;

/// Reserved MFT record numbers (matching real NTFS system files).
inline constexpr std::uint64_t kMftRecordMft = 0;      // $MFT itself
inline constexpr std::uint64_t kMftRecordBitmap = 6;   // $Bitmap
inline constexpr std::uint64_t kMftRecordRoot = 5;     // root directory "."
inline constexpr std::uint64_t kFirstUserRecord = 16;

/// Sentinel parent reference for the root directory itself.
inline constexpr std::uint64_t kRootParentRef = kMftRecordRoot;

/// Boot sector field offsets (simplified layout; signature at 510 as real).
struct BootSectorLayout {
  static constexpr std::size_t kOemOffset = 3;
  static constexpr std::size_t kBytesPerSector = 11;     // u16
  static constexpr std::size_t kSectorsPerClusterOff = 13;  // u8
  static constexpr std::size_t kTotalSectors = 40;       // u64
  static constexpr std::size_t kMftStartCluster = 48;    // u64
  static constexpr std::size_t kMftRecordCount = 56;     // u32
  static constexpr std::size_t kBitmapStartCluster = 60;  // u64
  static constexpr std::size_t kBitmapClusterCount = 68;  // u32
  static constexpr std::size_t kSerial = 72;             // u64
  /// Mount sequence number (u64). format() zeroes it; every mount reads
  /// it, increments it, and writes it back, then derives the change
  /// journal's incarnation id from (serial, sequence). Persisting the
  /// counter on the device is what makes journal ids unique across
  /// mounts — a cursor taken under one mount can never validate against
  /// a later mount's journal (see NtfsVolume::journal()).
  static constexpr std::size_t kJournalSeq = 80;         // u64
  static constexpr std::size_t kSignature = 510;         // 0x55 0xAA
};

}  // namespace gb::ntfs
