// CRC-framed records: the one frame codec, and the append-only record
// file that the job journal and the flight recorder are built on
// (little-endian; DESIGN.md §9 has the rules):
//
//   frame    payload_len (u32) | crc32(payload) (u32) | payload
//   file     magic (4 bytes) | format version (u32) | frame*
//
// put_frame() is the only encoder and check_frame() the only verifier;
// daemon::Framer calls them too, behind its per-frame "GBWF" magic. A
// frame carries 1 to `max_payload` bytes. No writer emits an empty one,
// so a zero length is damage, like a CRC mismatch.
//
// RecordFile::open() replays a file up to its first frame that is not
// intact (the crash point), truncates that torn tail or writes a fresh
// header, and opens the file for append. A file that fails replay (bad
// magic or version, or a non-OK Status from the caller's decoder) stays
// byte-for-byte as found. A failed append is sticky: every later append
// fails without writing, since a record after a torn frame could never
// be replayed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "support/bytes.h"
#include "support/status.h"

namespace gb::support {

/// Bytes in front of every payload: its length and its CRC-32.
inline constexpr std::size_t kFramePrefixBytes = 8;

/// Appends one frame around `payload` to `w`. kInternal, appending
/// nothing, for a payload the verifier would reject.
[[nodiscard]] Status put_frame(ByteWriter& w,
                               std::span<const std::byte> payload,
                               std::uint32_t max_payload);

enum class FrameState : std::uint8_t {
  kIntact,       // whole, and the payload's CRC matches
  kShort,        // the bytes end before the payload does
  kBadLength,    // length 0, or above the cap
  kBadChecksum,  // CRC mismatch
};

struct FrameCheck {
  FrameState state = FrameState::kShort;
  std::uint32_t payload_len = 0;  // as the prefix declares it
};

/// Checks the frame behind `prefix`. `body` is what follows the prefix:
/// it may run past the payload (a file) or stop short of it (a stream
/// whose payload is not read yet). The length is checked first, so
/// nothing need be sized from it before it passed the cap.
[[nodiscard]] FrameCheck check_frame(
    std::span<const std::byte, kFramePrefixBytes> prefix,
    std::span<const std::byte> body, std::uint32_t max_payload);

/// One kind of record file; each caller passes its own constant.
struct RecordFormat {
  std::string_view name;   // prefixes error messages
  std::string_view magic;  // 4 bytes
  std::uint32_t version = 0;
  std::uint32_t max_record_bytes = 0;
};

/// Decodes one intact payload during replay; a non-OK Status fails it.
using RecordDecoder = std::function<Status(std::span<const std::byte>)>;

/// An append-only record file, open for append. Not internally
/// synchronized: callers serialize appends under their own lock.
class RecordFile {
 public:
  struct Replay {
    std::uint64_t records = 0;          // intact records decoded
    std::uint64_t truncated_bytes = 0;  // torn tail or header dropped
  };

  /// Replays `path` through `decode`, repairs it and opens it for append.
  [[nodiscard]] static StatusOr<RecordFile> open(const std::string& path,
                                                 const RecordFormat& format,
                                                 const RecordDecoder& decode);
  /// The post-mortem read: replays `path` without changing it.
  /// kNotFound when the file is missing or shorter than a header.
  [[nodiscard]] static Status read(const std::string& path,
                                   const RecordFormat& format,
                                   const RecordDecoder& decode);

  RecordFile(RecordFile&&) = default;
  RecordFile& operator=(RecordFile&&) = default;

  /// Frames, writes and flushes one record: OK means it is in the file.
  [[nodiscard]] Status append(std::span<const std::byte> payload);

  [[nodiscard]] const Replay& replay() const { return replay_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  RecordFile() = default;

  std::string path_;
  RecordFormat format_;
  Replay replay_;
  std::ofstream out_;
};

}  // namespace gb::support
