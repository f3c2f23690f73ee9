#include "support/record_file.h"

#include <filesystem>
#include <utility>
#include <vector>

#include "support/checksum.h"

namespace gb::support {

namespace {

std::string error(const RecordFormat& format, std::string_view what,
                  const std::string& path) {
  return std::string(format.name) + ": " + std::string(what) + ": " + path;
}

/// What replaying a file found.
struct Scan {
  std::size_t intact_end = 0;  // header + intact records; 0: no header
  RecordFile::Replay replay;
};

/// Reads `path` whole (a missing file reads as empty), checks its header
/// and hands every intact payload to `decode`, up to the first frame that
/// is not intact.
StatusOr<Scan> scan(const std::string& path, const RecordFormat& format,
                    const RecordDecoder& decode) {
  std::vector<std::byte> data;
  if (std::ifstream in(path, std::ios::binary | std::ios::ate); in) {
    data.resize(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    if (!data.empty() &&
        !in.read(reinterpret_cast<char*>(data.data()),
                 static_cast<std::streamsize>(data.size()))) {
      return Status::unavailable(error(format, "read failed", path));
    }
  }
  Scan s;
  const std::size_t header = format.magic.size() + sizeof(format.version);
  if (data.size() < header) {  // missing, empty, or torn mid-header
    s.replay.truncated_bytes = data.size();
    return s;
  }
  ByteReader r(data);
  if (r.str(format.magic.size()) != format.magic) {
    return Status::corrupt(error(format, "bad magic", path));
  }
  if (const std::uint32_t version = r.u32(); version != format.version) {
    return Status::corrupt(error(
        format, "unsupported version " + std::to_string(version), path));
  }
  std::span<const std::byte> rest = std::span(data).subspan(header);
  while (rest.size() >= kFramePrefixBytes) {
    const FrameCheck frame =
        check_frame(rest.first<kFramePrefixBytes>(),
                    rest.subspan(kFramePrefixBytes), format.max_record_bytes);
    if (frame.state != FrameState::kIntact) break;
    if (Status st = decode(rest.subspan(kFramePrefixBytes, frame.payload_len));
        !st.ok()) {
      return st;
    }
    ++s.replay.records;
    rest = rest.subspan(kFramePrefixBytes + frame.payload_len);
  }
  s.replay.truncated_bytes = rest.size();
  s.intact_end = data.size() - rest.size();
  return s;
}

}  // namespace

Status put_frame(ByteWriter& w, std::span<const std::byte> payload,
                 std::uint32_t max_payload) {
  if (payload.empty() || payload.size() > max_payload) {
    return Status::internal("frame payload of " +
                            std::to_string(payload.size()) +
                            " bytes is outside 1.." +
                            std::to_string(max_payload));
  }
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(crc32(payload));
  w.bytes(payload);
  return Status();
}

FrameCheck check_frame(std::span<const std::byte, kFramePrefixBytes> prefix,
                       std::span<const std::byte> body,
                       std::uint32_t max_payload) {
  ByteReader r(prefix);
  const std::uint32_t len = r.u32();
  const std::uint32_t crc = r.u32();
  if (len == 0 || len > max_payload) return {FrameState::kBadLength, len};
  if (body.size() < len) return {FrameState::kShort, len};
  if (crc32(body.first(len)) != crc) return {FrameState::kBadChecksum, len};
  return {FrameState::kIntact, len};
}

StatusOr<RecordFile> RecordFile::open(const std::string& path,
                                      const RecordFormat& format,
                                      const RecordDecoder& decode) {
  StatusOr<Scan> s = scan(path, format, decode);
  if (!s.ok()) return s.status();  // the file stays as found
  if (s->replay.truncated_bytes > 0) {
    std::error_code ec;
    std::filesystem::resize_file(path, s->intact_end, ec);
    if (ec) {
      return Status::unavailable(
          error(format, "cannot truncate (" + ec.message() + ")", path));
    }
  }
  RecordFile file;
  file.path_ = path;
  file.format_ = format;
  file.replay_ = s->replay;
  file.out_.open(path, std::ios::binary | std::ios::app);
  if (s->intact_end == 0) {
    // Start over. A torn header loses nothing: no record can precede it.
    ByteWriter header;
    header.str(format.magic);
    header.u32(format.version);
    file.out_.write(reinterpret_cast<const char*>(header.view().data()),
                    static_cast<std::streamsize>(header.size()));
    file.out_.flush();
  }
  if (!file.out_) {
    return Status::unavailable(error(format, "cannot open", path));
  }
  return file;
}

Status RecordFile::read(const std::string& path, const RecordFormat& format,
                        const RecordDecoder& decode) {
  StatusOr<Scan> s = scan(path, format, decode);
  if (!s.ok()) return s.status();
  if (s->intact_end == 0) {
    return Status::not_found(error(format, "no header", path));
  }
  return Status();
}

Status RecordFile::append(std::span<const std::byte> payload) {
  if (!out_) {
    return Status::unavailable(
        error(format_, "append refused after a failed write", path_));
  }
  ByteWriter frame;
  if (Status s = put_frame(frame, payload, format_.max_record_bytes);
      !s.ok()) {
    return s;
  }
  out_.write(reinterpret_cast<const char*>(frame.view().data()),
             static_cast<std::streamsize>(frame.size()));
  // Flush-per-record is the durability contract: a record is in the
  // file before append returns, or it was never acknowledged. Callers
  // append under their own lock (Daemon::mu for the job journal,
  // EventLog::mu for the flight recorder), which orders records with the
  // state changes they describe and keeps frames from interleaving.
  // gb-lint: allow(blocking-under-lock)
  out_.flush();
  if (!out_) return Status::unavailable(error(format_, "append failed", path_));
  return Status();
}

}  // namespace gb::support
