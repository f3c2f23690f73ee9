#include "kernel/carve.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "kernel/dump_format.h"
#include "obs/trace.h"

namespace gb::kernel {

namespace {

/// Does a full record header + payload validate at `off`? Appends the
/// recovered record on success. Candidates that fail any structural or
/// sanity check are rejected individually — a half-overwritten record
/// never poisons its neighbours.
bool carve_candidate(std::span<const std::byte> image, std::size_t off,
                     std::vector<CarvedProcess>& out) {
  if (off + internal::kRecordHeaderBytes > image.size()) return false;
  ByteReader lr(image.subspan(off + internal::kRecordTag.size(), 4));
  const std::uint32_t len = lr.u32();
  const std::size_t begin = off + internal::kRecordHeaderBytes;
  if (begin + len > image.size()) return false;

  KernelDump::ProcessImage p;
  try {
    ByteReader pr(image.subspan(begin, len));
    p = internal::parse_process_payload(pr);
    if (!pr.at_end()) return false;  // payload shorter than declared
  } catch (const ParseError&) {
    return false;
  }
  // Sanity screen, the carving analogue of _EPROCESS plausibility
  // checks: pids are nonzero multiples of 4 and names are path-sized.
  if (p.pid == 0 || p.pid % 4 != 0 || p.pid >= (1u << 24)) return false;
  if (p.image_name.size() > 260 || p.image_name.empty()) return false;
  out.push_back(CarvedProcess{std::move(p), off, /*referenced=*/false});
  return true;
}

/// The first offset in [from, end) whose bytes spell the record tag, or
/// `end`. Every such offset must leave room for the whole tag in
/// `image`. memchr skips to each candidate first byte.
std::size_t next_tag(std::span<const std::byte> image, std::size_t from,
                     std::size_t end) {
  const auto first = static_cast<unsigned char>(internal::kRecordTag[0]);
  while (from < end) {
    const void* hit = std::memchr(image.data() + from, first, end - from);
    if (hit == nullptr) return end;
    from = static_cast<std::size_t>(static_cast<const std::byte*>(hit) -
                                    image.data());
    if (std::memcmp(image.data() + from, internal::kRecordTag.data(),
                    internal::kRecordTag.size()) == 0) {
      return from;
    }
    ++from;
  }
  return end;
}

/// Directory offsets, best-effort: used only to label recovered records
/// as referenced/orphaned, never to find them. A directory the sweep
/// cannot read labels everything orphaned rather than failing the carve.
std::vector<std::uint64_t> read_directory(std::span<const std::byte> image) {
  try {
    ByteReader r(image);
    r.skip(16);  // magic + total_len, validated by the caller
    const std::uint32_t n_active = r.u32();
    r.skip(std::size_t{n_active} * 4);
    const std::uint32_t n_threads = r.u32();
    r.skip(std::size_t{n_threads} * 8);
    const std::uint32_t n_drivers = r.u32();
    for (std::uint32_t i = 0; i < n_drivers; ++i) {
      r.skip(r.u16());
      r.skip(r.u16());
    }
    const std::uint32_t n_proc = r.count(8);
    std::vector<std::uint64_t> dir;
    dir.reserve(n_proc);
    for (std::uint32_t i = 0; i < n_proc; ++i) dir.push_back(r.u64());
    return dir;
  } catch (const ParseError&) {
    return {};
  }
}

}  // namespace

std::size_t CarveResult::orphan_count() const {
  std::size_t n = 0;
  for (const auto& p : processes) {
    if (!p.referenced) ++n;
  }
  return n;
}

support::StatusOr<CarveResult> carve_dump(std::span<const std::byte> image,
                                          support::ThreadPool* pool,
                                          std::uint32_t chunk_bytes) {
  auto span = obs::default_tracer().span("carve.dump", "carve");
  span.arg("bytes", std::to_string(image.size()));
  if (image.size() < 16) {
    return support::Status::corrupt("dump image too small to carve");
  }
  {
    ByteReader hdr(image);
    if (hdr.u64() != internal::kDumpMagic) {
      return support::Status::corrupt("bad dump magic: not a kernel dump");
    }
    if (hdr.u64() != image.size()) {
      return support::Status::corrupt(
          "dump length mismatch (truncated or padded image)");
    }
  }

  const std::size_t chunk =
      chunk_bytes == 0 ? kDefaultCarveChunkBytes : chunk_bytes;
  // Every byte offset that could head a tag belongs to exactly one
  // chunk; a record found at offset `o` is found regardless of which
  // chunk `o` lands in, so chunking never changes the result.
  const std::size_t sweep_end =
      image.size() < internal::kRecordTag.size()
          ? 0
          : image.size() - internal::kRecordTag.size() + 1;
  const std::size_t n_chunks = (sweep_end + chunk - 1) / chunk;
  span.arg("chunks", std::to_string(n_chunks));

  struct ChunkOut {
    std::vector<CarvedProcess> processes;
    std::uint32_t candidates = 0;
    std::uint32_t rejected = 0;
  };
  std::vector<ChunkOut> outs(n_chunks);
  auto sweep_chunk = [&](std::size_t c) {
    auto chunk_span = obs::default_tracer().span("carve.chunk", "carve");
    chunk_span.arg("chunk", std::to_string(c));
    ChunkOut& out = outs[c];
    const std::size_t begin = c * chunk;
    const std::size_t end = std::min(begin + chunk, sweep_end);
    for (std::size_t off = next_tag(image, begin, end); off < end;
         off = next_tag(image, off + 1, end)) {
      ++out.candidates;
      if (!carve_candidate(image, off, out.processes)) ++out.rejected;
    }
  };
  if (pool != nullptr && pool->size() > 0 && n_chunks > 1) {
    pool->parallel_for(n_chunks, sweep_chunk);
  } else {
    for (std::size_t c = 0; c < n_chunks; ++c) sweep_chunk(c);
  }

  CarveResult result;
  result.stats.bytes_swept = image.size();
  result.stats.chunks = static_cast<std::uint32_t>(n_chunks);
  for (auto& out : outs) {  // chunk order == ascending offset order
    result.stats.candidates += out.candidates;
    result.stats.rejected += out.rejected;
    std::move(out.processes.begin(), out.processes.end(),
              std::back_inserter(result.processes));
  }
  result.stats.recovered =
      static_cast<std::uint32_t>(result.processes.size());

  std::vector<std::uint64_t> directory = read_directory(image);
  std::sort(directory.begin(), directory.end());
  for (auto& p : result.processes) {
    p.referenced =
        std::binary_search(directory.begin(), directory.end(), p.offset);
  }
  return result;
}

}  // namespace gb::kernel
