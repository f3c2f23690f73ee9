#include "ntfs/runlist.h"

#include <limits>

namespace gb::ntfs {

namespace {

/// Minimum bytes needed to store an unsigned value.
std::size_t unsigned_width(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= (1ull << (8 * n)) && n < 8) ++n;
  return n;
}

/// Minimum bytes needed to store a signed value (two's complement).
std::size_t signed_width(std::int64_t v) {
  for (std::size_t n = 1; n < 8; ++n) {
    const std::int64_t lo = -(1ll << (8 * n - 1));
    const std::int64_t hi = (1ll << (8 * n - 1)) - 1;
    if (v >= lo && v <= hi) return n;
  }
  return 8;
}

void put_le(ByteWriter& out, std::uint64_t v, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    out.u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint64_t get_le(ByteReader& in, std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(in.u8()) << (8 * i);
  }
  return v;
}

std::int64_t sign_extend(std::uint64_t v, std::size_t width) {
  if (width == 8) return static_cast<std::int64_t>(v);
  const std::uint64_t sign_bit = 1ull << (8 * width - 1);
  if (v & sign_bit) v |= ~((sign_bit << 1) - 1);
  return static_cast<std::int64_t>(v);
}

}  // namespace

void encode_runlist(const RunList& runs, ByteWriter& out) {
  std::int64_t prev_lcn = 0;
  for (const Run& run : runs) {
    const std::int64_t delta = static_cast<std::int64_t>(run.lcn) - prev_lcn;
    const std::size_t len_w = unsigned_width(run.length);
    const std::size_t off_w = signed_width(delta);
    out.u8(static_cast<std::uint8_t>((off_w << 4) | len_w));
    put_le(out, run.length, len_w);
    put_le(out, static_cast<std::uint64_t>(delta), off_w);
    prev_lcn = static_cast<std::int64_t>(run.lcn);
  }
  out.u8(0);  // terminator
}

RunList decode_runlist(ByteReader& in) {
  RunList runs;
  std::int64_t prev_lcn = 0;
  for (;;) {
    const std::uint8_t header = in.u8();
    if (header == 0) break;
    const std::size_t len_w = header & 0x0f;
    const std::size_t off_w = header >> 4;
    if (len_w == 0 || len_w > 8 || off_w > 8) {
      throw ParseError("malformed run list header");
    }
    const std::uint64_t length = get_le(in, len_w);
    const std::int64_t delta = sign_extend(get_le(in, off_w), off_w);
    // prev_lcn is never negative, so only a positive delta can overflow.
    if (delta > std::numeric_limits<std::int64_t>::max() - prev_lcn) {
      throw ParseError("run list LCN overflow");
    }
    const std::int64_t lcn = prev_lcn + delta;
    if (lcn < 0) throw ParseError("run list LCN underflow");
    runs.push_back(Run{static_cast<std::uint64_t>(lcn), length});
    prev_lcn = lcn;
  }
  return runs;
}

std::uint64_t runlist_clusters(const RunList& runs) {
  std::uint64_t total = 0;
  for (const Run& r : runs) total += r.length;
  return total;
}

}  // namespace gb::ntfs
