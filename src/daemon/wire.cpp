#include "daemon/wire.h"

#include <algorithm>
#include <array>
#include <utility>

#include "support/bytes.h"
#include "support/record_file.h"

namespace gb::daemon {
namespace {

constexpr char kFrameMagic[4] = {'G', 'B', 'W', 'F'};

// Reads exactly `out.size()` bytes. Returns the count actually read —
// short only at EOF — or a transport error.
support::StatusOr<std::size_t> read_exact(Transport& t,
                                          std::span<std::byte> out) {
  std::size_t off = 0;
  while (off < out.size()) {
    // Callers hold the connection lock across whole frames by design —
    // it is what keeps concurrent requests from interleaving bytes.
    // gb-lint: allow(blocking-under-lock)
    support::StatusOr<std::size_t> n = t.recv_bytes(out.subspan(off));
    if (!n.ok()) return n.status();
    if (*n == 0) break;  // EOF
    off += *n;
  }
  return off;
}

void put_string(ByteWriter& w, std::string_view s) {
  w.u32(static_cast<std::uint32_t>(s.size()));
  w.str(s);
}

std::vector<std::byte> finish(ByteWriter&& w) { return std::move(w).take(); }

ByteWriter begin(Verb verb) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(verb));
  return w;
}

// The one `_or` boundary for all payload decoders: runs `fn(reader)`
// over the post-verb payload bytes and converts ParseError to kCorrupt.
template <typename Fn>
auto decode_body(std::span<const std::byte> payload, const char* what,
                 Fn&& fn) -> support::StatusOr<decltype(fn(
                   std::declval<ByteReader&>()))> {
  ByteReader r(payload.subspan(1));
  try {
    auto value = fn(r);
    if (!r.at_end()) {
      return support::Status::corrupt(std::string("wire: trailing bytes in ") +
                                      what);
    }
    return value;
  } catch (const ParseError& e) {
    return support::Status::corrupt(std::string("wire: bad ") + what + ": " +
                                    e.what());
  }
}

}  // namespace

support::Status Framer::write_frame(std::span<const std::byte> payload) {
  ByteWriter w;
  w.str(std::string_view(kFrameMagic, 4));
  if (support::Status s = support::put_frame(w, payload, kMaxFramePayload);
      !s.ok()) {
    return s;
  }
  // Same serialized-frame contract as read_exact above: the caller's
  // connection lock is what makes a frame atomic on the wire.
  // gb-lint: allow(blocking-under-lock)
  return transport_.send_bytes(w.view());
}

support::StatusOr<std::vector<std::byte>> Framer::read_frame() {
  std::array<std::byte, 4 + support::kFramePrefixBytes> header{};
  support::StatusOr<std::size_t> got = read_exact(transport_, header);
  if (!got.ok()) return got.status();
  if (*got == 0) {
    return support::Status::unavailable("wire: peer closed");
  }
  if (*got < header.size()) {
    return support::Status::corrupt("wire: truncated frame header");
  }
  if (ByteReader(header).str(4) != std::string_view(kFrameMagic, 4)) {
    return support::Status::corrupt("wire: bad frame magic");
  }
  const auto prefix = std::span<const std::byte>(header)
                          .subspan<4, support::kFramePrefixBytes>();
  // Checked before the payload buffer is sized from it.
  const support::FrameCheck length =
      support::check_frame(prefix, {}, kMaxFramePayload);
  if (length.state == support::FrameState::kBadLength) {
    return support::Status::corrupt("wire: bad frame length " +
                                    std::to_string(length.payload_len));
  }
  std::vector<std::byte> payload(length.payload_len);
  got = read_exact(transport_, payload);
  if (!got.ok()) return got.status();
  if (*got < payload.size()) {
    return support::Status::corrupt("wire: truncated frame payload");
  }
  if (support::check_frame(prefix, payload, kMaxFramePayload).state !=
      support::FrameState::kIntact) {
    return support::Status::corrupt("wire: frame checksum mismatch");
  }
  return payload;
}

std::vector<std::byte> encode_submit(const JobRequest& request) {
  ByteWriter w = begin(Verb::kSubmit);
  request.serialize(w);
  return finish(std::move(w));
}

std::vector<std::byte> encode_poll(std::uint64_t job_id) {
  ByteWriter w = begin(Verb::kPoll);
  w.u64(job_id);
  return finish(std::move(w));
}

std::vector<std::byte> encode_cancel(std::uint64_t job_id) {
  ByteWriter w = begin(Verb::kCancel);
  w.u64(job_id);
  return finish(std::move(w));
}

std::vector<std::byte> encode_stats() { return finish(begin(Verb::kStats)); }

std::vector<std::byte> encode_result(std::uint64_t job_id) {
  ByteWriter w = begin(Verb::kResult);
  w.u64(job_id);
  return finish(std::move(w));
}

std::vector<std::byte> encode_trace(std::uint64_t job_id) {
  ByteWriter w = begin(Verb::kTrace);
  w.u64(job_id);
  return finish(std::move(w));
}

std::vector<std::byte> encode_health() { return finish(begin(Verb::kHealth)); }

std::vector<std::byte> encode_submit_reply(const SubmitReply& reply) {
  ByteWriter w = begin(Verb::kSubmitReply);
  put_status(w, reply.status);
  w.u64(reply.job_id);
  return finish(std::move(w));
}

std::vector<std::byte> encode_poll_reply(const PollReply& reply) {
  ByteWriter w = begin(Verb::kPollReply);
  put_status(w, reply.status);
  w.u64(reply.view.id);
  w.u8(static_cast<std::uint8_t>(reply.view.phase));
  w.u32(reply.view.tasks_done);
  w.u32(reply.view.tasks_total);
  w.u8(reply.view.finished ? 1 : 0);
  put_status(w, reply.view.result);
  return finish(std::move(w));
}

std::vector<std::byte> encode_cancel_reply(const CancelReply& reply) {
  ByteWriter w = begin(Verb::kCancelReply);
  put_status(w, reply.status);
  w.u8(reply.cancelled ? 1 : 0);
  return finish(std::move(w));
}

std::vector<std::byte> encode_stats_reply(const StatsReplyHeader& header) {
  ByteWriter w = begin(Verb::kStatsReply);
  put_status(w, header.status);
  w.u64(header.stats_bytes);
  w.u64(header.metrics_bytes);
  return finish(std::move(w));
}

std::vector<std::byte> encode_result_reply(const ResultReply& reply) {
  ByteWriter w = begin(Verb::kResultReply);
  put_status(w, reply.status);
  w.u64(reply.total_bytes);
  return finish(std::move(w));
}

std::vector<std::byte> encode_result_chunk(const ResultChunk& chunk) {
  ByteWriter w = begin(Verb::kResultChunk);
  w.u32(chunk.sequence);
  w.u8(chunk.last ? 1 : 0);
  put_string(w, chunk.data);
  return finish(std::move(w));
}

std::vector<std::byte> encode_trace_reply(const TraceReply& reply) {
  ByteWriter w = begin(Verb::kTraceReply);
  put_status(w, reply.status);
  w.u64(reply.total_bytes);
  return finish(std::move(w));
}

std::vector<std::byte> encode_health_reply(const HealthReply& reply) {
  ByteWriter w = begin(Verb::kHealthReply);
  put_status(w, reply.status);
  put_string(w, reply.health_json);
  return finish(std::move(w));
}

std::vector<std::byte> encode_error_reply(const support::Status& status) {
  ByteWriter w = begin(Verb::kErrorReply);
  put_status(w, status);
  return finish(std::move(w));
}

support::Status write_chunked(Framer& framer, std::string_view blob) {
  std::uint32_t sequence = 0;
  std::size_t offset = 0;
  support::Status io;
  do {
    ResultChunk chunk;
    chunk.sequence = sequence;
    const std::size_t n =
        std::min<std::size_t>(kResultChunkBytes, blob.size() - offset);
    chunk.data = std::string(blob.substr(offset, n));
    offset += n;
    chunk.last = offset >= blob.size();
    io = framer.write_frame(encode_result_chunk(chunk));
    sequence += 1;
  } while (io.ok() && offset < blob.size());
  return io;
}

support::StatusOr<std::string> read_chunked(Framer& framer,
                                            std::uint64_t expected_bytes) {
  std::string out;
  out.reserve(expected_bytes);
  for (std::uint32_t expected_seq = 0;; ++expected_seq) {
    // Chunked results stream over the same locked connection; dropping
    // the lock between chunks would let another request interleave.
    // gb-lint: allow(blocking-under-lock)
    support::StatusOr<std::vector<std::byte>> frame = framer.read_frame();
    if (!frame.ok()) return frame.status();
    support::StatusOr<Verb> verb = decode_verb(*frame);
    if (!verb.ok()) return verb.status();
    if (*verb != Verb::kResultChunk) {
      return support::Status::corrupt("wire: expected chunk frame");
    }
    support::StatusOr<ResultChunk> chunk = decode_result_chunk(*frame);
    if (!chunk.ok()) return chunk.status();
    if (chunk->sequence != expected_seq) {
      return support::Status::corrupt("wire: chunk out of sequence");
    }
    out += chunk->data;
    if (chunk->last) break;
  }
  if (out.size() != expected_bytes) {
    return support::Status::corrupt("wire: chunk stream size mismatch");
  }
  return out;
}

std::string encode_trace_events(const std::vector<obs::TraceEvent>& events) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(events.size()));
  for (const obs::TraceEvent& e : events) {
    put_string(w, e.name);
    put_string(w, e.cat);
    w.u64(e.trace_id);
    w.u64(e.span_id);
    w.u64(e.parent_span_id);
    w.u64(e.ts_us);
    w.u64(e.dur_us);
    w.u32(e.pid);
    w.u32(e.tid);
    w.u8(static_cast<std::uint8_t>(e.ph));
    w.u32(static_cast<std::uint32_t>(e.args.size()));
    for (const auto& [key, value] : e.args) {
      put_string(w, key);
      put_string(w, value);
    }
  }
  std::vector<std::byte> bytes = std::move(w).take();
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

support::StatusOr<std::vector<obs::TraceEvent>> decode_trace_events(
    std::string_view blob) {
  ByteReader r(std::as_bytes(std::span(blob.data(), blob.size())));
  try {
    // Counts are bounded by the blob size (every event and every arg
    // pair costs more than one byte), so a corrupt count can't force a
    // huge allocation before the reads start failing.
    const std::uint32_t count = r.u32();
    if (count > blob.size()) {
      return support::Status::corrupt("wire: trace blob count too large");
    }
    std::vector<obs::TraceEvent> events(count);
    for (obs::TraceEvent& e : events) {
      e.name = r.str(r.u32());
      e.cat = r.str(r.u32());
      e.trace_id = r.u64();
      e.span_id = r.u64();
      e.parent_span_id = r.u64();
      e.ts_us = r.u64();
      e.dur_us = r.u64();
      e.pid = r.u32();
      e.tid = r.u32();
      e.ph = static_cast<char>(r.u8());
      const std::uint32_t nargs = r.u32();
      if (nargs > blob.size()) {
        return support::Status::corrupt("wire: trace arg count too large");
      }
      e.args.resize(nargs);
      for (auto& [key, value] : e.args) {
        key = r.str(r.u32());
        value = r.str(r.u32());
      }
    }
    if (!r.at_end()) {
      return support::Status::corrupt("wire: trailing bytes in trace blob");
    }
    return events;
  } catch (const ParseError& e) {
    return support::Status::corrupt(std::string("wire: bad trace blob: ") +
                                    e.what());
  }
}

support::StatusOr<Verb> decode_verb(std::span<const std::byte> payload) {
  if (payload.empty()) {
    return support::Status::corrupt("wire: empty frame payload");
  }
  const auto v = static_cast<std::uint8_t>(payload[0]);
  if (v < static_cast<std::uint8_t>(Verb::kSubmit) ||
      v > static_cast<std::uint8_t>(Verb::kHealthReply)) {
    return support::Status::corrupt("wire: unknown verb " + std::to_string(v));
  }
  return static_cast<Verb>(v);
}

support::StatusOr<JobRequest> decode_submit(
    std::span<const std::byte> payload) {
  ByteReader r(payload.subspan(1));
  support::StatusOr<JobRequest> req = JobRequest::deserialize(r);
  if (req.ok() && !r.at_end()) {
    return support::Status::corrupt("wire: trailing bytes in submit");
  }
  return req;
}

support::StatusOr<std::uint64_t> decode_job_id(
    std::span<const std::byte> payload) {
  return decode_body(payload, "job id", [](ByteReader& r) { return r.u64(); });
}

support::StatusOr<SubmitReply> decode_submit_reply(
    std::span<const std::byte> payload) {
  return decode_body(payload, "submit reply", [](ByteReader& r) {
    SubmitReply reply;
    reply.status = get_status(r);
    reply.job_id = r.u64();
    return reply;
  });
}

support::StatusOr<PollReply> decode_poll_reply(
    std::span<const std::byte> payload) {
  return decode_body(payload, "poll reply", [](ByteReader& r) {
    PollReply reply;
    reply.status = get_status(r);
    reply.view.id = r.u64();
    const std::uint8_t phase = r.u8();
    if (phase > static_cast<std::uint8_t>(core::JobPhase::kDone)) {
      throw ParseError("bad job phase");
    }
    reply.view.phase = static_cast<core::JobPhase>(phase);
    reply.view.tasks_done = r.u32();
    reply.view.tasks_total = r.u32();
    reply.view.finished = r.u8() != 0;
    reply.view.result = get_status(r);
    return reply;
  });
}

support::StatusOr<CancelReply> decode_cancel_reply(
    std::span<const std::byte> payload) {
  return decode_body(payload, "cancel reply", [](ByteReader& r) {
    CancelReply reply;
    reply.status = get_status(r);
    reply.cancelled = r.u8() != 0;
    return reply;
  });
}

support::StatusOr<StatsReplyHeader> decode_stats_reply(
    std::span<const std::byte> payload) {
  return decode_body(payload, "stats reply", [](ByteReader& r) {
    StatsReplyHeader header;
    header.status = get_status(r);
    header.stats_bytes = r.u64();
    header.metrics_bytes = r.u64();
    return header;
  });
}

support::StatusOr<ResultReply> decode_result_reply(
    std::span<const std::byte> payload) {
  return decode_body(payload, "result reply", [](ByteReader& r) {
    ResultReply reply;
    reply.status = get_status(r);
    reply.total_bytes = r.u64();
    return reply;
  });
}

support::StatusOr<ResultChunk> decode_result_chunk(
    std::span<const std::byte> payload) {
  return decode_body(payload, "result chunk", [](ByteReader& r) {
    ResultChunk chunk;
    chunk.sequence = r.u32();
    chunk.last = r.u8() != 0;
    chunk.data = r.str(r.u32());
    return chunk;
  });
}

support::StatusOr<TraceReply> decode_trace_reply(
    std::span<const std::byte> payload) {
  return decode_body(payload, "trace reply", [](ByteReader& r) {
    TraceReply reply;
    reply.status = get_status(r);
    reply.total_bytes = r.u64();
    return reply;
  });
}

support::StatusOr<HealthReply> decode_health_reply(
    std::span<const std::byte> payload) {
  return decode_body(payload, "health reply", [](ByteReader& r) {
    HealthReply reply;
    reply.status = get_status(r);
    reply.health_json = r.str(r.u32());
    return reply;
  });
}

support::StatusOr<ErrorReply> decode_error_reply(
    std::span<const std::byte> payload) {
  return decode_body(payload, "error reply", [](ByteReader& r) {
    return ErrorReply{get_status(r)};
  });
}

}  // namespace gb::daemon
