// The daemon's length-prefixed binary wire protocol.
//
// Layer 1 — Framer: turns a raw byte stream (daemon::Transport) into a
// sequence of integrity-checked frames:
//
//   frame    "GBWF" magic (4 bytes) | payload_len (u32) | crc32 (u32)
//            | payload
//
// After the magic this is the `len | crc32 | payload` frame of
// support/record_file.h, encoded by support::put_frame and verified by
// support::check_frame, the codec the job journal and the flight
// recorder use. A frame either arrives whole and CRC-clean or the
// connection is declared corrupt (kCorrupt) — truncated header, bad
// magic, a length of 0 or above kMaxFramePayload, or a checksum mismatch
// all poison the stream, because after any of them the frame boundary
// is unrecoverable. EOF exactly at a frame boundary is the one clean
// shutdown (kUnavailable).
//
// Layer 2 — verbs: each frame's payload begins with a Verb byte
// followed by that verb's ByteWriter encoding (see docs/
// wire_protocol.md for the field-by-field layout). Requests flow
// client -> server, each answered by its reply verb; kResult is
// answered by a kResultReply header and then a stream of kResultChunk
// frames carrying the schema-v2 report JSON. Decoders return kCorrupt
// on any malformed payload; the server answers undecodable requests
// with kErrorReply and drops the connection.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/scan_scheduler.h"
#include "daemon/job_request.h"
#include "daemon/transport.h"
#include "obs/trace.h"
#include "support/status.h"

namespace gb::daemon {

/// Hard ceiling on one frame's payload. Report chunks are far smaller
/// (kResultChunkBytes); anything larger is a corrupt length field, not
/// a big message.
inline constexpr std::uint32_t kMaxFramePayload = 4u << 20;

/// How much report JSON one kResultChunk frame carries.
inline constexpr std::uint32_t kResultChunkBytes = 64u * 1024;

enum class Verb : std::uint8_t {
  kSubmit = 1,       // JobRequest -> kSubmitReply
  kSubmitReply = 2,  // status + assigned job id
  kPoll = 3,         // job id -> kPollReply
  kPollReply = 4,    // status + JobView snapshot
  kCancel = 5,       // job id -> kCancelReply
  kCancelReply = 6,  // status + whether this call initiated cancellation
  kStats = 7,        // -> kStatsReply
  kStatsReply = 8,   // status + stats JSON + Prometheus metrics text
  kResult = 9,       // job id -> kResultReply, then kResultChunk stream
  kResultReply = 10,  // terminal job status + total result byte count
  kResultChunk = 11,  // sequence number + last flag + raw payload bytes
  kErrorReply = 12,   // request could not be decoded; connection closes
  kTrace = 13,       // job id -> kTraceReply, then kResultChunk stream
  kTraceReply = 14,  // status + total byte count of the span-tree blob
  kHealth = 15,      // -> kHealthReply
  kHealthReply = 16,  // status + health/SLO JSON (small, single frame)
};

/// Wire snapshot of one job, as kPollReply carries it.
struct JobView {
  std::uint64_t id = 0;
  core::JobPhase phase = core::JobPhase::kQueued;
  std::uint32_t tasks_done = 0;
  std::uint32_t tasks_total = 0;
  bool finished = false;
  /// Terminal outcome; meaningful only when `finished`.
  support::Status result;
};

struct SubmitReply {
  support::Status status;  // kResourceExhausted on over-quota submits
  std::uint64_t job_id = 0;
};

struct PollReply {
  support::Status status;  // kNotFound for an id this daemon never issued
  JobView view;
};

struct CancelReply {
  support::Status status;
  bool cancelled = false;
};

/// The assembled kStats answer, as the client API returns it.
struct StatsReply {
  support::Status status;
  std::string stats_json;    // DaemonStats::to_json()
  std::string metrics_text;  // gb::obs Prometheus exposition
};

/// What the kStatsReply frame itself carries. The two texts are NOT in
/// the header: they stream after it as kResultChunk frames (stats JSON
/// first, then the Prometheus text, back to back), so a giant registry
/// dump can never collide with kMaxFramePayload.
struct StatsReplyHeader {
  support::Status status;  // non-OK means no chunks follow
  std::uint64_t stats_bytes = 0;
  std::uint64_t metrics_bytes = 0;
};

/// kTraceReply header; OK means `total_bytes` of encode_trace_events
/// blob follow as kResultChunk frames.
struct TraceReply {
  support::Status status;  // kNotFound for an id this daemon never issued
  std::uint64_t total_bytes = 0;
};

/// kHealthReply body. Health JSON is a small fixed-shape document
/// (per-subsystem verdicts + latency quantiles), so unlike stats it
/// rides in its own frame.
struct HealthReply {
  support::Status status;
  std::string health_json;  // Daemon::health_json()
};

struct ResultReply {
  /// The job's terminal status. OK means `total_bytes` of report JSON
  /// follow as kResultChunk frames.
  support::Status status;
  std::uint64_t total_bytes = 0;
};

struct ResultChunk {
  std::uint32_t sequence = 0;
  bool last = false;
  std::string data;
};

/// kErrorReply body — a struct (not a bare Status) so decoders can
/// distinguish "the RPC failed" from "decoding the reply failed".
struct ErrorReply {
  support::Status error;
};

/// Frame codec over one transport. Not internally synchronized: the
/// client serializes request/reply exchanges under its own lock, and
/// the server runs one Framer per connection loop.
class Framer {
 public:
  explicit Framer(Transport& transport) : transport_(transport) {}

  /// Sends one frame wrapping `payload`. kInternal, with nothing sent,
  /// for an empty payload or one above kMaxFramePayload.
  [[nodiscard]] support::Status write_frame(std::span<const std::byte> payload);

  /// Reads the next whole frame. kUnavailable: the peer closed cleanly
  /// between frames. kCorrupt: torn frame, bad magic, zero or oversized
  /// length, or CRC mismatch — the stream is unusable and must be closed.
  [[nodiscard]] support::StatusOr<std::vector<std::byte>> read_frame();

 private:
  Transport& transport_;
};

// Requests (client -> server).
[[nodiscard]] std::vector<std::byte> encode_submit(const JobRequest& request);
[[nodiscard]] std::vector<std::byte> encode_poll(std::uint64_t job_id);
[[nodiscard]] std::vector<std::byte> encode_cancel(std::uint64_t job_id);
[[nodiscard]] std::vector<std::byte> encode_stats();
[[nodiscard]] std::vector<std::byte> encode_result(std::uint64_t job_id);
[[nodiscard]] std::vector<std::byte> encode_trace(std::uint64_t job_id);
[[nodiscard]] std::vector<std::byte> encode_health();

// Replies (server -> client).
[[nodiscard]] std::vector<std::byte> encode_submit_reply(
    const SubmitReply& reply);
[[nodiscard]] std::vector<std::byte> encode_poll_reply(const PollReply& reply);
[[nodiscard]] std::vector<std::byte> encode_cancel_reply(
    const CancelReply& reply);
[[nodiscard]] std::vector<std::byte> encode_stats_reply(
    const StatsReplyHeader& header);
[[nodiscard]] std::vector<std::byte> encode_result_reply(
    const ResultReply& reply);
[[nodiscard]] std::vector<std::byte> encode_result_chunk(
    const ResultChunk& chunk);
[[nodiscard]] std::vector<std::byte> encode_trace_reply(
    const TraceReply& reply);
[[nodiscard]] std::vector<std::byte> encode_health_reply(
    const HealthReply& reply);
[[nodiscard]] std::vector<std::byte> encode_error_reply(
    const support::Status& status);

// Chunk streaming. kResultChunk is the generic byte-stream carrier for
// every verb that answers with a header naming a byte count (kResult,
// kStats, kTrace): the sender splits `blob` into ≤ kResultChunkBytes
// frames (always at least one, so the reader's loop terminates on
// `last` even for an empty blob) and the reader reassembles, checking
// sequence numbers and the expected total.
[[nodiscard]] support::Status write_chunked(Framer& framer,
                                            std::string_view blob);
[[nodiscard]] support::StatusOr<std::string> read_chunked(
    Framer& framer, std::uint64_t expected_bytes);

// Span-tree blob codec for kTrace: a flat binary encoding of the
// events the daemon snapshots for one trace id (obs::Tracer::snapshot).
// The blob — not JSON — crosses the wire so the client can merge the
// daemon's events with its own before rendering one Chrome trace.
[[nodiscard]] std::string encode_trace_events(
    const std::vector<obs::TraceEvent>& events);
[[nodiscard]] support::StatusOr<std::vector<obs::TraceEvent>>
decode_trace_events(std::string_view blob);

/// First byte of a payload, or kCorrupt on an empty frame / unknown verb.
[[nodiscard]] support::StatusOr<Verb> decode_verb(
    std::span<const std::byte> payload);

// Decoders take the payload *after* the verb byte has been validated by
// decode_verb; all return kCorrupt on malformed bodies.
[[nodiscard]] support::StatusOr<JobRequest> decode_submit(
    std::span<const std::byte> payload);
[[nodiscard]] support::StatusOr<std::uint64_t> decode_job_id(
    std::span<const std::byte> payload);
[[nodiscard]] support::StatusOr<SubmitReply> decode_submit_reply(
    std::span<const std::byte> payload);
[[nodiscard]] support::StatusOr<PollReply> decode_poll_reply(
    std::span<const std::byte> payload);
[[nodiscard]] support::StatusOr<CancelReply> decode_cancel_reply(
    std::span<const std::byte> payload);
[[nodiscard]] support::StatusOr<StatsReplyHeader> decode_stats_reply(
    std::span<const std::byte> payload);
[[nodiscard]] support::StatusOr<ResultReply> decode_result_reply(
    std::span<const std::byte> payload);
[[nodiscard]] support::StatusOr<ResultChunk> decode_result_chunk(
    std::span<const std::byte> payload);
[[nodiscard]] support::StatusOr<TraceReply> decode_trace_reply(
    std::span<const std::byte> payload);
[[nodiscard]] support::StatusOr<HealthReply> decode_health_reply(
    std::span<const std::byte> payload);
[[nodiscard]] support::StatusOr<ErrorReply> decode_error_reply(
    std::span<const std::byte> payload);

}  // namespace gb::daemon
