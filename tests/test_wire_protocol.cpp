// Wire protocol robustness: every verb round-trips byte-exactly, and a
// hostile or broken peer — truncated frames, oversized lengths, garbage
// bytes, checksum damage — produces kCorrupt (or a clean kUnavailable
// close), never a crash, a hang, or a half-parsed message. The daemon
// must survive a poisoned connection and keep serving the next one.
#include "daemon/wire.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "daemon/daemon.h"
#include "daemon/job_request.h"
#include "daemon/transport.h"
#include "machine/machine.h"
#include "support/bytes.h"
#include "support/checksum.h"
#include "support/status.h"

namespace gb {
namespace {

using namespace daemon;

std::vector<std::byte> as_bytes(std::string_view s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

// --- payload round-trips ---------------------------------------------------

TEST(WireCodec, SubmitRoundTripsEveryField) {
  JobRequest request;
  request.machine_id = "DESKTOP-104";
  request.tenant = "lab";
  request.priority = -7;
  request.kind = core::ScanKind::kOutside;
  request.resources = core::ResourceMask::kFiles;
  request.advanced = true;
  request.carve = core::CarveMode::kOn;

  const auto frame = encode_submit(request);
  const auto verb = decode_verb(frame);
  ASSERT_TRUE(verb.ok());
  EXPECT_EQ(*verb, Verb::kSubmit);
  const auto decoded = decode_submit(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, request);
}

TEST(WireCodec, JobIdVerbsRoundTrip) {
  for (const auto& frame :
       {encode_poll(0xDEADBEEFCAFEull), encode_cancel(0xDEADBEEFCAFEull),
        encode_result(0xDEADBEEFCAFEull)}) {
    const auto id = decode_job_id(frame);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, 0xDEADBEEFCAFEull);
  }
}

TEST(WireCodec, RepliesRoundTripStatusAndFields) {
  SubmitReply submit;
  submit.status = support::Status::resource_exhausted("tenant lab over quota");
  submit.job_id = 42;
  const auto submit_back = decode_submit_reply(encode_submit_reply(submit));
  ASSERT_TRUE(submit_back.ok());
  EXPECT_EQ(submit_back->status.code(),
            support::StatusCode::kResourceExhausted);
  EXPECT_EQ(submit_back->status.message(), "tenant lab over quota");
  EXPECT_EQ(submit_back->job_id, 42u);

  PollReply poll;
  poll.view.id = 9;
  poll.view.phase = core::JobPhase::kRunning;
  poll.view.tasks_done = 3;
  poll.view.tasks_total = 8;
  poll.view.finished = true;
  poll.view.result = support::Status::cancelled("pulled");
  const auto poll_back = decode_poll_reply(encode_poll_reply(poll));
  ASSERT_TRUE(poll_back.ok());
  EXPECT_EQ(poll_back->view.id, 9u);
  EXPECT_EQ(poll_back->view.phase, core::JobPhase::kRunning);
  EXPECT_EQ(poll_back->view.tasks_done, 3u);
  EXPECT_EQ(poll_back->view.tasks_total, 8u);
  EXPECT_TRUE(poll_back->view.finished);
  EXPECT_EQ(poll_back->view.result.code(), support::StatusCode::kCancelled);

  CancelReply cancel;
  cancel.cancelled = true;
  const auto cancel_back = decode_cancel_reply(encode_cancel_reply(cancel));
  ASSERT_TRUE(cancel_back.ok());
  EXPECT_TRUE(cancel_back->cancelled);

  StatsReplyHeader stats;
  stats.stats_bytes = 123;
  stats.metrics_bytes = 456789;
  const auto stats_back = decode_stats_reply(encode_stats_reply(stats));
  ASSERT_TRUE(stats_back.ok());
  EXPECT_TRUE(stats_back->status.ok());
  EXPECT_EQ(stats_back->stats_bytes, 123u);
  EXPECT_EQ(stats_back->metrics_bytes, 456789u);

  TraceReply trace;
  trace.status = support::Status::not_found("no such job");
  trace.total_bytes = 9876;
  const auto trace_back = decode_trace_reply(encode_trace_reply(trace));
  ASSERT_TRUE(trace_back.ok());
  EXPECT_EQ(trace_back->status.code(), support::StatusCode::kNotFound);
  EXPECT_EQ(trace_back->total_bytes, 9876u);

  HealthReply health;
  health.health_json = "{\"subsystems\":{\"journal\":{\"ok\":true}}}";
  const auto health_back = decode_health_reply(encode_health_reply(health));
  ASSERT_TRUE(health_back.ok());
  EXPECT_TRUE(health_back->status.ok());
  EXPECT_EQ(health_back->health_json, health.health_json);

  ResultReply result;
  result.total_bytes = 1u << 20;
  const auto result_back = decode_result_reply(encode_result_reply(result));
  ASSERT_TRUE(result_back.ok());
  EXPECT_EQ(result_back->total_bytes, 1u << 20);

  const auto error_back = decode_error_reply(
      encode_error_reply(support::Status::corrupt("bad frame")));
  ASSERT_TRUE(error_back.ok());
  EXPECT_EQ(error_back->error.code(), support::StatusCode::kCorrupt);
  EXPECT_EQ(error_back->error.message(), "bad frame");
}

TEST(WireCodec, ResultChunkCarriesBinaryDataByteExact) {
  ResultChunk chunk;
  chunk.sequence = 7;
  chunk.last = true;
  chunk.data = std::string("abc\0\xFF\x01" "def", 9);
  const auto back = decode_result_chunk(encode_result_chunk(chunk));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->sequence, 7u);
  EXPECT_TRUE(back->last);
  EXPECT_EQ(back->data, chunk.data);
}

TEST(WireCodec, MalformedPayloadsAreCorruptNotUB) {
  // Wrong decoder for the verb's layout → kCorrupt via the ParseError
  // boundary or the trailing-bytes check, never an exception escape.
  const auto poll_frame = encode_poll(1);
  EXPECT_EQ(decode_submit(poll_frame).status().code(),
            support::StatusCode::kCorrupt);

  EXPECT_EQ(decode_verb({}).status().code(), support::StatusCode::kCorrupt);

  const auto junk = as_bytes("\x63junkjunkjunk");  // verb 99: unknown
  EXPECT_EQ(decode_verb(junk).status().code(), support::StatusCode::kCorrupt);

  // Truncated submit payload.
  auto frame = encode_submit(JobRequest{});
  frame.resize(frame.size() / 2);
  EXPECT_EQ(decode_submit(frame).status().code(),
            support::StatusCode::kCorrupt);

  // Trailing bytes after a complete payload.
  auto padded = encode_cancel(1);
  padded.push_back(std::byte{0});
  EXPECT_EQ(decode_job_id(padded).status().code(),
            support::StatusCode::kCorrupt);
}

// --- framing over the pipe transport ---------------------------------------

TEST(WireFramer, FramesRoundTripInOrder) {
  PipePair pipe = make_pipe();
  Framer client(*pipe.client);
  Framer server(*pipe.server);

  ASSERT_TRUE(client.write_frame(encode_poll(1)).ok());
  ASSERT_TRUE(client.write_frame(encode_stats()).ok());
  ASSERT_TRUE(client.write_frame(encode_cancel(2)).ok());

  const auto first = server.read_frame();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*decode_verb(*first), Verb::kPoll);
  const auto second = server.read_frame();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*decode_verb(*second), Verb::kStats);
  const auto third = server.read_frame();
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(*decode_verb(*third), Verb::kCancel);
}

TEST(WireFramer, LargeFrameCrossesASmallPipe) {
  // Frame far larger than the pipe buffer: the writer must chunk through
  // backpressure while the reader drains, with the bytes intact.
  PipePair pipe = make_pipe(/*capacity=*/1024);
  ResultChunk chunk;
  chunk.last = true;
  chunk.data.assign(200000, 'x');
  chunk.data += "end";
  std::thread writer([&] {
    Framer framer(*pipe.client);
    ASSERT_TRUE(framer.write_frame(encode_result_chunk(chunk)).ok());
  });
  Framer server(*pipe.server);
  const auto frame = server.read_frame();
  writer.join();
  ASSERT_TRUE(frame.ok());
  const auto back = decode_result_chunk(*frame);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->data, chunk.data);
}

// --- chunk streaming -------------------------------------------------------

TEST(WireChunks, BlobLargerThanOneChunkStreamsAndReassembles) {
  // Forces multiple kResultChunk frames (blob > kResultChunkBytes) over
  // a pipe smaller than one chunk: backpressure on the writer, in-order
  // reassembly on the reader, byte-exact either way. This is the path
  // that keeps kStats/kTrace replies clear of kMaxFramePayload.
  PipePair pipe = make_pipe(/*capacity=*/4096);
  std::string blob;
  blob.reserve(3 * kResultChunkBytes + 17);
  while (blob.size() < 3 * kResultChunkBytes + 17) {
    blob += "stats-or-trace-payload/";
  }
  std::thread writer([&] {
    Framer framer(*pipe.client);
    ASSERT_TRUE(write_chunked(framer, blob).ok());
  });
  Framer server(*pipe.server);
  const auto back = read_chunked(server, blob.size());
  writer.join();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, blob);
}

TEST(WireChunks, EmptyBlobStillSendsOneTerminatingChunk) {
  PipePair pipe = make_pipe();
  Framer client(*pipe.client);
  ASSERT_TRUE(write_chunked(client, "").ok());
  Framer server(*pipe.server);
  const auto back = read_chunked(server, 0);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(WireChunks, SequenceGapIsCorrupt) {
  PipePair pipe = make_pipe();
  Framer client(*pipe.client);
  ResultChunk chunk;
  chunk.sequence = 1;  // reader expects 0 first
  chunk.last = true;
  chunk.data = "abc";
  ASSERT_TRUE(client.write_frame(encode_result_chunk(chunk)).ok());
  Framer server(*pipe.server);
  const auto back = read_chunked(server, 3);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), support::StatusCode::kCorrupt);
}

TEST(WireChunks, TotalSizeMismatchIsCorrupt) {
  PipePair pipe = make_pipe();
  Framer client(*pipe.client);
  ResultChunk chunk;
  chunk.last = true;
  chunk.data = "abc";
  ASSERT_TRUE(client.write_frame(encode_result_chunk(chunk)).ok());
  Framer server(*pipe.server);
  const auto back = read_chunked(server, 4);  // header promised 4 bytes
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), support::StatusCode::kCorrupt);
}

// --- trace-event blob codec ------------------------------------------------

TEST(WireCodec, TraceEventsRoundTripByteExact) {
  std::vector<obs::TraceEvent> events(2);
  events[0].name = "sched.job";
  events[0].cat = "sched";
  events[0].trace_id = 0x1111222233334444ull;
  events[0].span_id = 7;
  events[0].parent_span_id = 3;
  events[0].ts_us = 100;
  events[0].dur_us = 2500;
  events[0].pid = 2;
  events[0].tid = 4;
  events[0].ph = 'X';
  events[0].args = {{"job", "42"}, {"shard", "0"}};
  events[1].name = "engine.inside";
  events[1].cat = "engine";
  events[1].trace_id = events[0].trace_id;
  events[1].span_id = 8;
  events[1].parent_span_id = 7;
  events[1].ts_us = 150;
  events[1].ph = 'i';

  const auto back = decode_trace_events(encode_trace_events(events));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ((*back)[i].name, events[i].name);
    EXPECT_EQ((*back)[i].cat, events[i].cat);
    EXPECT_EQ((*back)[i].trace_id, events[i].trace_id);
    EXPECT_EQ((*back)[i].span_id, events[i].span_id);
    EXPECT_EQ((*back)[i].parent_span_id, events[i].parent_span_id);
    EXPECT_EQ((*back)[i].ts_us, events[i].ts_us);
    EXPECT_EQ((*back)[i].dur_us, events[i].dur_us);
    EXPECT_EQ((*back)[i].pid, events[i].pid);
    EXPECT_EQ((*back)[i].tid, events[i].tid);
    EXPECT_EQ((*back)[i].ph, events[i].ph);
    EXPECT_EQ((*back)[i].args, events[i].args);
  }
}

TEST(WireCodec, CorruptTraceBlobIsCorruptNotAnAllocationBomb) {
  // A count field claiming 4 billion events must fail cleanly, not
  // reserve memory for them.
  const std::string bomb("\xFF\xFF\xFF\xFF", 4);
  EXPECT_EQ(decode_trace_events(bomb).status().code(),
            support::StatusCode::kCorrupt);
  // Truncated mid-event.
  std::string good = encode_trace_events(
      std::vector<obs::TraceEvent>(1));
  good.resize(good.size() / 2);
  EXPECT_EQ(decode_trace_events(good).status().code(),
            support::StatusCode::kCorrupt);
  EXPECT_EQ(decode_trace_events("").status().code(),
            support::StatusCode::kCorrupt);
}

TEST(WireFramer, PeerCloseAtFrameBoundaryIsUnavailable) {
  PipePair pipe = make_pipe();
  pipe.client->close();
  Framer server(*pipe.server);
  const auto frame = server.read_frame();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), support::StatusCode::kUnavailable);
}

TEST(WireFramer, TruncatedHeaderIsCorrupt) {
  PipePair pipe = make_pipe();
  ASSERT_TRUE(pipe.client->send_bytes(as_bytes("GBWF\x08")).ok());
  pipe.client->close();
  Framer server(*pipe.server);
  const auto frame = server.read_frame();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), support::StatusCode::kCorrupt);
}

TEST(WireFramer, TruncatedPayloadIsCorrupt) {
  PipePair pipe = make_pipe();
  ByteWriter w;
  w.str("GBWF");
  w.u32(100);  // promises 100 payload bytes
  w.u32(0);
  w.str("only-these");
  ASSERT_TRUE(pipe.client->send_bytes(w.view()).ok());
  pipe.client->close();
  Framer server(*pipe.server);
  const auto frame = server.read_frame();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), support::StatusCode::kCorrupt);
}

TEST(WireFramer, OversizedLengthIsRejectedBeforeAllocation) {
  PipePair pipe = make_pipe();
  ByteWriter w;
  w.str("GBWF");
  w.u32(kMaxFramePayload + 1);
  w.u32(0);
  ASSERT_TRUE(pipe.client->send_bytes(w.view()).ok());
  Framer server(*pipe.server);
  const auto frame = server.read_frame();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), support::StatusCode::kCorrupt);
}

TEST(WireFramer, GarbageBytesAreCorrupt) {
  PipePair pipe = make_pipe();
  ASSERT_TRUE(
      pipe.client->send_bytes(as_bytes("this is not a GBWF frame....")).ok());
  Framer server(*pipe.server);
  const auto frame = server.read_frame();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), support::StatusCode::kCorrupt);
}

TEST(WireFramer, ChecksumMismatchIsCorrupt) {
  PipePair pipe = make_pipe();
  const auto payload = encode_poll(1);
  ByteWriter w;
  w.str("GBWF");
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(support::crc32(payload) ^ 0xBADF00D);
  w.bytes(payload);
  ASSERT_TRUE(pipe.client->send_bytes(w.view()).ok());
  Framer server(*pipe.server);
  const auto frame = server.read_frame();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), support::StatusCode::kCorrupt);
}

// --- golden frames ---------------------------------------------------------
//
// tests/golden/wire_poll.frame and wire_result_chunk.frame hold every byte
// Framer::write_frame put on the stream for one request and one reply.

std::vector<std::byte> golden_frame(const char* name) {
  std::ifstream in(std::string(GB_GOLDEN_DIR) + "/" + name, std::ios::binary);
  const std::vector<char> chars((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  const auto* first = reinterpret_cast<const std::byte*>(chars.data());
  return std::vector<std::byte>(first, first + chars.size());
}

/// The bytes one write_frame sends, read raw off the other end.
std::vector<std::byte> sent_bytes(std::span<const std::byte> payload) {
  PipePair pipe = make_pipe();
  Framer framer(*pipe.client);
  EXPECT_TRUE(framer.write_frame(payload).ok());
  pipe.client->close();
  std::vector<std::byte> out;
  std::array<std::byte, 256> buf{};
  for (;;) {
    const auto n = pipe.server->recv_bytes(buf);
    if (!n.ok() || *n == 0) break;
    out.insert(out.end(), buf.begin(),
               buf.begin() + static_cast<std::ptrdiff_t>(*n));
  }
  return out;
}

/// Reads the golden bytes back through a Framer.
support::StatusOr<std::vector<std::byte>> read_golden(
    const std::vector<std::byte>& golden) {
  PipePair pipe = make_pipe();
  EXPECT_TRUE(pipe.client->send_bytes(golden).ok());
  Framer server(*pipe.server);
  return server.read_frame();
}

TEST(WireGolden, PollRequestFrameMatchesTheGolden) {
  constexpr std::uint64_t kJob = 0x0102030405060708ull;
  const std::vector<std::byte> golden = golden_frame("wire_poll.frame");
  EXPECT_EQ(sent_bytes(encode_poll(kJob)), golden);

  const auto frame = read_golden(golden);
  ASSERT_TRUE(frame.ok()) << frame.status().to_string();
  EXPECT_EQ(*decode_verb(*frame), Verb::kPoll);
  EXPECT_EQ(*decode_job_id(*frame), kJob);
}

TEST(WireGolden, ResultChunkReplyFrameMatchesTheGolden) {
  ResultChunk chunk;
  chunk.sequence = 2;
  chunk.last = true;
  chunk.data = std::string("{\"infected\":true}\0tail", 22);
  const std::vector<std::byte> golden = golden_frame("wire_result_chunk.frame");
  EXPECT_EQ(sent_bytes(encode_result_chunk(chunk)), golden);

  const auto frame = read_golden(golden);
  ASSERT_TRUE(frame.ok()) << frame.status().to_string();
  EXPECT_EQ(*decode_verb(*frame), Verb::kResultChunk);
  const auto back = decode_result_chunk(*frame);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->sequence, 2u);
  EXPECT_TRUE(back->last);
  EXPECT_EQ(back->data, chunk.data);
}

// --- the daemon survives hostile connections -------------------------------

TEST(WireFramer, DaemonSurvivesAPoisonedConnection) {
  machine::MachineConfig cfg;
  cfg.seed = 11;
  machine::Machine box(cfg);

  DaemonOptions opts;
  opts.journal_path = ::testing::TempDir() + "/gb_wire_daemon.gbj";
  std::filesystem::remove(opts.journal_path);
  opts.resolve_machine = [&box](const std::string& id) {
    return id == "BOX" ? &box : nullptr;
  };
  auto daemon = Daemon::start(std::move(opts));
  ASSERT_TRUE(daemon.ok());

  // Connection 1 sends garbage: it gets an error reply (kCorrupt) and a
  // closed stream — and only that connection dies.
  PipePair bad = make_pipe();
  (*daemon)->serve(bad.server);
  ASSERT_TRUE(bad.client->send_bytes(as_bytes("GARBAGEGARBAGEGARBAGE")).ok());
  Framer bad_framer(*bad.client);
  const auto error_frame = bad_framer.read_frame();
  ASSERT_TRUE(error_frame.ok());
  ASSERT_EQ(*decode_verb(*error_frame), Verb::kErrorReply);
  EXPECT_EQ(decode_error_reply(*error_frame)->error.code(),
            support::StatusCode::kCorrupt);
  const auto after = bad_framer.read_frame();
  EXPECT_FALSE(after.ok());

  // Connection 2, opened after the poisoning, serves normally.
  PipePair good = make_pipe();
  (*daemon)->serve(good.server);
  Framer good_framer(*good.client);
  JobRequest request;
  request.machine_id = "BOX";
  ASSERT_TRUE(good_framer.write_frame(encode_submit(request)).ok());
  const auto reply_frame = good_framer.read_frame();
  ASSERT_TRUE(reply_frame.ok());
  ASSERT_EQ(*decode_verb(*reply_frame), Verb::kSubmitReply);
  const auto reply = decode_submit_reply(*reply_frame);
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->status.ok());
  EXPECT_EQ(reply->job_id, 1u);
  good.client->close();
}

}  // namespace
}  // namespace gb
