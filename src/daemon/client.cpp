#include "daemon/client.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "daemon/wire.h"
#include "support/thread_annotations.h"

namespace gb::client {

namespace internal {

/// Transport-specific behavior behind JobHandle's shared state.
class HandleImpl {
 public:
  virtual ~HandleImpl() = default;
  [[nodiscard]] virtual std::uint64_t id() const = 0;
  virtual const JobResult& wait() = 0;
  virtual const JobResult* try_result() = 0;
  virtual bool cancel() = 0;
  [[nodiscard]] virtual core::JobProgress progress() = 0;
};

}  // namespace internal

std::uint64_t JobHandle::id() const { return impl_ ? impl_->id() : 0; }

const JobResult& JobHandle::wait() { return impl_->wait(); }

const JobResult* JobHandle::try_result() {
  return impl_ ? impl_->try_result() : nullptr;
}

bool JobHandle::cancel() { return impl_ && impl_->cancel(); }

core::JobProgress JobHandle::progress() const {
  return impl_ ? impl_->progress() : core::JobProgress{};
}

// --- in-process transport ---------------------------------------------------

namespace {

class InProcessHandle final : public internal::HandleImpl {
 public:
  explicit InProcessHandle(core::ScanJob job) : job_(std::move(job)) {}

  [[nodiscard]] std::uint64_t id() const override { return job_.id(); }

  const JobResult& wait() override {
    support::StatusOr<core::Report>& result = job_.wait();
    support::MutexLock lk(mu_);
    fill_locked(result);
    return result_;
  }

  const JobResult* try_result() override {
    support::StatusOr<core::Report>* result = job_.try_result();
    if (result == nullptr) return nullptr;
    support::MutexLock lk(mu_);
    fill_locked(*result);
    return &result_;
  }

  bool cancel() override { return job_.cancel(); }

  [[nodiscard]] core::JobProgress progress() override {
    return job_.progress();
  }

 private:
  // Serializes the report once; later calls reuse the cached JSON.
  void fill_locked(support::StatusOr<core::Report>& result)
      GB_REQUIRES(mu_) {
    if (cached_) return;
    if (result.ok()) {
      result_.report_json = result->to_json();
    } else {
      result_.status = result.status();
    }
    cached_ = true;
  }

  core::ScanJob job_;
  support::Mutex mu_;
  bool cached_ GB_GUARDED_BY(mu_) = false;
  JobResult result_ GB_GUARDED_BY(mu_);
};

}  // namespace

InProcessClient::InProcessClient(Options opts)
    : opts_(std::move(opts)),
      scheduler_([&] {
        core::ScanScheduler::Options sched;
        sched.workers = std::max<std::size_t>(opts_.workers, 1);
        sched.start_paused = opts_.start_paused;
        sched.metrics = opts_.metrics;
        return sched;
      }()) {
  for (const auto& [tenant, weight] : opts_.tenant_weights) {
    scheduler_.set_tenant_weight(tenant, weight);
  }
}

support::StatusOr<JobHandle> InProcessClient::submit(const JobSpec& spec) {
  if (!opts_.resolve_machine) {
    return support::Status::failed_precondition(
        "client: resolve_machine unset");
  }
  machine::Machine* machine = opts_.resolve_machine(spec.machine_id);
  if (machine == nullptr) {
    return support::Status::not_found("client: unknown machine '" +
                                      spec.machine_id + "'");
  }
  core::JobSpec job;
  job.machine = machine;
  job.tenant = spec.tenant;
  job.priority = spec.priority;
  job.kind = spec.kind;
  job.config = spec.to_scan_config();
  if (spec.trace_id != 0) {
    job.trace = obs::TraceContext{spec.trace_id, spec.parent_span_id};
  }
  auto span = obs::default_tracer().span("client.submit", "client");
  support::StatusOr<core::ScanJob> handle = scheduler_.submit(std::move(job));
  if (!handle.ok()) return handle.status();
  // The scheduler derived the job's context from the assigned id (or
  // took the caller's override) — rejoin it now that the id is known.
  span.adopt_context(spec.trace_id != 0
                         ? obs::TraceContext{spec.trace_id,
                                             spec.parent_span_id}
                         : obs::TraceContext::for_job(handle->id()));
  span.arg("job", std::to_string(handle->id()));
  return JobHandle(
      std::make_shared<InProcessHandle>(std::move(handle).value()));
}

support::StatusOr<std::string> InProcessClient::stats_json() {
  return scheduler_.stats().to_json();
}

// --- wire transport ---------------------------------------------------------

namespace internal {

/// One wire connection, shared by the client and every handle it
/// issued. RPCs hold `mu` for their whole request/reply exchange (a
/// result stream included), so frames never interleave.
struct WireConnection {
  explicit WireConnection(std::shared_ptr<daemon::Transport> t)
      : transport(std::move(t)), framer(*transport) {}

  support::Mutex mu;
  std::shared_ptr<daemon::Transport> transport;
  daemon::Framer framer GB_GUARDED_BY(mu);
  /// Set on the first transport/protocol failure; later RPCs fail fast.
  bool broken GB_GUARDED_BY(mu) = false;

  /// Sends `request` and reads one reply frame. Caller holds mu.
  [[nodiscard]] support::StatusOr<std::vector<std::byte>> roundtrip_locked(
      const std::vector<std::byte>& request) GB_REQUIRES(mu) {
    if (broken) {
      return support::Status::unavailable("client: connection is broken");
    }
    // Frame I/O under mu is the design, not an accident: the connection
    // lock exists precisely to serialize request/reply pairs on one
    // socket. Releasing it mid-roundtrip would interleave frames.
    // gb-lint: allow(blocking-under-lock)
    if (support::Status s = framer.write_frame(request); !s.ok()) {
      broken = true;
      return s;
    }
    // gb-lint: allow(blocking-under-lock)
    support::StatusOr<std::vector<std::byte>> reply = framer.read_frame();
    if (!reply.ok()) broken = true;
    return reply;
  }
};

}  // namespace internal

namespace {

using internal::WireConnection;

/// Interprets a reply frame: expected verb -> its payload; kErrorReply
/// -> the server's error as this RPC's status; anything else corrupt.
support::StatusOr<std::vector<std::byte>> expect_verb(
    support::StatusOr<std::vector<std::byte>> frame, daemon::Verb want) {
  if (!frame.ok()) return frame.status();
  support::StatusOr<daemon::Verb> verb = daemon::decode_verb(*frame);
  if (!verb.ok()) return verb.status();
  if (*verb == daemon::Verb::kErrorReply) {
    support::StatusOr<daemon::ErrorReply> err =
        daemon::decode_error_reply(*frame);
    if (!err.ok()) return err.status();
    return err->error;
  }
  if (*verb != want) {
    return support::Status::corrupt("client: unexpected reply verb");
  }
  return frame;
}

class DaemonHandle final : public internal::HandleImpl {
 public:
  DaemonHandle(std::shared_ptr<WireConnection> conn, std::uint64_t id,
               obs::TraceContext ctx)
      : conn_(std::move(conn)), id_(id), ctx_(ctx) {}

  [[nodiscard]] std::uint64_t id() const override { return id_; }

  const JobResult& wait() override {
    support::MutexLock lk(mu_);
    if (cached_) return result_;
    result_ = fetch_result();
    cached_ = true;
    return result_;
  }

  const JobResult* try_result() override {
    {
      support::MutexLock lk(mu_);
      if (cached_) return &result_;
    }
    support::StatusOr<daemon::PollReply> poll = poll_rpc();
    if (!poll.ok() || !poll->status.ok() || !poll->view.finished) {
      return nullptr;
    }
    return &wait();  // terminal: the result RPC returns immediately
  }

  bool cancel() override {
    support::MutexLock conn_lk(conn_->mu);
    support::StatusOr<std::vector<std::byte>> frame = expect_verb(
        conn_->roundtrip_locked(daemon::encode_cancel(id_)),
        daemon::Verb::kCancelReply);
    if (!frame.ok()) return false;
    support::StatusOr<daemon::CancelReply> reply =
        daemon::decode_cancel_reply(*frame);
    return reply.ok() && reply->status.ok() && reply->cancelled;
  }

  [[nodiscard]] core::JobProgress progress() override {
    support::StatusOr<daemon::PollReply> poll = poll_rpc();
    core::JobProgress progress;
    if (poll.ok() && poll->status.ok()) {
      progress.phase = poll->view.phase;
      progress.tasks_done = poll->view.tasks_done;
      progress.tasks_total = poll->view.tasks_total;
    }
    return progress;
  }

 private:
  support::StatusOr<daemon::PollReply> poll_rpc() {
    support::MutexLock conn_lk(conn_->mu);
    support::StatusOr<std::vector<std::byte>> frame =
        expect_verb(conn_->roundtrip_locked(daemon::encode_poll(id_)),
                    daemon::Verb::kPollReply);
    if (!frame.ok()) return frame.status();
    return daemon::decode_poll_reply(*frame);
  }

  /// The blocking stream-result RPC: header, then chunks until `last`.
  JobResult fetch_result() {
    JobResult out;
    // The wait is part of the job's story: one client.wait span, under
    // the job's root context, covering RPC + stream reassembly.
    obs::TraceContextScope trace_scope(ctx_);
    auto span = obs::default_tracer().span("client.wait", "client");
    span.arg("job", std::to_string(id_));
    support::MutexLock conn_lk(conn_->mu);
    support::StatusOr<std::vector<std::byte>> frame = expect_verb(
        conn_->roundtrip_locked(daemon::encode_result(id_)),
        daemon::Verb::kResultReply);
    if (!frame.ok()) {
      out.status = frame.status();
      return out;
    }
    support::StatusOr<daemon::ResultReply> header =
        daemon::decode_result_reply(*frame);
    if (!header.ok()) {
      out.status = header.status();
      conn_->broken = true;
      return out;
    }
    if (!header->status.ok()) {
      out.status = header->status;
      return out;
    }
    support::StatusOr<std::string> json =
        daemon::read_chunked(conn_->framer, header->total_bytes);
    if (!json.ok()) {
      conn_->broken = true;
      out.status = json.status();
      return out;
    }
    out.report_json = std::move(json).value();
    return out;
  }

  std::shared_ptr<WireConnection> conn_;
  std::uint64_t id_;
  obs::TraceContext ctx_;
  support::Mutex mu_;
  bool cached_ GB_GUARDED_BY(mu_) = false;
  JobResult result_ GB_GUARDED_BY(mu_);
};

}  // namespace

DaemonClient::DaemonClient(std::shared_ptr<daemon::Transport> connection)
    : conn_(std::make_shared<internal::WireConnection>(std::move(connection))) {
}

DaemonClient::~DaemonClient() { conn_->transport->close(); }

support::StatusOr<JobHandle> DaemonClient::submit(const JobSpec& spec) {
  // The submit span can only join the job's trace once the reply names
  // the id (the daemon derives the same context from that id — no ids
  // cross the wire backwards).
  auto span = obs::default_tracer().span("client.submit", "client");
  support::MutexLock lk(conn_->mu);
  support::StatusOr<std::vector<std::byte>> frame =
      expect_verb(conn_->roundtrip_locked(daemon::encode_submit(spec)),
                  daemon::Verb::kSubmitReply);
  if (!frame.ok()) return frame.status();
  support::StatusOr<daemon::SubmitReply> reply =
      daemon::decode_submit_reply(*frame);
  if (!reply.ok()) {
    conn_->broken = true;
    return reply.status();
  }
  if (!reply->status.ok()) return reply->status;
  const obs::TraceContext ctx =
      spec.trace_id != 0
          ? obs::TraceContext{spec.trace_id, spec.parent_span_id}
          : obs::TraceContext::for_job(reply->job_id);
  span.adopt_context(ctx);
  span.arg("job", std::to_string(reply->job_id));
  return JobHandle(std::make_shared<DaemonHandle>(conn_, reply->job_id, ctx));
}

JobHandle DaemonClient::attach(std::uint64_t job_id) {
  // Re-attachment derives the default context; a submit that overrode
  // its trace ids keeps them daemon-side (kTrace still finds them).
  return JobHandle(std::make_shared<DaemonHandle>(
      conn_, job_id, obs::TraceContext::for_job(job_id)));
}

support::StatusOr<daemon::StatsReply> DaemonClient::stats_rpc() {
  support::MutexLock lk(conn_->mu);
  support::StatusOr<std::vector<std::byte>> frame =
      expect_verb(conn_->roundtrip_locked(daemon::encode_stats()),
                  daemon::Verb::kStatsReply);
  if (!frame.ok()) return frame.status();
  support::StatusOr<daemon::StatsReplyHeader> header =
      daemon::decode_stats_reply(*frame);
  if (!header.ok()) {
    conn_->broken = true;
    return header.status();
  }
  if (!header->status.ok()) return header->status;
  support::StatusOr<std::string> blob = daemon::read_chunked(
      conn_->framer, header->stats_bytes + header->metrics_bytes);
  if (!blob.ok()) {
    conn_->broken = true;
    return blob.status();
  }
  daemon::StatsReply reply;
  reply.stats_json = blob->substr(0, header->stats_bytes);
  reply.metrics_text = blob->substr(header->stats_bytes);
  return reply;
}

support::StatusOr<std::string> DaemonClient::stats_json() {
  support::StatusOr<daemon::StatsReply> reply = stats_rpc();
  if (!reply.ok()) return reply.status();
  return std::move(reply->stats_json);
}

support::StatusOr<std::string> DaemonClient::metrics_text() {
  support::StatusOr<daemon::StatsReply> reply = stats_rpc();
  if (!reply.ok()) return reply.status();
  return std::move(reply->metrics_text);
}

support::StatusOr<std::vector<obs::TraceEvent>> DaemonClient::trace(
    std::uint64_t job_id) {
  support::MutexLock lk(conn_->mu);
  support::StatusOr<std::vector<std::byte>> frame =
      expect_verb(conn_->roundtrip_locked(daemon::encode_trace(job_id)),
                  daemon::Verb::kTraceReply);
  if (!frame.ok()) return frame.status();
  support::StatusOr<daemon::TraceReply> header =
      daemon::decode_trace_reply(*frame);
  if (!header.ok()) {
    conn_->broken = true;
    return header.status();
  }
  if (!header->status.ok()) return header->status;
  support::StatusOr<std::string> blob =
      daemon::read_chunked(conn_->framer, header->total_bytes);
  if (!blob.ok()) {
    conn_->broken = true;
    return blob.status();
  }
  support::StatusOr<std::vector<obs::TraceEvent>> events =
      daemon::decode_trace_events(*blob);
  if (!events.ok()) conn_->broken = true;
  return events;
}

support::StatusOr<std::string> DaemonClient::health_json() {
  support::MutexLock lk(conn_->mu);
  support::StatusOr<std::vector<std::byte>> frame =
      expect_verb(conn_->roundtrip_locked(daemon::encode_health()),
                  daemon::Verb::kHealthReply);
  if (!frame.ok()) return frame.status();
  support::StatusOr<daemon::HealthReply> reply =
      daemon::decode_health_reply(*frame);
  if (!reply.ok()) {
    conn_->broken = true;
    return reply.status();
  }
  if (!reply->status.ok()) return reply->status;
  return std::move(reply->health_json);
}

std::vector<obs::TraceEvent> merge_trace_events(
    std::vector<obs::TraceEvent> daemon_events,
    std::vector<obs::TraceEvent> local_events) {
  // Identity key: instants share their parent's span id, so the span id
  // alone would collapse distinct markers.
  const auto key = [](const obs::TraceEvent& e) {
    return std::to_string(e.span_id) + '/' + std::to_string(e.ts_us) + '/' +
           e.ph + ('/' + e.name);
  };
  std::map<std::string, std::size_t> by_span;
  for (std::size_t i = 0; i < daemon_events.size(); ++i) {
    by_span.emplace(key(daemon_events[i]), i);
  }
  for (obs::TraceEvent& e : local_events) {
    const auto it = by_span.find(key(e));
    if (it != by_span.end()) {
      // Same span both sides: the transport is in-process and the two
      // "processes" share one tracer — this span was recorded locally,
      // so it keeps its local pid.
      daemon_events[it->second].pid = e.pid;
      continue;
    }
    e.pid = 1;
    daemon_events.push_back(std::move(e));
  }
  return daemon_events;
}

std::string normalized_report_json(std::string_view report_json) {
  return core::normalize_report_json(report_json);
}

}  // namespace gb::client
