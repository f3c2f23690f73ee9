#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/metrics.h"  // internal::thread_slot / kSlots
#include "support/strings.h"

namespace gb::obs {

namespace {

/// Stable, human-friendly thread id for trace tracks: the order in which
/// threads first record an event.
std::uint32_t thread_track_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// The propagated per-thread context slot TraceContextScope installs
/// into and spans read from.
TraceContext& thread_context() {
  thread_local TraceContext ctx;
  return ctx;
}

/// splitmix64 finalizer: the deterministic id derivation. Any two
/// distinct job ids map to distinct, well-mixed 64-bit ids.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::string hex_id(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceContext

TraceContext TraceContext::for_job(std::uint64_t job_id) {
  TraceContext ctx;
  ctx.trace_id = splitmix64(job_id ^ 0x4742545241434531ull);  // "GBTRACE1"
  if (ctx.trace_id == 0) ctx.trace_id = 1;
  ctx.span_id = splitmix64(job_id ^ 0x474253504A4F4231ull);  // "GBSPJOB1"
  if (ctx.span_id == 0) ctx.span_id = 1;
  return ctx;
}

TraceContext current_trace_context() { return thread_context(); }

TraceContextScope::TraceContextScope(TraceContext ctx)
    : prev_(thread_context()) {
  thread_context() = ctx;
}

TraceContextScope::~TraceContextScope() { thread_context() = prev_; }

// ---------------------------------------------------------------------------
// ScopedSpan

ScopedSpan::ScopedSpan(Tracer* tracer, std::string_view name,
                       std::string_view cat, std::uint64_t start_us)
    : tracer_(tracer), name_(name), cat_(cat), start_us_(start_us) {
  const TraceContext enclosing = thread_context();
  ctx_.trace_id = enclosing.trace_id;
  ctx_.span_id = tracer_->next_span_id();
  parent_ = enclosing.span_id;
  prev_ = enclosing;
  // Same-thread nested spans parent-link here until this span closes.
  thread_context() = ctx_;
}

void ScopedSpan::arg(std::string_view key, std::string_view value) {
  if (tracer_ == nullptr) return;
  args_.emplace_back(std::string(key), std::string(value));
}

void ScopedSpan::adopt_context(const TraceContext& ctx) {
  if (tracer_ == nullptr) return;
  ctx_.trace_id = ctx.trace_id;
  parent_ = ctx.span_id;
  // If this span is the thread's current parent, refresh the installed
  // slot too, so later same-thread children inherit the adopted trace.
  if (thread_context().span_id == ctx_.span_id) thread_context() = ctx_;
}

void ScopedSpan::finish() {
  if (tracer_ == nullptr) return;
  thread_context() = prev_;
  TraceEvent e;
  e.name = std::move(name_);
  e.cat = std::move(cat_);
  e.trace_id = ctx_.trace_id;
  e.span_id = ctx_.span_id;
  e.parent_span_id = parent_;
  e.ts_us = start_us_;
  e.dur_us = tracer_->now_us() - start_us_;
  e.tid = thread_track_id();
  e.ph = 'X';
  e.args = std::move(args_);
  tracer_->record(std::move(e));
  tracer_ = nullptr;
}

// ---------------------------------------------------------------------------
// Tracer

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  buffers_.reserve(internal::kSlots);
  for (std::size_t i = 0; i < internal::kSlots; ++i) {
    buffers_.push_back(std::make_unique<Buffer>());
  }
}

std::uint64_t Tracer::now_us() const {
  return to_us(std::chrono::steady_clock::now());
}

std::uint64_t Tracer::to_us(std::chrono::steady_clock::time_point t) const {
  if (t <= epoch_) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_)
          .count());
}

std::uint64_t Tracer::next_span_id() {
  return next_span_.fetch_add(1, std::memory_order_relaxed);
}

ScopedSpan Tracer::span(std::string_view name, std::string_view cat) {
  if (!enabled()) return ScopedSpan();
  return ScopedSpan(this, name, cat, now_us());
}

void Tracer::instant(std::string_view name, std::string_view cat) {
  if (!enabled()) return;
  const TraceContext ctx = thread_context();
  TraceEvent e;
  e.name = std::string(name);
  e.cat = std::string(cat);
  e.trace_id = ctx.trace_id;
  e.parent_span_id = ctx.span_id;
  e.ts_us = now_us();
  e.tid = thread_track_id();
  e.ph = 'i';
  record(std::move(e));
}

void Tracer::record_span(std::string_view name, std::string_view cat,
                         const TraceContext& ctx,
                         std::chrono::steady_clock::time_point start,
                         std::chrono::steady_clock::time_point end) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = std::string(name);
  e.cat = std::string(cat);
  e.trace_id = ctx.trace_id;
  e.span_id = next_span_id();
  e.parent_span_id = ctx.span_id;
  e.ts_us = to_us(start);
  e.dur_us = to_us(end) - e.ts_us;
  e.tid = thread_track_id();
  e.ph = 'X';
  record(std::move(e));
}

void Tracer::record(TraceEvent e) {
  Buffer& buf = *buffers_[internal::thread_slot()];
  support::MutexLock lk(buf.mu);
  buf.events.push_back(std::move(e));
}

void Tracer::clear() {
  for (auto& buf : buffers_) {
    support::MutexLock lk(buf->mu);
    buf->events.clear();
  }
}

std::size_t Tracer::event_count() const {
  std::size_t n = 0;
  for (const auto& buf : buffers_) {
    support::MutexLock lk(buf->mu);
    n += buf->events.size();
  }
  return n;
}

std::vector<TraceEvent> Tracer::snapshot(std::uint64_t trace_id) const {
  std::vector<TraceEvent> events;
  for (const auto& buf : buffers_) {
    support::MutexLock lk(buf->mu);
    for (const TraceEvent& e : buf->events) {
      if (trace_id == 0 || e.trace_id == trace_id) events.push_back(e);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.dur_us > b.dur_us;  // parents before children
                   });
  return events;
}

std::string Tracer::to_chrome_json() const {
  return chrome_trace_json(snapshot());
}

std::string chrome_trace_json(std::vector<TraceEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.dur_us > b.dur_us;  // parents before children
                   });

  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":";
    os << json_quote(e.name);
    os << ",\"cat\":";
    os << json_quote(e.cat);
    os << ",\"ph\":\"" << e.ph << "\",\"ts\":" << e.ts_us;
    if (e.ph == 'X') os << ",\"dur\":" << e.dur_us;
    if (e.ph == 'i') os << ",\"s\":\"t\"";
    os << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid;
    const bool traced = e.trace_id != 0;
    if (!e.args.empty() || traced) {
      os << ",\"args\":{";
      bool fa = true;
      for (const auto& [k, v] : e.args) {
        if (!fa) os << ',';
        fa = false;
        os << json_quote(k);
        os << ':';
        os << json_quote(v);
      }
      if (traced) {
        if (!fa) os << ',';
        os << "\"trace_id\":\"" << hex_id(e.trace_id) << "\"";
        if (e.span_id != 0) {
          os << ",\"span_id\":\"" << hex_id(e.span_id) << "\"";
        }
        if (e.parent_span_id != 0) {
          os << ",\"parent_span_id\":\"" << hex_id(e.parent_span_id) << "\"";
        }
      }
      os << '}';
    }
    os << '}';
  }
  os << "],\"displayTimeUnit\":\"ms\"}";
  return os.str();
}

Tracer& default_tracer() {
  // Leaked on purpose: spans may close during static destruction.
  // gb-lint: allow(naked-new)
  static Tracer* tracer = new Tracer();
  return *tracer;
}

}  // namespace gb::obs
