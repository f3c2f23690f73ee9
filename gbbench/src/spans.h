// Benchmark-side tracing: spans recorded around the calls into each
// layer, from the benchmark's own code.
//
// TracedScanner decorates one core::ResourceScanner. Registered on an
// engine built with ResourceMask::kNone, the decorated providers run the
// engine's unchanged task graph on its own pool while each high_scan,
// ViewDef::run and diff call is timed here. No span is recorded inside
// the library, and obs::default_tracer() stays off.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/resource_scanner.h"
#include "machine/profile.h"

namespace gbbench {

using Clock = std::chrono::steady_clock;

/// One timed call. Times are milliseconds since the recorder's epoch.
struct Span {
  std::string name;       // the per-layer metric it feeds, or "op"
  std::uint64_t op = 0;   // operation id; spans of one operation share it
  long parent = -1;       // index of the parent span, -1 for an op root
  double start_ms = 0;
  double end_ms = -1;     // -1 while open
  gb::machine::ScanWork work;  // cost-model work the call's result charged
};

/// One JSON object per line: name, op, parent, start_ms, end_ms.
std::string spans_jsonl(const std::vector<Span>& spans);

/// Thread-safe in-memory span store. Operations run one at a time; the
/// spans inside one may close on any pool thread.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens the root span of the next operation (caller's thread).
  void begin_op();
  /// Closes the current operation's root span.
  void end_op();
  /// Opens a span under the current operation's root; returns its index.
  /// Outside an operation the span is kept under op 0, which no
  /// per-layer value reads.
  std::size_t open(const std::string& name);
  void close(std::size_t index, const gb::machine::ScanWork* work = nullptr);
  /// Adds `value` to a counter of the current operation (op 0 outside
  /// one).
  void add(const std::string& counter, double value);

  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::map<std::uint64_t, std::map<std::string, double>>
  counters() const;
  [[nodiscard]] std::string to_jsonl() const { return spans_jsonl(spans()); }

 private:
  [[nodiscard]] double now_ms() const;

  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::map<std::string, double>> counters_;
  std::uint64_t op_ = 0;
  long root_ = -1;
};

/// RAII span: closes on scope exit, exceptions included.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name)
      : rec_(rec), index_(rec.open(name)) {}
  ~ScopedSpan() { rec_.close(index_, work_ ? &*work_ : nullptr); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_work(const gb::machine::ScanWork& w) { work_ = w; }

 private:
  SpanRecorder& rec_;
  std::size_t index_;
  std::optional<gb::machine::ScanWork> work_;  // a copy: the result dies first
};

class TracedScanner final : public gb::core::ResourceScanner {
 public:
  TracedScanner(std::unique_ptr<gb::core::ResourceScanner> inner,
                SpanRecorder& rec)
      : inner_(std::move(inner)), rec_(rec) {}

  gb::core::ResourceType type() const override { return inner_->type(); }
  gb::support::StatusOr<gb::core::ScanResult> high_scan(
      const gb::core::ScanTaskContext& t,
      const gb::winapi::Ctx& ctx) const override;
  std::vector<ViewDef> trusted_views(
      gb::core::ScanPhase phase,
      const gb::core::ScanConfig& cfg) const override;
  gb::core::DiffReport diff(
      const gb::core::ScanTaskContext& t,
      const std::vector<gb::core::ViewInput>& views) const override;

 private:
  std::unique_ptr<gb::core::ResourceScanner> inner_;
  SpanRecorder& rec_;
};

/// Every core::default_scanners(kAll) provider, decorated.
std::vector<std::unique_ptr<gb::core::ResourceScanner>> traced_scanners(
    SpanRecorder& rec);

/// Layer metric a trusted view's span feeds ("ntfs.mft_view_ms", ...).
std::string view_metric(gb::core::ResourceType type, gb::core::ScanPhase phase,
                        const std::string& view_id);

/// Per-layer values derived from the spans of every recorded operation:
/// per-operation sums by span name, engine self time, view wait, charged
/// work and counters, each reduced to its median over operations.
std::map<std::string, double> layer_values(const SpanRecorder& rec);

}  // namespace gbbench
