#include "spans.h"

#include <set>
#include <sstream>

#include "core/scan_engine.h"
#include "stats.h"

namespace gbbench {

using gb::core::ResourceType;
using gb::core::ScanPhase;

namespace {

const char* family(ResourceType type) {
  switch (type) {
    case ResourceType::kFile: return "files";
    case ResourceType::kAsepHook: return "aseps";
    case ResourceType::kProcess: return "processes";
    case ResourceType::kModule: return "modules";
  }
  return "unknown";
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Spans of views (API and trusted), as opposed to diff and report spans.
bool is_view_span(const std::string& name) {
  return starts_with(name, "winapi.") || starts_with(name, "ntfs.") ||
         starts_with(name, "registry.") || starts_with(name, "kernel.");
}

}  // namespace

// --- SpanRecorder -----------------------------------------------------------

double SpanRecorder::now_ms() const {
  return std::chrono::duration<double, std::milli>(Clock::now() - epoch_)
      .count();
}

void SpanRecorder::begin_op() {
  const double t = now_ms();
  std::lock_guard<std::mutex> lock(mu_);
  ++op_;
  root_ = static_cast<long>(spans_.size());
  spans_.push_back(Span{"op", op_, -1, t, -1, {}});
}

void SpanRecorder::end_op() {
  const double t = now_ms();
  std::lock_guard<std::mutex> lock(mu_);
  if (root_ >= 0) spans_[static_cast<std::size_t>(root_)].end_ms = t;
  root_ = -1;
}

std::size_t SpanRecorder::open(const std::string& name) {
  const double t = now_ms();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, root_ < 0 ? 0 : op_, root_, t, -1, {}});
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index,
                         const gb::machine::ScanWork* work) {
  const double t = now_ms();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].end_ms = t;
  if (work != nullptr) spans_[index].work = *work;
}

void SpanRecorder::add(const std::string& counter, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[root_ < 0 ? 0 : op_][counter] += value;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::uint64_t, std::map<std::string, double>> SpanRecorder::counters()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::string spans_jsonl(const std::vector<Span>& spans) {
  std::ostringstream os;
  for (const Span& s : spans) {
    os << "{\"name\":\"" << s.name << "\",\"op\":" << s.op
       << ",\"parent\":" << s.parent << ",\"start_ms\":" << s.start_ms
       << ",\"end_ms\":" << s.end_ms << "}\n";
  }
  return os.str();
}

// --- TracedScanner ----------------------------------------------------------

std::string view_metric(ResourceType type, ScanPhase phase,
                        const std::string& view_id) {
  const bool outside = phase == ScanPhase::kOutside;
  switch (type) {
    case ResourceType::kFile:
      if (view_id == "index") return "ntfs.index_view_ms";
      if (view_id == "mft") return "ntfs.mft_view_ms";
      if (view_id == "disk") return "ntfs.disk_view_ms";
      break;
    case ResourceType::kAsepHook:
      if (view_id == "hive") {
        return outside ? "registry.outside_hive_ms" : "registry.hive_view_ms";
      }
      break;
    case ResourceType::kProcess:
      if (view_id == "active-list") return "kernel.active_list_ms";
      if (view_id == "threads") {
        return outside ? "kernel.dump_threads_ms" : "kernel.threads_ms";
      }
      if (view_id == "carve") return "kernel.carve_ms";
      break;
    case ResourceType::kModule:
      if (view_id == "kernel") return "kernel.module_ms";
      if (view_id == "dump") return "kernel.dump_module_ms";
      break;
  }
  return std::string("other.") + family(type) + "." + view_id + "_ms";
}

gb::support::StatusOr<gb::core::ScanResult> TracedScanner::high_scan(
    const gb::core::ScanTaskContext& t, const gb::winapi::Ctx& ctx) const {
  ScopedSpan span(rec_, std::string("winapi.") + family(type()) + "_api_ms");
  auto out = inner_->high_scan(t, ctx);
  if (out.ok()) span.set_work(out->work);
  return out;
}

std::vector<TracedScanner::ViewDef> TracedScanner::trusted_views(
    ScanPhase phase, const gb::core::ScanConfig& cfg) const {
  std::vector<ViewDef> defs = inner_->trusted_views(phase, cfg);
  for (ViewDef& def : defs) {
    const std::string name = view_metric(type(), phase, def.id);
    const bool dump_size = name == "kernel.dump_threads_ms";
    def.run = [run = std::move(def.run), name, dump_size, rec = &rec_](
                  const gb::core::ScanTaskContext& t,
                  const gb::core::OutsideSources* src) {
      ScopedSpan span(*rec, name);
      auto out = run(t, src);
      if (out.ok()) span.set_work(out->work);
      if (dump_size && src != nullptr) {
        rec->add("kernel.dump_bytes",
                 static_cast<double>(src->dump_bytes.size()));
      }
      return out;
    };
  }
  return defs;
}

gb::core::DiffReport TracedScanner::diff(
    const gb::core::ScanTaskContext& t,
    const std::vector<gb::core::ViewInput>& views) const {
  gb::core::DiffReport d;
  {
    ScopedSpan span(rec_, std::string("core.differ.") + family(type()) + "_ms");
    d = inner_->diff(t, views);
  }
  rec_.add("core.differ.findings", static_cast<double>(d.hidden.size()));
  return d;
}

std::vector<std::unique_ptr<gb::core::ResourceScanner>> traced_scanners(
    SpanRecorder& rec) {
  std::vector<std::unique_ptr<gb::core::ResourceScanner>> out;
  for (auto& inner : gb::core::default_scanners(gb::core::ResourceMask::kAll)) {
    out.push_back(std::make_unique<TracedScanner>(std::move(inner), rec));
  }
  return out;
}

// --- per-layer reduction ----------------------------------------------------

std::map<std::string, double> layer_values(const SpanRecorder& rec) {
  struct OpSpans {
    const Span* root = nullptr;
    std::vector<const Span*> children;
  };
  const std::vector<Span> spans = rec.spans();
  std::map<std::uint64_t, OpSpans> ops;
  for (const Span& s : spans) {
    // Op 0 holds calls made outside any operation (session priming);
    // an unclosed span's call threw.
    if (s.op == 0 || s.end_ms < 0) continue;
    OpSpans& o = ops[s.op];
    if (s.parent < 0) {
      o.root = &s;
    } else {
      o.children.push_back(&s);
    }
  }

  std::set<std::string> names;
  std::vector<std::map<std::string, double>> per_op;
  std::vector<double> self, waits, records, bytes;
  for (const auto& [id, o] : ops) {
    if (o.root == nullptr) continue;
    std::map<std::string, double> sums;
    std::vector<Interval> child_intervals;
    double charged_records = 0, charged_bytes = 0;
    for (const Span* c : o.children) {
      sums[c->name] += c->end_ms - c->start_ms;
      names.insert(c->name);
      child_intervals.emplace_back(c->start_ms, c->end_ms);
      if (is_view_span(c->name)) waits.push_back(c->start_ms - o.root->start_ms);
      if (starts_with(c->name, "ntfs.") && ends_with(c->name, "_view_ms")) {
        charged_records += static_cast<double>(c->work.records_visited);
        charged_bytes += static_cast<double>(c->work.bytes_read);
      }
    }
    per_op.push_back(std::move(sums));
    self.push_back(self_time({o.root->start_ms, o.root->end_ms},
                             std::move(child_intervals)));
    records.push_back(charged_records);
    bytes.push_back(charged_bytes);
  }

  std::map<std::string, double> out;
  for (const std::string& name : names) {
    std::vector<double> v;
    for (const auto& sums : per_op) {
      auto it = sums.find(name);
      v.push_back(it == sums.end() ? 0 : it->second);
    }
    out[name] = median(std::move(v));
  }
  if (!per_op.empty()) {
    out["core.engine.self_ms"] = median(self);
    out["support.thread_pool.view_wait_ms"] = median(waits);
    out["ntfs.records_charged"] = median(records);
    out["ntfs.bytes_charged"] = median(bytes);
  }

  const auto counters = rec.counters();
  std::set<std::string> counter_names;
  for (const auto& [op, c] : counters) {
    for (const auto& [name, value] : c) counter_names.insert(name);
  }
  for (const std::string& name : counter_names) {
    std::vector<double> v;
    for (const auto& [id, o] : ops) {
      if (o.root == nullptr) continue;
      auto it = counters.find(id);
      double value = 0;
      if (it != counters.end()) {
        auto c = it->second.find(name);
        if (c != it->second.end()) value = c->second;
      }
      v.push_back(value);
    }
    out[name] = median(std::move(v));
  }
  return out;
}

}  // namespace gbbench
