#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "support/strings.h"

namespace gb::obs {

namespace internal {

std::size_t thread_slot() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kSlots;
  return slot;
}

}  // namespace internal

namespace {

/// Numbers render as integers when they are one (the common case for
/// counters) and as shortest-ish decimal otherwise.
std::string format_value(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// Prometheus label block: {k="v",...} or empty when there are no labels.
/// `extra` appends one more pair (used for the histogram `le` label).
std::string prom_labels(const Labels& labels,
                        const std::pair<std::string, std::string>* extra) {
  if (labels.empty() && extra == nullptr) return "";
  std::string out = "{";
  bool first = true;
  auto emit = [&](const std::string& k, const std::string& v) {
    if (!first) out += ",";
    first = false;
    out += k;
    out += "=\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out.push_back(c);
    }
    out += "\"";
  };
  for (const auto& [k, v] : labels) emit(k, v);
  if (extra != nullptr) emit(extra->first, extra->second);
  out += "}";
  return out;
}

std::string bound_label(double bound) {
  if (std::isinf(bound)) return "+Inf";
  return format_value(bound);
}

}  // namespace

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  const std::size_t n = bounds_.size() + 1;  // + overflow bucket
  for (auto& slot : slots_) {
    slot.buckets = std::make_unique<std::atomic<std::uint64_t>[]>(n);
    for (std::size_t i = 0; i < n; ++i) {
      slot.buckets[i].store(0, std::memory_order_relaxed);
    }
  }
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto bucket =
      static_cast<std::size_t>(std::distance(bounds_.begin(), it));
  Slot& slot = slots_[internal::thread_slot()];
  slot.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  slot.sum.fetch_add(v, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1, 0);
  for (const auto& slot : slots_) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] += slot.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

double Histogram::sum() const {
  double total = 0;
  for (const auto& slot : slots_) {
    total += slot.sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto c : bucket_counts()) total += c;
  return total;
}

double Histogram::quantile(double q) const {
  const auto counts = bucket_counts();
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < rank || counts[i] == 0) continue;
    if (i >= bounds_.size()) {
      // Overflow bucket: no finite upper edge to interpolate toward.
      return bounds_.empty() ? 0.0 : bounds_.back();
    }
    const double lower = i == 0 ? 0.0 : bounds_[i - 1];
    const double upper = bounds_[i];
    const double into =
        rank - static_cast<double>(cumulative - counts[i]);
    return lower + (upper - lower) * (into / static_cast<double>(counts[i]));
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

std::vector<double> exponential_buckets(double start, double factor,
                                        std::size_t n) {
  std::vector<double> out;
  out.reserve(n);
  double b = start;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(b);
    b *= factor;
  }
  return out;
}

const std::vector<double>& default_latency_buckets() {
  // 10us .. ~100s, one decade per two buckets.
  static const std::vector<double> kBuckets =
      exponential_buckets(1e-5, 10.0, 8);
  return kBuckets;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry::Entry& MetricsRegistry::find_or_create(std::string_view name,
                                                        Labels& labels,
                                                        Kind kind) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key += '\0';
    key += k;
    key += '\0';
    key += v;
  }
  // Caller holds mu_: both the index lookup and the lazy payload
  // creation in the accessors below must be one critical section, or
  // two threads minting the same metric race on the payload pointer.
  const auto it = index_.find(key);
  if (it != index_.end()) {
    Entry& e = *entries_[it->second];
    if (e.kind != kind) {
      throw std::logic_error("metric '" + std::string(name) +
                             "' re-registered as a different kind");
    }
    return e;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->labels = std::move(labels);
  entry->kind = kind;
  index_.emplace(std::move(key), entries_.size());
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

Counter& MetricsRegistry::counter(std::string_view name, Labels labels) {
  support::MutexLock lk(mu_);
  Entry& e = find_or_create(name, labels, Kind::kCounter);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, Labels labels) {
  support::MutexLock lk(mu_);
  Entry& e = find_or_create(name, labels, Kind::kGauge);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> upper_bounds,
                                      Labels labels) {
  support::MutexLock lk(mu_);
  Entry& e = find_or_create(name, labels, Kind::kHistogram);
  if (!e.histogram) {
    e.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  } else if (e.histogram->upper_bounds().size() != upper_bounds.size() ||
             !std::equal(upper_bounds.begin(), upper_bounds.end(),
                         e.histogram->upper_bounds().begin())) {
    // Tolerate unsorted re-requests of the same bounds set.
    std::vector<double> sorted = upper_bounds;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    if (sorted != e.histogram->upper_bounds()) {
      throw std::logic_error("histogram '" + std::string(name) +
                             "' re-registered with different buckets");
    }
  }
  return *e.histogram;
}

std::size_t MetricsRegistry::size() const {
  support::MutexLock lk(mu_);
  return entries_.size();
}

void MetricsRegistry::set_help(std::string_view name, std::string_view help) {
  if (help.empty()) return;
  support::MutexLock lk(mu_);
  help_.emplace(std::string(name), std::string(help));  // first text wins
}

std::string MetricsRegistry::to_prometheus_text() const {
  support::MutexLock lk(mu_);
  // The exposition format wants every series of a family under one
  // # TYPE line, but labelled series are created interleaved with other
  // metrics — so group by name (stable: creation order within a family).
  std::vector<const Entry*> ordered;
  ordered.reserve(entries_.size());
  for (const auto& ep : entries_) ordered.push_back(ep.get());
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Entry* a, const Entry* b) {
                     return a->name < b->name;
                   });
  std::ostringstream os;
  std::string last_family;
  for (const Entry* ep : ordered) {
    const Entry& e = *ep;
    if (e.name != last_family) {
      if (const auto help = help_.find(e.name); help != help_.end()) {
        // HELP escaping per the exposition format: backslash and
        // newline only.
        os << "# HELP " << e.name << ' ';
        for (const char c : help->second) {
          if (c == '\\') os << "\\\\";
          else if (c == '\n') os << "\\n";
          else os << c;
        }
        os << '\n';
      }
      const char* type = e.kind == Kind::kCounter   ? "counter"
                         : e.kind == Kind::kGauge   ? "gauge"
                                                    : "histogram";
      os << "# TYPE " << e.name << ' ' << type << '\n';
      last_family = e.name;
    }
    switch (e.kind) {
      case Kind::kCounter:
        os << e.name << prom_labels(e.labels, nullptr) << ' '
           << format_value(e.counter->value()) << '\n';
        break;
      case Kind::kGauge:
        os << e.name << prom_labels(e.labels, nullptr) << ' '
           << format_value(e.gauge->value()) << '\n';
        break;
      case Kind::kHistogram: {
        const auto& bounds = e.histogram->upper_bounds();
        const auto counts = e.histogram->bucket_counts();
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i <= bounds.size(); ++i) {
          cumulative += counts[i];
          const double bound = i < bounds.size()
                                   ? bounds[i]
                                   : std::numeric_limits<double>::infinity();
          const std::pair<std::string, std::string> le{"le",
                                                       bound_label(bound)};
          os << e.name << "_bucket" << prom_labels(e.labels, &le) << ' '
             << cumulative << '\n';
        }
        os << e.name << "_sum" << prom_labels(e.labels, nullptr) << ' '
           << format_value(e.histogram->sum()) << '\n';
        os << e.name << "_count" << prom_labels(e.labels, nullptr) << ' '
           << cumulative << '\n';
        break;
      }
    }
  }
  return os.str();
}

std::string MetricsRegistry::to_json() const {
  support::MutexLock lk(mu_);
  std::ostringstream os;
  os << '[';
  bool first = true;
  for (const auto& ep : entries_) {
    const Entry& e = *ep;
    if (!first) os << ',';
    first = false;
    os << "{\"name\":" << json_quote(e.name) << ",\"kind\":\""
       << (e.kind == Kind::kCounter   ? "counter"
           : e.kind == Kind::kGauge   ? "gauge"
                                      : "histogram")
       << "\",\"labels\":{";
    bool first_label = true;
    for (const auto& [k, v] : e.labels) {
      if (!first_label) os << ',';
      first_label = false;
      os << json_quote(k) << ':' << json_quote(v);
    }
    os << '}';
    switch (e.kind) {
      case Kind::kCounter:
        os << ",\"value\":" << format_value(e.counter->value());
        break;
      case Kind::kGauge:
        os << ",\"value\":" << format_value(e.gauge->value());
        break;
      case Kind::kHistogram: {
        os << ",\"bounds\":[";
        bool fb = true;
        for (const double b : e.histogram->upper_bounds()) {
          if (!fb) os << ',';
          fb = false;
          os << format_value(b);
        }
        os << "],\"counts\":[";
        fb = true;
        for (const auto c : e.histogram->bucket_counts()) {
          if (!fb) os << ',';
          fb = false;
          os << c;
        }
        os << "],\"sum\":" << format_value(e.histogram->sum())
           << ",\"count\":" << e.histogram->count();
        break;
      }
    }
    os << '}';
  }
  os << ']';
  return os.str();
}

MetricsRegistry& default_registry() {
  // Leaked on purpose: counters outlive every static destructor that
  // might still tick them at exit.  gb-lint: allow(naked-new)
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace gb::obs
