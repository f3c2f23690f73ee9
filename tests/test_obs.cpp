// gb::obs telemetry layer: metric primitives, the registry and its
// exports, span tracing, and the engine/scheduler integration — plus
// the determinism contract: telemetry never changes report bytes.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

#include "core/scan_engine.h"
#include "core/scan_scheduler.h"
#include "machine/machine.h"
#include "malware/hackerdefender.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/bytes.h"
#include "support/checksum.h"
#include "support/thread_pool.h"

namespace gb {
namespace {

machine::MachineConfig small_config() {
  machine::MachineConfig cfg;
  cfg.synthetic_files = 20;
  cfg.synthetic_registry_keys = 10;
  return cfg;
}

std::string normalize(const std::string& j) {
  return core::normalize_report_json(j);
}

/// True for "gb" followed by two or more "_<lowercase alphanumerics>"
/// words — the metric family naming rule.
bool family_name_ok(std::string_view name) {
  if (!name.starts_with("gb")) return false;
  int words = 0;
  for (std::size_t i = 2; i < name.size(); ++words) {
    if (name[i] != '_') return false;
    const std::size_t start = ++i;
    while (i < name.size() && (std::islower(static_cast<unsigned char>(name[i])) ||
                               std::isdigit(static_cast<unsigned char>(name[i])))) {
      ++i;
    }
    if (i == start) return false;
  }
  return words >= 2;
}

/// `json` with every "metrics" value — a flat object or null — replaced
/// by X.
std::string mask_metrics(std::string json) {
  const std::string key = "\"metrics\":";
  for (std::size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + 1)) {
    const std::size_t value = at + key.size();
    std::size_t end = std::string::npos;
    if (json.compare(value, 4, "null") == 0) {
      end = value + 4;
    } else if (value < json.size() && json[value] == '{') {
      const std::size_t close = json.find('}', value);
      if (close != std::string::npos) end = close + 1;
    }
    if (end != std::string::npos) json.replace(value, end - value, "X");
  }
  return json;
}

TEST(MetricsCounter, ShardedAddsSumAcrossThreads) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr int kAdds = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), double(kThreads) * kAdds);
}

TEST(MetricsGauge, SetAddAndHighWaterMark) {
  obs::Gauge g;
  g.set(4);
  g.add(2);
  EXPECT_EQ(g.value(), 6.0);
  g.max_of(3);  // below: no change
  EXPECT_EQ(g.value(), 6.0);
  g.max_of(9);
  EXPECT_EQ(g.value(), 9.0);
  g.add(-9);
  EXPECT_EQ(g.value(), 0.0);
}

TEST(MetricsHistogram, BucketAssignmentAndAggregates) {
  obs::Histogram h({0.1, 1.0, 10.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);  // overflow bucket
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 55.55);
}

TEST(MetricsHistogram, ExponentialBucketsShape) {
  const auto b = obs::exponential_buckets(1e-5, 10.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1e-5);
  EXPECT_DOUBLE_EQ(b[3], 1e-2);
  EXPECT_FALSE(obs::default_latency_buckets().empty());
}

// The TSan target: every primitive hammered from many threads at once.
// Failure mode is a data-race report, not an assertion.
TEST(MetricsConcurrency, PrimitivesAreRaceFreeUnderContention) {
  obs::MetricsRegistry reg;
  auto& c = reg.counter("gb_test_hammer_total");
  auto& g = reg.gauge("gb_test_hammer_depth");
  auto& h = reg.histogram("gb_test_hammer_seconds", {0.5});
  constexpr int kThreads = 8;
  constexpr int kOps = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        c.inc();
        g.max_of(double(t * kOps + i));
        h.observe(i % 2 == 0 ? 0.1 : 1.0);
      }
    });
  }
  // Concurrent readers against the writers.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      (void)reg.to_prometheus_text();
      (void)h.bucket_counts();
    }
  });
  for (auto& t : threads) t.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(c.value(), double(kThreads) * kOps);
  EXPECT_EQ(h.count(), std::uint64_t{kThreads} * kOps);
  EXPECT_EQ(g.value(), double(kThreads) * kOps - 1);
}

// Regression: lazy payload creation used to happen outside the registry
// mutex, so two threads minting the same metric raced on the pointer.
TEST(MetricsConcurrency, ConcurrentMintOfSameMetricYieldsOneInstance) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8;
  std::vector<obs::Counter*> minted(kThreads, nullptr);
  std::vector<obs::Histogram*> hists(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      minted[t] = &reg.counter("gb_test_mint_total");
      hists[t] = &reg.histogram("gb_test_mint_seconds", {0.1, 1.0});
      minted[t]->inc();
      hists[t]->observe(0.5);
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(minted[t], minted[0]);
    EXPECT_EQ(hists[t], hists[0]);
  }
  EXPECT_EQ(minted[0]->value(), double(kThreads));
  EXPECT_EQ(hists[0]->count(), std::uint64_t{kThreads});
}

TEST(MetricsRegistry, IdentityAndKindChecks) {
  obs::MetricsRegistry reg;
  auto& a = reg.counter("gb_test_x_total");
  auto& b = reg.counter("gb_test_x_total");
  EXPECT_EQ(&a, &b);
  auto& labelled = reg.counter("gb_test_x_total", {{"tenant", "corp"}});
  EXPECT_NE(&a, &labelled);
  EXPECT_THROW((void)reg.gauge("gb_test_x_total"), std::logic_error);
  EXPECT_THROW((void)reg.histogram("gb_test_x_total", {1.0}),
               std::logic_error);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistry, PrometheusTextAndJsonExports) {
  obs::MetricsRegistry reg;
  reg.counter("gb_test_ops_total", {{"tenant", "corp"}}).add(3);
  reg.gauge("gb_test_depth").set(2);
  auto& h = reg.histogram("gb_test_latency_seconds", {0.1, 1.0});
  h.observe(0.05);
  h.observe(5.0);

  const std::string text = reg.to_prometheus_text();
  EXPECT_NE(text.find("# TYPE gb_test_ops_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("gb_test_ops_total{tenant=\"corp\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE gb_test_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gb_test_latency_seconds histogram"),
            std::string::npos);
  // Cumulative buckets: le="1" carries the le="0.1" observation too.
  EXPECT_NE(text.find("gb_test_latency_seconds_bucket{le=\"0.1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("gb_test_latency_seconds_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("gb_test_latency_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("gb_test_latency_seconds_count 2"),
            std::string::npos);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"name\":\"gb_test_ops_total\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":\"corp\""), std::string::npos);
}

TEST(Tracer, DisabledSpansAreInertAndEnabledSpansRecord) {
  obs::Tracer tracer;
  {
    auto off = tracer.span("never");
    off.arg("k", "v");
  }
  EXPECT_EQ(tracer.event_count(), 0u);

  tracer.enable();
  {
    auto outer = tracer.span("outer", "test");
    outer.arg("key", "va\"lue");  // quote must be escaped in the export
    auto inner = tracer.span("inner", "test");
  }
  tracer.instant("mark", "test");
  EXPECT_EQ(tracer.event_count(), 3u);

  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"va\\\"lue\""), std::string::npos);
  // Parents sort before children: outer opened first.
  EXPECT_LT(json.find("\"name\":\"outer\""), json.find("\"name\":\"inner\""));

  tracer.clear();
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_TRUE(tracer.enabled());
}

TEST(PoolInstrumentation, TaskAndLatencyMetricsAccumulate) {
  obs::MetricsRegistry reg;
  support::ThreadPool pool(2);
  pool.instrument(reg);
  std::atomic<int> ran{0};
  pool.parallel_for(64, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 64);
  // The caller drains some indices itself, so not all 64 land in the
  // task counter — but the helper tasks do.
  EXPECT_GT(reg.counter("gb_pool_tasks_total").value(), 0.0);
  EXPECT_NE(reg.to_prometheus_text().find("gb_pool_task_seconds_bucket"),
            std::string::npos);
}

TEST(EngineMetrics, ReportCarriesDeterministicTalliesAndMirrorsRegistry) {
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  obs::MetricsRegistry reg;
  core::ScanConfig cfg;
  cfg.parallelism = 2;
  cfg.metrics = &reg;
  const auto report =
      core::ScanEngine(m, cfg).run({.kind = core::ScanKind::kInside}).value();

  ASSERT_TRUE(report.metrics.has_value());
  EXPECT_GT(report.metrics->provider_scans, 0u);
  EXPECT_EQ(report.metrics->scan_failures, 0u);
  EXPECT_EQ(report.metrics->degraded_diffs, 0u);
  EXPECT_GT(report.metrics->hidden_resources, 0u);  // HackerDefender hides
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"metrics\":{\"provider_scans\":"),
            std::string::npos);

  EXPECT_EQ(reg.counter("gb_engine_provider_scans_total").value(),
            double(report.metrics->provider_scans));
  EXPECT_EQ(reg.counter("gb_engine_hidden_resources_total").value(),
            double(report.metrics->hidden_resources));
  EXPECT_EQ(reg.counter("gb_engine_runs_total", {{"kind", "inside"}}).value(),
            1.0);
}

TEST(EngineMetrics, CollectMetricsOffYieldsNullBlock) {
  machine::Machine m(small_config());
  core::ScanConfig cfg;
  cfg.parallelism = 1;
  cfg.collect_metrics = false;
  const auto report =
      core::ScanEngine(m, cfg).run({.kind = core::ScanKind::kInside}).value();
  EXPECT_FALSE(report.metrics.has_value());
  EXPECT_NE(report.to_json().find("\"metrics\":null"), std::string::npos);
}

TEST(EngineMetrics, CorruptHiveCountsDegradedDiff) {
  machine::Machine m(small_config());
  // Smash the REGF magic of the flushed SOFTWARE hive and keep the
  // engine from re-flushing a good copy — the registry diff degrades.
  m.flush_registry();
  const char* hive = "C:\\windows\\system32\\config\\software";
  auto bytes = m.volume().read_file(hive);
  ASSERT_FALSE(bytes.empty());
  bytes[0] = std::byte{0};
  m.volume().write_file(hive, bytes);

  obs::MetricsRegistry reg;
  core::ScanConfig cfg;
  cfg.parallelism = 1;
  cfg.registry.flush_hives_first = false;
  cfg.metrics = &reg;
  const auto report =
      core::ScanEngine(m, cfg).run({.kind = core::ScanKind::kInside}).value();

  EXPECT_TRUE(report.degraded());
  ASSERT_TRUE(report.metrics.has_value());
  EXPECT_GT(report.metrics->degraded_diffs, 0u);
  EXPECT_GT(report.metrics->scan_failures, 0u);
  EXPECT_GT(reg.counter("gb_engine_degraded_diffs_total").value(), 0.0);
  EXPECT_GT(reg.counter("gb_engine_scan_failures_total").value(), 0.0);
}

TEST(SchedulerMetrics, StatsReadBackFromRegistry) {
  machine::Machine m(small_config());
  obs::MetricsRegistry reg;
  core::ScanScheduler::Options opts;
  opts.workers = 0;  // inline dispatch: fully ordered
  opts.metrics = &reg;
  core::ScanScheduler sched(opts);
  for (const char* tenant : {"a", "a", "b"}) {
    core::JobSpec spec;
    spec.machine = &m;
    spec.tenant = tenant;
    spec.config.resources = core::ResourceMask::kProcesses;
    ASSERT_TRUE(sched.submit(std::move(spec)).ok());
  }
  sched.wait_idle();

  const auto stats = sched.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.served, 3u);
  EXPECT_EQ(stats.cancelled, 0u);
  ASSERT_EQ(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.tenants[0].id, "a");
  EXPECT_EQ(stats.tenants[0].served, 2u);
  EXPECT_EQ(stats.tenants[1].served, 1u);
  EXPECT_GE(stats.max_latency_seconds, 0.0);

  const std::string text = reg.to_prometheus_text();
  EXPECT_NE(text.find("gb_sched_served_total{tenant=\"a\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("gb_sched_dispatched_total 3"), std::string::npos);
  EXPECT_NE(text.find("gb_sched_queue_wait_seconds_count 3"),
            std::string::npos);
}

TEST(Determinism, ReportBytesIdenticalAcrossWorkersAndTracing) {
  auto run = [](std::size_t parallelism, bool tracing) {
    if (tracing) {
      obs::default_tracer().enable();
    } else {
      obs::default_tracer().disable();
    }
    machine::Machine m(small_config());
    malware::install_ghostware<malware::HackerDefender>(m);
    core::ScanConfig cfg;
    cfg.parallelism = parallelism;
    const auto json = normalize(core::ScanEngine(m, cfg)
                                    .run({.kind = core::ScanKind::kInside})
                                    .value()
                                    .to_json());
    obs::default_tracer().disable();
    obs::default_tracer().clear();
    return json;
  };
  const std::string baseline = run(1, false);
  for (const std::size_t p : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    EXPECT_EQ(run(p, false), baseline) << "workers=" << p << " tracing=off";
    EXPECT_EQ(run(p, true), baseline) << "workers=" << p << " tracing=on";
  }
}

TEST(TraceContext, ForJobIsDeterministicNonZeroAndDistinct) {
  const auto a = obs::TraceContext::for_job(1);
  const auto b = obs::TraceContext::for_job(1);
  const auto c = obs::TraceContext::for_job(2);
  EXPECT_TRUE(a.valid());
  EXPECT_NE(a.trace_id, 0u);
  EXPECT_NE(a.span_id, 0u);
  EXPECT_NE(a.trace_id, a.span_id);
  EXPECT_EQ(a, b);  // any process that knows the job id agrees
  EXPECT_NE(a.trace_id, c.trace_id);
  EXPECT_NE(a.span_id, c.span_id);
  EXPECT_FALSE(obs::TraceContext{}.valid());
}

TEST(TraceContext, ScopeInstallsAndRestores) {
  const obs::TraceContext before = obs::current_trace_context();
  const auto ctx = obs::TraceContext::for_job(11);
  {
    obs::TraceContextScope scope(ctx);
    EXPECT_EQ(obs::current_trace_context(), ctx);
    {
      obs::TraceContextScope nested(obs::TraceContext::for_job(12));
      EXPECT_EQ(obs::current_trace_context(), obs::TraceContext::for_job(12));
    }
    EXPECT_EQ(obs::current_trace_context(), ctx);
  }
  EXPECT_EQ(obs::current_trace_context(), before);
}

TEST(TraceContext, SpansInheritTheInstalledContext) {
  obs::Tracer tracer;
  tracer.enable();
  const auto ctx = obs::TraceContext::for_job(7);
  {
    obs::TraceContextScope scope(ctx);
    auto outer = tracer.span("fleet.outer", "test");
    auto inner = tracer.span("fleet.inner", "test");
  }
  const auto events = tracer.snapshot(ctx.trace_id);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "fleet.outer");
  EXPECT_EQ(events[0].trace_id, ctx.trace_id);
  // The installed context's span is the root parent...
  EXPECT_EQ(events[0].parent_span_id, ctx.span_id);
  // ...and same-thread nesting parent-links the inner span to the outer.
  EXPECT_EQ(events[1].name, "fleet.inner");
  EXPECT_EQ(events[1].parent_span_id, events[0].span_id);
  // The filter is real: a different trace id selects nothing.
  EXPECT_TRUE(tracer.snapshot(ctx.trace_id ^ 1).empty());
}

TEST(TraceContext, AdoptContextRehomesSpanAndLaterChildren) {
  obs::Tracer tracer;
  tracer.enable();
  const auto job = obs::TraceContext::for_job(42);
  {
    // The client-submit shape: the span opens before the job id (hence
    // the trace id) is known, then adopts the derived context.
    obs::TraceContextScope clean{obs::TraceContext{}};
    auto submit = tracer.span("client.submit", "client");
    submit.adopt_context(job);
    auto wait = tracer.span("client.wait", "client");
  }
  const auto events = tracer.snapshot(job.trace_id);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "client.submit");
  EXPECT_EQ(events[0].parent_span_id, job.span_id);
  // Children opened after the adoption inherit the adopted trace.
  EXPECT_EQ(events[1].name, "client.wait");
  EXPECT_EQ(events[1].trace_id, job.trace_id);
  EXPECT_EQ(events[1].parent_span_id, events[0].span_id);
}

std::string temp_event_path(const std::string& name) {
  const auto path = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove(path);
  return path.string();
}

TEST(EventLog, RingKeepsOnlyTheLastCapacityEvents) {
  obs::EventLog log(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    log.append(obs::EventType::kSubmit, i, "job " + std::to_string(i));
  }
  EXPECT_EQ(log.appended(), 10u);
  const auto recent = log.recent();
  ASSERT_EQ(recent.size(), 4u);
  EXPECT_EQ(recent.front().seq, 6u);
  EXPECT_EQ(recent.back().seq, 9u);
  EXPECT_EQ(recent.back().job_id, 9u);
  EXPECT_EQ(recent.back().detail, "job 9");
  const auto last_two = log.recent(2);
  ASSERT_EQ(last_two.size(), 2u);
  EXPECT_EQ(last_two.front().seq, 8u);
}

TEST(EventLog, AttachPersistsEveryAppendAndContinuesSeqAcrossRuns) {
  const std::string path = temp_event_path("gb_test_obs_replay.events");
  {
    obs::EventLog log;
    ASSERT_TRUE(log.attach(path).ok());
    log.append(obs::EventType::kSubmit, 1, "box-1");
    log.append(obs::EventType::kStart, 1, "");
    // No clean shutdown: per-append flushing is the whole point.
  }
  auto events = obs::EventLog::read_file(path);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 2u);
  EXPECT_EQ((*events)[0].seq, 0u);
  EXPECT_EQ((*events)[0].type, obs::EventType::kSubmit);
  EXPECT_EQ((*events)[0].detail, "box-1");
  EXPECT_EQ((*events)[1].type, obs::EventType::kStart);

  // A second incarnation replays the file and keeps numbering.
  {
    obs::EventLog log;
    ASSERT_TRUE(log.attach(path).ok());
    EXPECT_EQ(log.appended(), 2u);
    const auto replayed = log.recent();
    ASSERT_EQ(replayed.size(), 2u);
    EXPECT_EQ(replayed[0].detail, "box-1");
    log.append(obs::EventType::kKill, 0, "crash drill");
  }
  events = obs::EventLog::read_file(path);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 3u);
  EXPECT_EQ(events->back().seq, 2u);
  EXPECT_EQ(events->back().type, obs::EventType::kKill);
  std::filesystem::remove(path);
}

TEST(EventLog, TornTailEndsReplayAtLastIntactRecord) {
  const std::string path = temp_event_path("gb_test_obs_torn.events");
  {
    obs::EventLog log;
    ASSERT_TRUE(log.attach(path).ok());
    log.append(obs::EventType::kSubmit, 1, "intact");
    log.append(obs::EventType::kStart, 1, "intact");
    log.append(obs::EventType::kComplete, 1, "about to tear");
  }
  // Tear mid-record, the shape a kill leaves behind.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 3);
  auto events = obs::EventLog::read_file(path);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 2u);
  EXPECT_EQ(events->back().type, obs::EventType::kStart);

  // Attach truncates the tear and continues after the intact prefix.
  {
    obs::EventLog log;
    ASSERT_TRUE(log.attach(path).ok());
    EXPECT_EQ(log.appended(), 2u);
    log.append(obs::EventType::kRequeued, 1, "after restart");
  }
  events = obs::EventLog::read_file(path);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 3u);
  EXPECT_EQ(events->back().seq, 2u);
  EXPECT_EQ(events->back().type, obs::EventType::kRequeued);
  std::filesystem::remove(path);
}

TEST(EventLog, CorruptPayloadByteEndsReplayBeforeTheBadRecord) {
  const std::string path = temp_event_path("gb_test_obs_crc.events");
  {
    obs::EventLog log;
    ASSERT_TRUE(log.attach(path).ok());
    log.append(obs::EventType::kSubmit, 1, "ok");
    log.append(obs::EventType::kComplete, 1, "will be flipped");
  }
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);  // last payload byte: CRC must catch it
    f.put('!');
  }
  const auto events = obs::EventLog::read_file(path);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 1u);
  EXPECT_EQ(events->front().detail, "ok");
  std::filesystem::remove(path);
}

TEST(EventLog, ReadFileRejectsBadHeaderAndMissingFile) {
  const std::string path = temp_event_path("gb_test_obs_header.events");
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not an event log at all";
  }
  EXPECT_FALSE(obs::EventLog::read_file(path).ok());
  EXPECT_FALSE(obs::EventLog::read_file(path + ".missing").ok());
  std::filesystem::remove(path);
}

// tests/golden/event_log_v1.events holds one record of each event type,
// written by EventLog::append. ts_us comes from the steady clock, so the
// golden is pinned per record rather than per file: re-appending a
// decoded event and stamping the ts_us it was read with must reproduce
// that record's bytes.

std::string golden_events() {
  return std::string(GB_GOLDEN_DIR) + "/event_log_v1.events";
}

std::vector<std::byte> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> chars((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  const auto* first = reinterpret_cast<const std::byte*>(chars.data());
  return std::vector<std::byte>(first, first + chars.size());
}

/// The file's frames (len | crc32 | payload), in order, header excluded.
std::vector<std::vector<std::byte>> frames_of(
    const std::vector<std::byte>& file) {
  std::vector<std::vector<std::byte>> frames;
  std::size_t at = 8;  // "GBEL" magic + format version
  while (at + 8 <= file.size()) {
    ByteReader r(std::span<const std::byte>(file).subspan(at, 4));
    const std::size_t end = at + 8 + r.u32();
    frames.emplace_back(file.begin() + static_cast<std::ptrdiff_t>(at),
                        file.begin() + static_cast<std::ptrdiff_t>(end));
    at = end;
  }
  return frames;
}

struct GoldenEvent {
  obs::EventType type;
  std::uint64_t job_id;
  const char* detail;
};

constexpr GoldenEvent kGoldenEvents[] = {
    {obs::EventType::kSubmit, 1, "BOX-0 tenant=corp"},
    {obs::EventType::kStart, 1, ""},
    {obs::EventType::kComplete, 1, "ok"},
    {obs::EventType::kCancel, 2, "cancelled via daemon"},
    {obs::EventType::kRejected, 0, "tenant lab over quota"},
    {obs::EventType::kDegraded, 1, "files: CORRUPT: torn hive"},
    {obs::EventType::kJournalTruncated, 0, "4 bytes"},
    {obs::EventType::kRequeued, 3, "BOX-2"},
    {obs::EventType::kKill, 0, "simulated SIGKILL"},
    {obs::EventType::kDrain, 0, "graceful shutdown"},
};

void expect_golden_events(const std::vector<obs::LogEvent>& events) {
  ASSERT_EQ(events.size(), std::size(kGoldenEvents));
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);
    EXPECT_EQ(events[i].type, kGoldenEvents[i].type) << i;
    EXPECT_EQ(events[i].job_id, kGoldenEvents[i].job_id) << i;
    EXPECT_EQ(events[i].detail, kGoldenEvents[i].detail) << i;
  }
}

TEST(EventLogGolden, OpeningTheGoldenGivesOneEventOfEachType) {
  const auto events = obs::EventLog::read_file(golden_events());
  ASSERT_TRUE(events.ok()) << events.status().to_string();
  expect_golden_events(*events);

  // attach() replays the same trail. It repairs a file in place, so it
  // opens a copy: the golden stays as committed.
  const std::string path = temp_event_path("gb_test_obs_golden_copy.events");
  std::filesystem::copy_file(golden_events(), path);
  {
    obs::EventLog log;
    ASSERT_TRUE(log.attach(path).ok());
    EXPECT_EQ(log.appended(), std::size(kGoldenEvents));
    expect_golden_events(log.recent());
  }
  EXPECT_EQ(file_bytes(path), file_bytes(golden_events()));
  std::filesystem::remove(path);
}

TEST(EventLogGolden, ReencodingEachEventReproducesItsRecordBytes) {
  const std::vector<std::byte> golden = file_bytes(golden_events());
  const auto golden_frames = frames_of(golden);
  const auto events = obs::EventLog::read_file(golden_events());
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(golden_frames.size(), events->size());

  const std::string path = temp_event_path("gb_test_obs_golden_redo.events");
  {
    obs::EventLog log;
    ASSERT_TRUE(log.attach(path).ok());
    for (const obs::LogEvent& e : *events) {
      log.append(e.type, e.job_id, e.detail);
    }
  }
  const std::vector<std::byte> fresh = file_bytes(path);
  ASSERT_GE(fresh.size(), 8u);
  EXPECT_TRUE(std::equal(fresh.begin(), fresh.begin() + 8, golden.begin()));
  auto frames = frames_of(fresh);
  ASSERT_EQ(frames.size(), golden_frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    // Stamp the decoded ts_us at its payload offset (after seq u64, type
    // u8 and job id u64), then re-seal the frame's CRC over the payload.
    std::vector<std::byte>& frame = frames[i];
    ASSERT_GE(frame.size(), 8u + 25u);
    ByteWriter ts;
    ts.u64((*events)[i].ts_us);
    std::copy(ts.view().begin(), ts.view().end(), frame.begin() + 8 + 17);
    ByteWriter crc;
    crc.u32(support::crc32(std::span<const std::byte>(frame).subspan(8)));
    std::copy(crc.view().begin(), crc.view().end(), frame.begin() + 4);
    EXPECT_EQ(frame, golden_frames[i]) << "record " << i;
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Prometheus text exposition conformance.

/// Builds the adversarial registry the golden fixture pins down: label
/// values and help text exercising every escape, an unlabelled sibling
/// series, a family with no help, and a histogram expansion.
void fill_conformance_registry(obs::MetricsRegistry& reg) {
  reg.counter("gb_conf_jobs_total", {{"tenant", "a\"b\\c\nd"}}).add(2);
  reg.counter("gb_conf_jobs_total").inc();
  reg.set_help("gb_conf_jobs_total", "Jobs with a back\\slash and\nnewline");
  reg.set_help("gb_conf_jobs_total", "second text must not win");
  reg.gauge("gb_conf_queue_depth").set(3.5);
  reg.set_help("gb_conf_queue_depth", "");  // empty: no HELP line
  auto& h = reg.histogram("gb_conf_wait_seconds", {0.1, 1.0});
  reg.set_help("gb_conf_wait_seconds", "Queue wait");
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);
}

TEST(PrometheusConformance, ExpositionMatchesGoldenFixtureByteForByte) {
  obs::MetricsRegistry reg;
  fill_conformance_registry(reg);
  const std::string path =
      std::string(GB_GOLDEN_DIR) + "/prometheus_conformance.txt";
  std::ifstream f(path, std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  std::ostringstream golden;
  golden << f.rdbuf();
  EXPECT_EQ(reg.to_prometheus_text(), golden.str());
}

/// Structural rules from the exposition format spec, checked line by
/// line: any HELP line immediately precedes its family's TYPE line, each
/// family has exactly one TYPE line, every sample belongs to the most
/// recent TYPE's family, and names follow this repo's gb_* convention.
void check_exposition_structure(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::map<std::string, int> type_lines;
  std::string pending_help_family;
  std::string current_family;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    std::istringstream ls(line);
    if (line.rfind("# HELP ", 0) == 0) {
      EXPECT_TRUE(pending_help_family.empty()) << "two HELP lines in a row";
      std::string hash, word;
      ls >> hash >> word >> pending_help_family;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      std::string hash, word, family, kind;
      ls >> hash >> word >> family >> kind;
      if (!pending_help_family.empty()) {
        EXPECT_EQ(pending_help_family, family)
            << "HELP not immediately followed by its TYPE";
        pending_help_family.clear();
      }
      EXPECT_EQ(++type_lines[family], 1) << "duplicate family " << family;
      EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "histogram")
          << kind;
      EXPECT_TRUE(family_name_ok(family)) << family;
      current_family = family;
      continue;
    }
    EXPECT_TRUE(pending_help_family.empty()) << "HELP with no TYPE: " << line;
    // A sample: name{labels} value. Its family is the name minus the
    // histogram suffixes.
    std::string name = line.substr(0, line.find_first_of(" {"));
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string with = current_family + suffix;
      if (name == with) name = current_family;
    }
    EXPECT_EQ(name, current_family) << "sample outside its family: " << line;
  }
  EXPECT_TRUE(pending_help_family.empty()) << "trailing HELP line";
}

TEST(PrometheusConformance, StructureHoldsForConformanceRegistry) {
  obs::MetricsRegistry reg;
  fill_conformance_registry(reg);
  check_exposition_structure(reg.to_prometheus_text());
}

TEST(PrometheusConformance, StructureHoldsForARealScanExposition) {
  // The live registry the daemon exports: pool + engine + scheduler
  // families, with the help texts their call sites register.
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  obs::MetricsRegistry reg;
  core::ScanScheduler::Options opts;
  opts.workers = 2;
  opts.metrics = &reg;
  core::ScanScheduler sched(opts);
  core::JobSpec spec;
  spec.machine = &m;
  spec.config.parallelism = 2;
  spec.config.metrics = &reg;
  ASSERT_TRUE(sched.submit(std::move(spec)).ok());
  sched.wait_idle();
  const std::string text = reg.to_prometheus_text();
  check_exposition_structure(text);
  // The satellite's point: the call sites actually registered help.
  EXPECT_NE(text.find("# HELP gb_sched_queue_wait_seconds "),
            std::string::npos);
  EXPECT_NE(text.find("# HELP gb_engine_runs_total "), std::string::npos);
}

TEST(Determinism, MetricsOffReportsMatchMetricsOnMinusTheBlock) {
  // collect_metrics only toggles the metrics block between an object and
  // null — every other report byte is identical.
  auto run = [](bool collect) {
    machine::Machine m(small_config());
    malware::install_ghostware<malware::HackerDefender>(m);
    core::ScanConfig cfg;
    cfg.parallelism = 2;
    cfg.collect_metrics = collect;
    return normalize(core::ScanEngine(m, cfg)
                         .run({.kind = core::ScanKind::kInside})
                         .value()
                         .to_json());
  };
  EXPECT_EQ(mask_metrics(run(true)), mask_metrics(run(false)));
}

}  // namespace
}  // namespace gb
