// ScanScheduler: weighted fair queuing across tenants, cooperative
// cancellation (queued and in-flight), per-job report determinism at any
// pool width, and the stats/JSON surface. Also covers the unified
// ScanEngine::run(JobSpec) entry point the scheduler dispatches through.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/scan_scheduler.h"
#include "malware/collection.h"

namespace gb::core {
namespace {

/// Small enough that a fleet of them fits comfortably in RAM (the
/// default machine carries a dense 128 MiB disk image).
machine::MachineConfig tiny_config(std::uint64_t seed = 1) {
  machine::MachineConfig cfg;
  cfg.seed = seed;
  cfg.disk_sectors = 32 * 1024;  // 16 MiB image
  cfg.mft_records = 2048;
  cfg.synthetic_files = 12;
  cfg.synthetic_registry_keys = 8;
  return cfg;
}

std::string normalized(const Report& r) {
  return core::normalize_report_json(r.to_json());
}

/// Appends each dispatched job's tenant to `order` (mutex-guarded) via
/// the configure_engine hook, which the scheduler runs at dispatch time.
JobSpec traced_job(machine::Machine& m, const std::string& tenant,
                   std::mutex& mu, std::vector<std::string>& order,
                   int priority = 0) {
  JobSpec spec;
  spec.machine = &m;
  spec.tenant = tenant;
  spec.priority = priority;
  spec.config.resources = ResourceMask::kNone;  // dispatch order is the
                                                // point, not scan work
  spec.configure_engine = [&mu, &order, tenant](ScanEngine&) {
    std::lock_guard<std::mutex> lk(mu);
    order.push_back(tenant);
  };
  return spec;
}

TEST(SchedulerFairness, DeficitRoundRobinHonorsWeights) {
  machine::Machine ma(tiny_config(1));
  machine::Machine mb(tiny_config(2));

  ScanScheduler::Options opts;
  opts.workers = 1;
  opts.start_paused = true;  // build the backlog, then observe dispatch
  ScanScheduler sched(opts);
  sched.set_tenant_weight("heavy", 3);
  sched.set_tenant_weight("light", 1);

  std::mutex mu;
  std::vector<std::string> order;
  std::vector<ScanJob> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(
        sched.submit(traced_job(ma, "heavy", mu, order)).value());
  }
  for (int i = 0; i < 2; ++i) {
    jobs.push_back(
        sched.submit(traced_job(mb, "light", mu, order)).value());
  }
  sched.resume();
  sched.wait_idle();

  // DRR with weights 3:1 serves heavy,heavy,heavy,light repeating —
  // the flooding tenant gets exactly its weighted share, no more.
  const std::vector<std::string> want = {"heavy", "heavy", "heavy", "light",
                                         "heavy", "heavy", "heavy", "light"};
  EXPECT_EQ(order, want);
  for (auto& j : jobs) EXPECT_TRUE(j.wait().ok());

  const SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.served, 8u);
  EXPECT_EQ(stats.cancelled, 0u);
  ASSERT_EQ(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.tenants[0].id, "heavy");
  EXPECT_EQ(stats.tenants[0].served, 6u);
  EXPECT_EQ(stats.tenants[1].id, "light");
  EXPECT_EQ(stats.tenants[1].served, 2u);
}

TEST(SchedulerPriority, HigherPriorityDispatchesFirstWithinTenant) {
  machine::Machine m(tiny_config());
  ScanScheduler::Options opts;
  opts.workers = 1;
  opts.start_paused = true;
  ScanScheduler sched(opts);

  std::mutex mu;
  std::vector<std::string> order;
  auto submit = [&](const char* label, int priority) {
    JobSpec spec = traced_job(m, "t", mu, order, priority);
    spec.configure_engine = [&mu, &order, label](ScanEngine&) {
      std::lock_guard<std::mutex> lk(mu);
      order.push_back(label);
    };
    return sched.submit(std::move(spec)).value();
  };
  auto j0 = submit("routine", 0);
  auto j5 = submit("urgent", 5);
  auto j1 = submit("elevated", 1);
  sched.resume();
  sched.wait_idle();

  const std::vector<std::string> want = {"urgent", "elevated", "routine"};
  EXPECT_EQ(order, want);
}

TEST(SchedulerCancel, QueuedJobCompletesImmediatelyWithoutRunning) {
  machine::Machine m(tiny_config());
  const auto clock_before = m.clock().now();

  ScanScheduler::Options opts;
  opts.workers = 1;
  opts.start_paused = true;
  ScanScheduler sched(opts);

  JobSpec spec;
  spec.machine = &m;
  spec.tenant = "lab";
  auto job = sched.submit(std::move(spec)).value();
  EXPECT_EQ(job.progress().phase, JobPhase::kQueued);

  EXPECT_TRUE(job.cancel());
  EXPECT_FALSE(job.cancel());  // idempotent: second call is a no-op

  // The result is available before dispatch ever resumes.
  auto* result = job.try_result();
  ASSERT_NE(result, nullptr);
  ASSERT_FALSE(result->ok());
  EXPECT_EQ(result->status().code(), support::StatusCode::kCancelled);
  EXPECT_EQ(job.progress().phase, JobPhase::kDone);
  // Never dispatched: the machine was not scanned at all.
  EXPECT_EQ(m.clock().now(), clock_before);

  sched.resume();
  sched.wait_idle();
  const SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.served, 0u);
}

/// A provider whose API view parks on a latch: the test cancels the job
/// while the view is mid-flight, then releases the latch and expects the
/// engine to bail out at the next task boundary.
class BlockingScanner : public ResourceScanner {
 public:
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool started = false;
    bool release = false;
  };

  explicit BlockingScanner(std::shared_ptr<Gate> gate)
      : gate_(std::move(gate)) {}

  [[nodiscard]] ResourceType type() const override {
    return ResourceType::kProcess;
  }

  support::StatusOr<ScanResult> high_scan(
      const ScanTaskContext&, const winapi::Ctx&) const override {
    std::unique_lock<std::mutex> lk(gate_->mu);
    gate_->started = true;
    gate_->cv.notify_all();
    gate_->cv.wait(lk, [&] { return gate_->release; });
    return ScanResult{};
  }

  std::vector<ViewDef> trusted_views(ScanPhase,
                                     const ScanConfig&) const override {
    return {ViewDef{"block-low", TrustLevel::kTruthApproximation, false,
                    [](const ScanTaskContext&, const OutsideSources*) {
                      return support::StatusOr<ScanResult>(ScanResult{});
                    }}};
  }

 private:
  std::shared_ptr<Gate> gate_;
};

TEST(SchedulerCancel, InFlightJobStopsAtTaskBoundaryWithCleanStatus) {
  machine::Machine m(tiny_config());
  const auto clock_before = m.clock().now();
  auto gate = std::make_shared<BlockingScanner::Gate>();

  ScanScheduler::Options opts;
  opts.workers = 1;  // the job must run off the test thread
  ScanScheduler sched(opts);

  JobSpec spec;
  spec.machine = &m;
  spec.tenant = "ops";
  spec.config.resources = ResourceMask::kNone;  // only the custom provider
  spec.configure_engine = [gate](ScanEngine& engine) {
    engine.register_scanner(std::make_unique<BlockingScanner>(gate));
  };
  auto job = sched.submit(std::move(spec)).value();

  {
    std::unique_lock<std::mutex> lk(gate->mu);
    gate->cv.wait(lk, [&] { return gate->started; });
  }
  EXPECT_EQ(job.progress().phase, JobPhase::kRunning);
  EXPECT_TRUE(job.cancel());
  {
    std::lock_guard<std::mutex> lk(gate->mu);
    gate->release = true;
  }
  gate->cv.notify_all();

  auto& result = job.wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), support::StatusCode::kCancelled);
  // The torn scan was discarded whole: no report, no clock advance.
  EXPECT_EQ(m.clock().now(), clock_before);

  sched.wait_idle();
  EXPECT_EQ(sched.stats().cancelled, 1u);
}

TEST(SchedulerDeterminism, PerJobReportsIdenticalAtWorkers_1_2_8) {
  constexpr std::size_t kMachines = 3;
  std::vector<std::string> baseline;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    std::vector<std::unique_ptr<machine::Machine>> fleet;
    for (std::size_t i = 0; i < kMachines; ++i) {
      fleet.push_back(
          std::make_unique<machine::Machine>(tiny_config(10 + i)));
      malware::install_ghostware<malware::HackerDefender>(*fleet[i]);
    }
    ScanScheduler::Options opts;
    opts.workers = workers;
    ScanScheduler sched(opts);
    std::vector<ScanJob> jobs;
    for (auto& m : fleet) {
      JobSpec spec;
      spec.machine = m.get();
      jobs.push_back(sched.submit(std::move(spec)).value());
    }
    std::vector<std::string> normals;
    for (auto& job : jobs) {
      auto& result = job.wait();
      ASSERT_TRUE(result.ok());
      EXPECT_TRUE(result.value().infection_detected());
      ASSERT_TRUE(result.value().scheduler.has_value());
      normals.push_back(normalized(result.value()));
    }
    if (baseline.empty()) {
      baseline = normals;
    } else {
      EXPECT_EQ(normals, baseline) << "workers=" << workers;
    }
  }
}

TEST(SchedulerReport, CarriesProvenanceTagInSchemaV25Json) {
  machine::Machine m(tiny_config());
  ScanScheduler::Options opts;
  opts.workers = 0;  // inline dispatch
  ScanScheduler sched(opts);
  JobSpec spec;
  spec.machine = &m;
  spec.tenant = "hq";
  spec.priority = 7;
  auto job = sched.submit(std::move(spec)).value();
  auto& result = job.wait();
  ASSERT_TRUE(result.ok());
  const Report& report = result.value();
  ASSERT_TRUE(report.scheduler.has_value());
  EXPECT_EQ(report.scheduler->tenant, "hq");
  EXPECT_EQ(report.scheduler->priority, 7);
  EXPECT_EQ(report.scheduler->job_id, job.id());
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema_version\":\"2.5\""), std::string::npos);
  EXPECT_NE(json.find("\"scheduler\":{\"tenant\":\"hq\""),
            std::string::npos);
}

TEST(SchedulerStatsApi, JsonAndErrorPaths) {
  ScanScheduler sched;
  // machine is mandatory at submit, not at dispatch.
  JobSpec bad;
  auto status_or = sched.submit(std::move(bad));
  ASSERT_FALSE(status_or.ok());
  EXPECT_EQ(status_or.status().code(),
            support::StatusCode::kFailedPrecondition);

  const std::string json = sched.stats().to_json();
  EXPECT_NE(json.find("\"schema_version\":\"2.5\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\":0"), std::string::npos);
  EXPECT_NE(json.find("\"tenants\":[]"), std::string::npos);
}

TEST(SchedulerShutdown, DestructorCancelsQueuedJobsCleanly) {
  machine::Machine m(tiny_config());
  ScanJob job;
  {
    ScanScheduler::Options opts;
    opts.workers = 1;
    opts.start_paused = true;  // never dispatched
    ScanScheduler sched(opts);
    JobSpec spec;
    spec.machine = &m;
    job = sched.submit(std::move(spec)).value();
  }
  // The handle outlives the scheduler; the job completed as cancelled.
  auto& result = job.wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), support::StatusCode::kCancelled);
}

TEST(EngineRunJobSpec, DispatchesOnKindAndHonorsPreRaisedToken) {
  machine::Machine m(tiny_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  ScanEngine engine(m);

  JobSpec inside;
  inside.kind = ScanKind::kInside;
  auto inside_result = engine.run(inside);
  ASSERT_TRUE(inside_result.ok());
  EXPECT_TRUE(inside_result.value().infection_detected());

  support::CancelToken token;
  token.cancel();
  JobSpec cancelled;
  cancelled.kind = ScanKind::kOutside;
  cancelled.cancel = &token;
  const auto clock_before = m.clock().now();
  auto cancelled_result = engine.run(cancelled);
  ASSERT_FALSE(cancelled_result.ok());
  EXPECT_EQ(cancelled_result.status().code(),
            support::StatusCode::kCancelled);
  EXPECT_EQ(m.clock().now(), clock_before);  // no boot cycle ran

  support::TaskCounter progress;
  JobSpec tracked;
  tracked.kind = ScanKind::kInside;
  tracked.progress = &progress;
  ASSERT_TRUE(engine.run(tracked).ok());
  EXPECT_GT(progress.total.load(), 0u);
  EXPECT_EQ(progress.done.load(), progress.total.load());
}

TEST(SchedulerStress, ManyTenantsRandomCancelsUnderSharedPool) {
  constexpr std::size_t kJobs = 10;
  std::vector<std::unique_ptr<machine::Machine>> fleet;
  for (std::size_t i = 0; i < kJobs; ++i) {
    fleet.push_back(std::make_unique<machine::Machine>(tiny_config(50 + i)));
  }
  ScanScheduler::Options opts;
  opts.workers = 4;
  ScanScheduler sched(opts);
  sched.set_tenant_weight("even", 2);

  std::vector<ScanJob> jobs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    JobSpec spec;
    spec.machine = fleet[i].get();
    spec.tenant = (i % 2 == 0) ? "even" : "odd";
    spec.priority = static_cast<int>(i % 3);
    spec.config.resources =
        (i % 2 == 0) ? ResourceMask::kProcesses
                     : (ResourceMask::kAseps | ResourceMask::kModules);
    jobs.push_back(sched.submit(std::move(spec)).value());
  }
  // Cancel a third of the fleet while the pool is busy serving it.
  for (std::size_t i = 0; i < kJobs; i += 3) jobs[i].cancel();

  std::size_t completed = 0;
  std::size_t cancelled = 0;
  for (auto& job : jobs) {
    auto& result = job.wait();
    if (result.ok()) {
      ++completed;
      EXPECT_TRUE(result.value().scheduler.has_value());
    } else {
      ASSERT_EQ(result.status().code(), support::StatusCode::kCancelled);
      ++cancelled;
    }
  }
  EXPECT_EQ(completed + cancelled, kJobs);
  sched.wait_idle();
  const SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.served + stats.cancelled, kJobs);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.running, 0u);
}

// Machines are not internally synchronized: two scans of one machine
// race in its process table and flush hives into its volume at once.
// The scheduler runs one job per machine at a time, so the span in
// which a job holds its machine (configure_engine through on_complete)
// never overlaps another job's on that machine, even with idle workers.
// A session job holds its session's machine; it has no configure_engine
// hook to time, so a TSan build is what checks that it serializes too.
TEST(SchedulerMachines, JobsForOneMachineNeverOverlap) {
  machine::Machine shared(tiny_config(1));
  machine::Machine other(tiny_config(2));
  ScanConfig session_cfg;
  session_cfg.parallelism = 1;
  ScanEngine session_engine(shared, session_cfg);
  ScanSession session = session_engine.open_session();
  ScanScheduler::Options opts;
  opts.workers = 4;
  ScanScheduler sched(opts);

  std::atomic<int> on_shared{0};
  std::atomic<int> most_on_shared{0};
  std::vector<ScanJob> jobs;
  for (int i = 0; i < 6; ++i) {
    JobSpec spec;
    const bool on_shared_box = i % 3 != 2;
    spec.machine = on_shared_box ? &shared : &other;
    spec.config.resources = ResourceMask::kProcesses;
    if (on_shared_box) {
      spec.configure_engine = [&](ScanEngine&) {
        const int now = on_shared.fetch_add(1) + 1;
        int most = most_on_shared.load();
        while (now > most && !most_on_shared.compare_exchange_weak(most, now)) {
        }
      };
      spec.on_complete = [&](std::uint64_t, support::StatusOr<Report>&) {
        on_shared.fetch_sub(1);
      };
    }
    jobs.push_back(sched.submit(std::move(spec)).value());
  }
  JobSpec session_job;
  session_job.session = &session;
  jobs.push_back(sched.submit(std::move(session_job)).value());
  for (auto& job : jobs) ASSERT_TRUE(job.wait().ok());
  EXPECT_EQ(most_on_shared.load(), 1);
}

// Regression: progress() reads phase and the two task counters from
// separate atomics. A job finishing (or cancelling) between those loads
// used to pair a terminal phase with mid-flight counters — and a
// cancelled engine run abandons its batch with done < total, so a torn
// read could even report done > total. The snapshot now re-reads until
// the phase is stable and clamps, so no interleaving shows an
// inconsistent pair. This hammers the exact window: a poller racing a
// mid-scan cancel.
TEST(SchedulerProgress, SnapshotStaysConsistentThroughAMidScanCancel) {
  machine::Machine m(tiny_config());
  auto gate = std::make_shared<BlockingScanner::Gate>();

  ScanScheduler::Options opts;
  opts.workers = 1;
  ScanScheduler sched(opts);

  JobSpec spec;
  spec.machine = &m;
  spec.tenant = "ops";
  spec.config.resources = ResourceMask::kProcesses;  // real tasks, plus
                                                     // the blocking view
  spec.configure_engine = [gate](ScanEngine& engine) {
    engine.register_scanner(std::make_unique<BlockingScanner>(gate));
  };
  auto job = sched.submit(std::move(spec)).value();

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> overshoots{0};
  std::thread poller([&] {
    while (!stop.load()) {
      const JobProgress p = job.progress();
      if (p.tasks_done > p.tasks_total) overshoots.fetch_add(1);
      if (p.phase == JobPhase::kDone && p.tasks_done > p.tasks_total) {
        overshoots.fetch_add(1);
      }
    }
  });

  {
    std::unique_lock<std::mutex> lk(gate->mu);
    gate->cv.wait(lk, [&] { return gate->started; });
  }
  EXPECT_TRUE(job.cancel());
  {
    std::lock_guard<std::mutex> lk(gate->mu);
    gate->release = true;
  }
  gate->cv.notify_all();
  EXPECT_EQ(job.wait().status().code(), support::StatusCode::kCancelled);
  stop.store(true);
  poller.join();

  EXPECT_EQ(overshoots.load(), 0u);
  const JobProgress final_view = job.progress();
  EXPECT_EQ(final_view.phase, JobPhase::kDone);
  EXPECT_LE(final_view.tasks_done, final_view.tasks_total);
  sched.wait_idle();
}

TEST(SchedulerQuantiles, AccessorsReadBackOrderedRollingEstimates) {
  machine::Machine m(tiny_config());
  ScanScheduler::Options opts;
  opts.workers = 0;  // inline dispatch: every job observed by wait_idle
  ScanScheduler sched(opts);

  // No observations yet: the estimate is zero, not garbage.
  EXPECT_EQ(sched.queue_wait_quantiles().p50, 0.0);
  EXPECT_EQ(sched.run_quantiles().p99, 0.0);

  for (int i = 0; i < 3; ++i) {
    JobSpec spec;
    spec.machine = &m;
    spec.tenant = "ops";
    spec.config.resources = ResourceMask::kProcesses;
    ASSERT_TRUE(sched.submit(std::move(spec)).ok());
  }
  sched.wait_idle();

  const LatencyQuantiles run = sched.run_quantiles();
  EXPECT_GT(run.p50, 0.0);  // real scans take real time
  EXPECT_GE(run.p95, run.p50);
  EXPECT_GE(run.p99, run.p95);
  const LatencyQuantiles wait = sched.queue_wait_quantiles();
  EXPECT_GE(wait.p95, wait.p50);
  EXPECT_GE(wait.p99, wait.p95);
}

}  // namespace
}  // namespace gb::core
