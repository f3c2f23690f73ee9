#include "core/process_scans.h"

#include "kernel/carve.h"
#include "support/strings.h"

namespace gb::core {

namespace {

Resource process_resource(const kernel::ProcessInfo& p) {
  return Resource{process_key(p.pid, p.image_name),
                  "pid " + std::to_string(p.pid) + " " +
                      printable(p.image_name)};
}

Resource module_resource(kernel::Pid pid, std::string_view path,
                         std::string_view name) {
  return Resource{module_key(pid, path),
                  "pid " + std::to_string(pid) + " " +
                      (path.empty() ? "(blanked pathname: " +
                                          printable(name) + ")"
                                    : printable(path))};
}

void from_infos(const std::vector<kernel::ProcessInfo>& infos,
                ScanResult& out) {
  for (const auto& p : infos) {
    out.resources.push_back(process_resource(p));
    ++out.work.records_visited;
  }
  out.normalize();
}

}  // namespace

support::StatusOr<ScanResult> high_level_process_scan(machine::Machine& m,
                                                      const winapi::Ctx& ctx) {
  ScanResult out;
  out.view_name = "NtQuerySystemInformation (" + ctx.image_name + ")";
  out.type = ResourceType::kProcess;
  out.trust = TrustLevel::kApiView;
  winapi::ApiEnv* env = m.win32().env(ctx.pid);
  if (!env) {
    return support::Status::failed_precondition(
        "no API environment for context pid " + std::to_string(ctx.pid));
  }
  from_infos(env->nt_query_system_information(ctx), out);
  return out;
}

support::StatusOr<ScanResult> low_level_process_scan(machine::Machine& m) {
  ScanResult out;
  out.view_name = "driver: Active Process List walk";
  out.type = ResourceType::kProcess;
  out.trust = TrustLevel::kTruthApproximation;
  from_infos(m.kernel().low_level_process_scan(), out);
  return out;
}

support::StatusOr<ScanResult> advanced_process_scan(machine::Machine& m) {
  ScanResult out;
  out.view_name = "driver: scheduler thread table walk (advanced mode)";
  out.type = ResourceType::kProcess;
  out.trust = TrustLevel::kTruthApproximation;
  from_infos(m.kernel().advanced_process_scan(), out);
  return out;
}

support::StatusOr<ScanResult> dump_process_scan(
    const kernel::KernelDump& dump) {
  ScanResult out;
  out.view_name = "kernel dump: thread-table traversal";
  out.type = ResourceType::kProcess;
  out.trust = TrustLevel::kTruth;
  from_infos(dump.thread_view(), out);
  return out;
}

support::StatusOr<ScanResult> carve_process_scan(
    std::span<const std::byte> dump_bytes, bool live,
    support::ThreadPool* pool, obs::MetricsRegistry* metrics) {
  auto carved = kernel::carve_dump(dump_bytes, pool);
  if (metrics != nullptr) {
    metrics->counter("gb_carve_runs_total", {{"mode", live ? "live" : "dump"}})
        .inc();
    if (carved.ok()) {
      metrics->counter("gb_carve_bytes_swept_total")
          .add(static_cast<double>(carved->stats.bytes_swept));
      metrics->counter("gb_carve_candidates_total")
          .add(static_cast<double>(carved->stats.candidates));
      metrics->counter("gb_carve_recovered_total")
          .add(static_cast<double>(carved->stats.recovered));
      metrics->counter("gb_carve_rejected_total")
          .add(static_cast<double>(carved->stats.rejected));
      metrics->counter("gb_carve_orphans_total")
          .add(static_cast<double>(carved->orphan_count()));
    } else {
      metrics->counter("gb_carve_failures_total").inc();
    }
  }
  if (!carved.ok()) return carved.status();

  ScanResult out;
  out.view_name = live ? "signature carve of kernel memory"
                       : "signature carve of crash dump";
  out.type = ResourceType::kProcess;
  out.trust = live ? TrustLevel::kTruthApproximation : TrustLevel::kTruth;
  for (const auto& p : carved->processes) {
    out.resources.push_back(
        Resource{process_key(p.image.pid, p.image.image_name),
                 "pid " + std::to_string(p.image.pid) + " " +
                     printable(p.image.image_name)});
  }
  out.work.records_visited = carved->stats.recovered;
  out.work.bytes_read = carved->stats.bytes_swept;
  out.normalize();
  return out;
}

support::StatusOr<ScanResult> high_level_module_scan(machine::Machine& m,
                                                     const winapi::Ctx& ctx) {
  ScanResult out;
  out.view_name = "toolhelp Module32 walk (" + ctx.image_name + ")";
  out.type = ResourceType::kModule;
  out.trust = TrustLevel::kApiView;
  winapi::ApiEnv* env = m.win32().env(ctx.pid);
  if (!env) {
    return support::Status::failed_precondition(
        "no API environment for context pid " + std::to_string(ctx.pid));
  }

  // Module enumeration is per process: only processes visible to the
  // toolhelp view can be asked for their modules at all.
  for (const auto& p : env->toolhelp_processes(ctx)) {
    for (const auto& mod : env->toolhelp_modules(ctx, p.pid)) {
      out.resources.push_back(module_resource(p.pid, mod.path, mod.name));
      ++out.work.records_visited;
    }
  }
  out.normalize();
  return out;
}

support::StatusOr<ScanResult> low_level_module_scan(machine::Machine& m) {
  ScanResult out;
  out.view_name = "driver: kernel module-truth walk";
  out.type = ResourceType::kModule;
  out.trust = TrustLevel::kTruthApproximation;
  for (const auto& [pid, proc] : m.kernel().id_table()) {
    for (const auto& mod : proc->kernel_modules()) {
      out.resources.push_back(module_resource(pid, mod.path, mod.name));
      ++out.work.records_visited;
    }
  }
  out.normalize();
  return out;
}

support::StatusOr<ScanResult> dump_module_scan(const kernel::KernelDump& dump) {
  ScanResult out;
  out.view_name = "kernel dump: module traversal";
  out.type = ResourceType::kModule;
  out.trust = TrustLevel::kTruth;
  for (const auto& p : dump.processes) {
    for (const auto& mod : p.kernel_modules) {
      out.resources.push_back(module_resource(p.pid, mod.path, mod.name));
      ++out.work.records_visited;
    }
  }
  out.normalize();
  return out;
}

}  // namespace gb::core
