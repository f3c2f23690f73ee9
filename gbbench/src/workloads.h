// The benchmark's workloads: closed loops that drive the library through
// its public API, check every result, and time each operation on the
// caller's thread.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace gbbench {

struct RunOptions {
  std::uint64_t seed = 1;
  /// Length of the measured phase. In a traced run it is split evenly
  /// between an untraced and a traced phase.
  double seconds = 15;
  bool trace = false;
  /// Smoke size: small machines, few operations (the self-test).
  bool tiny = false;
  /// Scratch directory for daemon journals.
  std::string workdir = ".";
};

struct Result {
  /// Per-operation wall times of the untraced measured phase.
  std::vector<double> latency_ms;
  /// Same, for the traced phase of a traced run.
  std::vector<double> traced_latency_ms;
  /// Wall and process CPU seconds of the untraced measured phase.
  double phase_wall_s = 0;
  double phase_cpu_s = 0;
  /// Operations of the untraced measured phase that completed and passed
  /// every check.
  std::uint64_t ok = 0;
  /// Every operation of every phase, set-up checks included.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few reasons
  std::vector<double> setup_s;        // one entry per set-up repetition
  /// Per-layer values of a traced run (metric name -> value).
  std::map<std::string, double> layers;
  /// Spans of the traced phase, one JSON object per line.
  std::string spans_jsonl;

  void fail(std::string why);
  /// Counts one checked operation; `why` empty means it passed.
  void check(const std::string& why) {
    ++attempted;
    if (!why.empty()) fail(why);
  }
};

struct Workload {
  std::string name;
  std::function<Result(const RunOptions&)> run;
};

/// Every workload; gbbench/README.md gives the reason for each.
const std::vector<Workload>& workloads();

}  // namespace gbbench
