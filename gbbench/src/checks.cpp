#include "checks.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <regex>

#include "core/scan_session.h"
#include "daemon/client.h"
#include "malware/doublefu.h"
#include "malware/hackerdefender.h"

namespace gbbench {

using gb::core::Finding;
using gb::core::Report;
using gb::core::ResourceType;

namespace {

/// The text that precedes a key's value: `"key":`.
std::string key_prefix(std::string_view key) {
  std::string s(1, '"');
  s.append(key);
  s.append("\":");
  return s;
}

/// One past the object that starts at `at` (`at` when there is none).
std::size_t object_end(std::string_view json, std::size_t at) {
  if (at >= json.size() || json[at] != '{') return at;
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = at; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}' && --depth == 0) {
      return i + 1;
    }
  }
  return json.size();
}

/// `json` with every object value of `key` replaced by `null`.
std::string null_objects(std::string_view json, std::string_view key) {
  const std::string prefix = key_prefix(key);
  std::string out;
  out.reserve(json.size());
  std::size_t pos = 0;
  for (std::size_t hit; (hit = json.find(prefix, pos)) != std::string_view::npos;) {
    const std::size_t value = hit + prefix.size();
    out.append(json.substr(pos, value - pos));
    pos = value;
    const std::size_t end = object_end(json, value);
    if (end == value) continue;
    out.append("null");
    pos = end;
  }
  out.append(json.substr(pos));
  return out;
}

bool contains(const std::vector<std::string>& ids, const std::string& id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

const Finding* find_hidden(const Report& r, ResourceType type,
                           const std::string& key) {
  const auto* d = r.diff_for(type);
  if (d == nullptr) return nullptr;
  for (const Finding& f : d->hidden) {
    if (f.resource.key == key) return &f;
  }
  return nullptr;
}

Finding* find_hidden_mut(Report& r, ResourceType type,
                         const std::string& key) {
  return const_cast<Finding*>(find_hidden(r, type, key));
}

}  // namespace

std::string normalized(std::string_view report_json) {
  return std::regex_replace(gb::client::normalized_report_json(report_json),
                            std::regex("\"cursor\":[0-9]+"), "\"cursor\":0");
}

std::string content_only(std::string_view report_json) {
  std::string j = normalized(report_json);
  for (const char* key : {"scheduler", "incremental"}) j = null_objects(j, key);
  return j;
}

double json_number(std::string_view json, std::string_view key) {
  const std::string prefix = key_prefix(key);
  const std::size_t pos = json.find(prefix);
  if (pos == std::string_view::npos) return -1;
  const std::string tail(json.substr(pos + prefix.size(), 32));
  char* end = nullptr;
  const double v = std::strtod(tail.c_str(), &end);
  return end == tail.c_str() ? -1 : v;
}

std::string check_hidden_files(const Report& report,
                               const std::vector<std::string>& hidden_paths,
                               const std::string& view_id) {
  if (hidden_paths.empty()) return "no hidden files to check";
  for (const std::string& path : hidden_paths) {
    const std::string key = gb::core::file_key(path);
    const Finding* f = find_hidden(report, ResourceType::kFile, key);
    if (f == nullptr) return "hidden file not found: " + key;
    if (!contains(f->found_in, view_id)) {
      return "hidden file " + key + " not found_in " + view_id;
    }
    if (!contains(f->missing_from, gb::core::kApiViewId)) {
      return "hidden file " + key + " not missing_from api";
    }
  }
  return "";
}

std::string check_carve_only(const Report& report,
                             const std::string& process_key) {
  const Finding* f = find_hidden(report, ResourceType::kProcess, process_key);
  if (f == nullptr) return "hidden process not found: " + process_key;
  if (f->found_in != std::vector<std::string>{"carve"}) {
    return "hidden process " + process_key + " seen by more than carve";
  }
  if (!contains(f->missing_from, gb::core::kApiViewId)) {
    return "hidden process " + process_key + " not missing_from api";
  }
  return "";
}

std::string check_clean(const Report& report) {
  for (const auto& d : report.diffs) {
    if (!d.clean()) {
      return std::string("clean machine has findings in ") +
             gb::core::resource_type_name(d.type);
    }
  }
  return "";
}

std::string check_not_degraded(const Report& report) {
  for (const auto& d : report.diffs) {
    if (d.degraded()) {
      return std::string("degraded ") + gb::core::resource_type_name(d.type) +
             " diff: " + d.status.to_string();
    }
  }
  return "";
}

std::string check_no_fallback(const Report& report) {
  if (!report.incremental) return "rescan report has no incremental block";
  if (!report.incremental->incremental) {
    return "session fell back to a full walk: " +
           report.incremental->fallback_reason;
  }
  return "";
}

std::string check_identical(const std::string& got, const std::string& want,
                            const char* what) {
  if (got == want) return "";
  std::size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
  return std::string(what) + " differ at byte " + std::to_string(at);
}

// --- self-test --------------------------------------------------------------

int self_test_checks() {
  using namespace gb;
  machine::MachineConfig small;
  small.disk_sectors = 32 * 1024;
  small.mft_records = 2048;
  small.synthetic_files = 24;
  small.synthetic_registry_keys = 12;

  core::ScanConfig cfg;
  cfg.parallelism = 1;
  cfg.collect_metrics = false;
  auto run = [&](machine::Machine& m, core::ScanKind kind) {
    core::JobSpec job;
    job.kind = kind;
    return std::move(core::ScanEngine(m, cfg).run(job)).value();
  };

  machine::Machine infected(small);
  auto hd = malware::install_ghostware<malware::HackerDefender>(infected);
  auto fu = malware::install_ghostware<malware::DoubleFu>(infected);
  const auto victim =
      infected.spawn_process("C:\\windows\\system32\\victim.exe").pid();
  const bool hid = fu->hide_process(infected, victim);
  const std::string victim_key = core::process_key(victim, "victim.exe");
  const auto& hidden_files = hd->manifest().hidden_files;

  const Report inside = run(infected, core::ScanKind::kInside);
  core::ScanEngine session_engine(infected, cfg);
  core::ScanSession session = session_engine.open_session();
  const Report cold_start = session.rescan();
  const Report warm = session.rescan();
  const Report cold = run(infected, core::ScanKind::kInside);
  const Report outside = run(infected, core::ScanKind::kOutside);
  machine::Machine clean_box(small);
  const Report clean = run(clean_box, core::ScanKind::kInside);

  int wrong = 0;
  auto expect = [&](const char* name, bool should_fire, const std::string& r) {
    const bool fired = !r.empty();
    const bool good = fired == should_fire;
    if (!good) ++wrong;
    std::printf("  %-4s %-58s %s\n", good ? "ok" : "FAIL", name,
                fired ? r.c_str() : "(passes)");
  };
  auto doctor = [](Report r, const std::function<void(Report&)>& edit) {
    edit(r);
    return r;
  };
  const std::string hd_key =
      hidden_files.empty() ? "" : core::file_key(hidden_files.front());

  expect("victim hidden by DoubleFu (setup)", false,
         hid ? "" : "hide_process failed");
  expect("hidden files: real inside report", false,
         check_hidden_files(inside, hidden_files, "mft"));
  expect("hidden files: mft dropped from found_in", true,
         check_hidden_files(doctor(inside, [&](Report& r) {
           if (auto* f = find_hidden_mut(r, ResourceType::kFile, hd_key)) {
             std::erase(f->found_in, std::string("mft"));
           }
         }), hidden_files, "mft"));
  expect("hidden files: api dropped from missing_from", true,
         check_hidden_files(doctor(inside, [&](Report& r) {
           if (auto* f = find_hidden_mut(r, ResourceType::kFile, hd_key)) {
             std::erase(f->missing_from, std::string("api"));
           }
         }), hidden_files, "mft"));
  expect("hidden files: finding removed", true,
         check_hidden_files(doctor(inside, [&](Report& r) {
           for (auto& d : r.diffs) d.hidden.clear();
         }), hidden_files, "mft"));
  expect("carve only: real outside report", false,
         check_carve_only(outside, victim_key));
  expect("carve only: threads also saw it", true,
         check_carve_only(doctor(outside, [&](Report& r) {
           if (auto* f = find_hidden_mut(r, ResourceType::kProcess,
                                         victim_key)) {
             f->found_in.push_back("threads");
           }
         }), victim_key));
  expect("carve only: finding removed", true,
         check_carve_only(doctor(outside, [&](Report& r) {
           for (auto& d : r.diffs) d.hidden.clear();
         }), victim_key));
  expect("clean: real clean report", false, check_clean(clean));
  expect("clean: a finding added", true,
         check_clean(doctor(clean, [&](Report& r) {
           r.diffs.front().hidden.push_back(Finding{});
         })));
  expect("not degraded: real report", false, check_not_degraded(inside));
  expect("not degraded: a diff marked corrupt", true,
         check_not_degraded(doctor(inside, [](Report& r) {
           r.diffs.back().status = support::Status::corrupt("doctored");
         })));
  expect("no fallback: warm rescan", false, check_no_fallback(warm));
  expect("no fallback: cold-start rescan", true,
         check_no_fallback(cold_start));
  expect("no fallback: incremental block removed", true,
         check_no_fallback(doctor(warm, [](Report& r) {
           r.incremental.reset();
         })));
  const std::string base = normalized(inside.to_json());
  expect("identical: wall time differs only", false,
         check_identical(normalized(doctor(inside, [](Report& r) {
           r.total_wall_seconds += 1.5;
           r.worker_threads = 7;
         }).to_json()), base, "repeat reports"));
  expect("identical: one byte changed", true,
         check_identical(normalized(doctor(inside, [](Report& r) {
           r.total_simulated_seconds += 1;
         }).to_json()), base, "repeat reports"));
  expect("rescan equals cold: real", false,
         check_identical(content_only(warm.to_json()),
                         content_only(cold.to_json()), "rescan vs cold"));
  expect("rescan equals cold: finding dropped from rescan", true,
         check_identical(content_only(doctor(warm, [](Report& r) {
           for (auto& d : r.diffs) d.hidden.clear();
         }).to_json()), content_only(cold.to_json()), "rescan vs cold"));
  return wrong;
}

}  // namespace gbbench
