// Correctness checks on scan reports. Every check returns "" when it
// passes and a one-line reason when it fails; a failed check counts the
// operation as failed (failed_frac).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/scan_engine.h"

namespace gbbench {

/// gb::client::normalized_report_json (wall_seconds, queue_seconds and
/// worker_threads set to 0) with the journal cursor, which only
/// advances, set to 0 too. The projection in which repeats of one
/// machine state are byte-identical.
std::string normalized(std::string_view report_json);

/// normalized() with the "scheduler" and "incremental" blocks nulled:
/// the part of a report that a daemon job, a session rescan and a cold
/// engine run of the same state all agree on.
std::string content_only(std::string_view report_json);

/// First numeric value of `"key":` in `json`, or -1 when absent.
double json_number(std::string_view json, std::string_view key);

/// Every path in `hidden_paths` is a file finding that the trusted view
/// `view_id` saw and the API view did not.
std::string check_hidden_files(const gb::core::Report& report,
                               const std::vector<std::string>& hidden_paths,
                               const std::string& view_id);

/// The process `process_key` is a finding seen by the carve view alone.
std::string check_carve_only(const gb::core::Report& report,
                             const std::string& process_key);

/// No findings at all (hidden or extra) in any diff.
std::string check_clean(const gb::core::Report& report);

/// No diff is degraded.
std::string check_not_degraded(const gb::core::Report& report);

/// The rescan synced from the change journal, not by a full walk.
std::string check_no_fallback(const gb::core::Report& report);

/// Byte equality of two already-normalized reports.
std::string check_identical(const std::string& got, const std::string& want,
                            const char* what);

/// Runs every check on real reports of a small machine and on doctored
/// copies of them: each check must pass on the real report and fire on
/// each doctored one. Prints one line per case; returns the number of
/// cases that behaved wrongly.
int self_test_checks();

}  // namespace gbbench
