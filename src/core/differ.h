// The cross-view differ — the paper's central mechanism, generalized to
// N views.
//
// Given snapshots of the same state taken at the same time from several
// points of view, anything present in a more-trusted view but absent
// from the API view is being hidden. (Contrast with Tripwire's
// cross-*time* diff, which compares different points in time and suffers
// legitimate-change false positives; cross-view diffs are nearly FP-free
// because "legitimate programs rarely hide".)
//
// The differ builds a per-resource *presence matrix* over the view list:
// each finding records exactly which views saw the resource (found_in)
// and which did not (missing_from), so a three-way file check (API walk,
// directory-index walk, raw MFT scan) or a four-way process check
// (API, Active Process List, thread table, signature carve) reports not
// just "hidden" but *which layer the lie lives at*. The classic pairwise
// diff is the N == 2 special case.
#pragma once

#include <span>

#include "core/scan_result.h"
#include "support/status.h"
#include "support/thread_pool.h"

namespace gb::core {

/// One hidden (or anomalous extra) resource. The view-id vectors list,
/// in view registration order, which views contained the resource and
/// which completed views did not — the row of the presence matrix that
/// produced the finding.
struct Finding {
  Resource resource;
  ResourceType type = ResourceType::kFile;
  std::vector<std::string> found_in;      // view ids that saw it
  std::vector<std::string> missing_from;  // completed view ids that did not
};

/// One view's contribution to an N-view diff. `result` is null when the
/// view failed (status then says why); views[0] is always the untrusted
/// API view and the rest are trusted views in registration order.
struct ViewInput {
  std::string id;  // short stable id findings reference ("api", "mft")
  TrustLevel trust = TrustLevel::kTruthApproximation;
  const ScanResult* result = nullptr;
  support::Status status;

  [[nodiscard]] bool ok() const { return result != nullptr && status.ok(); }
};

/// Per-view outcome embedded in a DiffReport (the "views" block of
/// schema v2.5).
struct ViewSummary {
  std::string id;
  std::string name;  // full view name; "(scan failed)" when degraded
  TrustLevel trust = TrustLevel::kTruthApproximation;
  std::size_t count = 0;
  support::Status status;

  [[nodiscard]] bool degraded() const { return !status.ok(); }
};

/// Result of diffing one resource type across N views.
struct DiffReport {
  ResourceType type = ResourceType::kFile;
  /// Every contributing view in registration order (API view first).
  std::vector<ViewSummary> views;
  /// Pairwise projection of `views`, kept for the classic two-view
  /// report surface: the API view's name and the *last completed*
  /// trusted view's name/trust (the deepest truth source that ran).
  std::string high_view;
  std::string low_view;
  TrustLevel low_trust = TrustLevel::kTruthApproximation;

  /// In at least one completed trusted view but not the API view: hidden.
  std::vector<Finding> hidden;
  /// In the API view but missing from at least one completed trusted
  /// view. Normally empty; nonempty means a "truth" source itself was
  /// subverted (e.g. FU vs. the basic low-level scan) or state changed
  /// between snapshots.
  std::vector<Finding> extra;

  std::size_t high_count = 0;
  std::size_t low_count = 0;
  double simulated_seconds = 0;  // filled by the orchestrator

  double wall_seconds = 0;       // filled by the orchestrator

  /// OK when every contributing view completed. Non-OK means at least
  /// one view failed (torn hive, scrubbed dump, trashed boot sector) and
  /// this diff is degraded: `status` carries the first failed trusted
  /// view's error (or the API view's, when only it failed). Findings
  /// cover only the views that completed — with no completed trusted
  /// view, or a failed API view, hidden/extra are empty placeholders.
  support::Status status;

  [[nodiscard]] bool degraded() const { return !status.ok(); }
  [[nodiscard]] bool clean() const { return hidden.empty() && extra.empty(); }
};

/// The one shard cost model for every parallel differ (cross-view and
/// cross-time). Replaces the old per-session DiffPolicy knob: tuning
/// shard counts per scan bought nothing measurable, so the policy is now
/// a documented constant.
///
/// Cost model: partitioning costs one hash + pointer push per resource,
/// and the merge-back costs a sort of the findings. The linear serial
/// merge costs ~one comparison per resource. Sharding therefore only
/// pays once the per-resource work is amortized across enough input —
/// below kMinResources the partition overhead alone exceeds the whole
/// serial merge. Above it, one shard per executor plus one keeps every
/// worker busy while the caller participates; past kMaxShards the
/// per-shard fixed costs (task dispatch, span, output vector) dominate
/// any remaining parallelism on machines this project targets.
struct ShardPlan {
  /// Combined resource count below which the serial path is cheaper.
  static constexpr std::size_t kMinResources = 2048;
  /// Hard ceiling on shard fan-out.
  static constexpr std::size_t kMaxShards = 64;

  /// Shard count for a pool with `executors` workers: `requested` when
  /// nonzero, else executors + 1 (workers plus the participating
  /// caller), clamped to kMaxShards.
  [[nodiscard]] static std::size_t shards_for(std::size_t executors,
                                              std::size_t requested = 0);
};

/// The header half of an N-view diff — everything but the findings: the
/// "views" block (`api` first, then one row per trusted view; a failed
/// view is named "(scan failed)"), the pairwise projection onto the last
/// completed trusted view, and the degradation status (the first failed
/// trusted view, else the API view's). cross_view_matrix_diff builds its
/// header here; so does a caller whose API row is not one scan (the
/// injected sweep's union over every process).
[[nodiscard]] DiffReport cross_view_header(ResourceType type, ViewSummary api,
                                           std::span<const ViewInput> trusted);

/// Diffs N views of one resource type into a presence matrix.
/// views[0] is the API view; the rest are trusted views in registration
/// order. Completed views' results must be normalized. With a pool and
/// enough combined input (ShardPlan), every view is partitioned by a
/// stable key hash and the shards merge concurrently — byte-identical to
/// the serial merge at any worker or shard count.
[[nodiscard]] DiffReport cross_view_matrix_diff(
    ResourceType type, const std::vector<ViewInput>& views,
    support::ThreadPool* pool = nullptr, std::size_t shards = 0);

/// Classic pairwise diff: the N == 2 matrix with view names as view ids.
/// Both inputs must be normalized.
[[nodiscard]] DiffReport cross_view_diff(const ScanResult& high,
                                         const ScanResult& low);

/// Sharded pairwise variant (see cross_view_matrix_diff).
[[nodiscard]] DiffReport cross_view_diff(const ScanResult& high,
                                         const ScanResult& low,
                                         support::ThreadPool* pool,
                                         std::size_t shards = 0);

}  // namespace gb::core
