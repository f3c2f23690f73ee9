#include "core/differ.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/trace.h"
#include "support/checksum.h"

namespace gb::core {

namespace {

constexpr std::string_view kFailedViewName = "(scan failed)";

/// One view's row of the "views" block: a completed view's name and
/// count, or "(scan failed)" and why.
ViewSummary summarize_view(const ViewInput& v) {
  ViewSummary s;
  s.id = v.id;
  s.trust = v.trust;
  if (v.ok()) {
    s.name = v.result->view_name;
    s.count = v.result->resources.size();
  } else {
    s.name = std::string(kFailedViewName);
    // A null result with an OK status is a caller bug; never let it
    // masquerade as a completed view.
    s.status = v.status.ok()
                   ? support::Status::internal("view produced no result")
                   : v.status;
  }
  return s;
}

/// One completed view's contribution to a merge: its short id plus the
/// (sorted) entries it saw. mv[0] is always the API view.
struct MergeView {
  const std::string* id = nullptr;
  std::vector<const Resource*> entries;
};

/// The k-way linear merge at the heart of the matrix differ. Walks all
/// completed views' sorted entry lists in lock-step; for each distinct
/// key it materializes the presence row and classifies:
///   - absent from the API view, present in >= 1 trusted view -> hidden;
///   - present in the API view, absent from >= 1 trusted view -> extra.
/// Emits findings in ascending key order. Only ever called with the API
/// view completed and at least one trusted view completed.
void merge_views(ResourceType type, const std::vector<MergeView>& mv,
                 std::vector<Finding>& hidden, std::vector<Finding>& extra) {
  std::vector<std::size_t> pos(mv.size(), 0);
  for (;;) {
    const std::string* min_key = nullptr;
    for (std::size_t v = 0; v < mv.size(); ++v) {
      if (pos[v] >= mv[v].entries.size()) continue;
      const std::string& k = mv[v].entries[pos[v]]->key;
      if (min_key == nullptr || k < *min_key) min_key = &k;
    }
    if (min_key == nullptr) break;

    bool in_api = false;
    const Resource* api_res = nullptr;
    const Resource* first_trusted_res = nullptr;
    std::vector<std::string> containing;  // trusted ids that saw the key
    std::vector<std::string> missing;     // trusted ids that did not
    for (std::size_t v = 0; v < mv.size(); ++v) {
      const bool has = pos[v] < mv[v].entries.size() &&
                       mv[v].entries[pos[v]]->key == *min_key;
      if (v == 0) {
        in_api = has;
        if (has) api_res = mv[v].entries[pos[v]];
      } else if (has) {
        if (first_trusted_res == nullptr) {
          first_trusted_res = mv[v].entries[pos[v]];
        }
        containing.push_back(*mv[v].id);
      } else {
        missing.push_back(*mv[v].id);
      }
      if (has) ++pos[v];
    }

    if (!in_api && first_trusted_res != nullptr) {
      Finding f;
      f.resource = *first_trusted_res;
      f.type = type;
      f.found_in = std::move(containing);
      f.missing_from.reserve(1 + missing.size());
      f.missing_from.push_back(*mv[0].id);
      f.missing_from.insert(f.missing_from.end(), missing.begin(),
                            missing.end());
      hidden.push_back(std::move(f));
    } else if (in_api && !missing.empty()) {
      Finding f;
      f.resource = *api_res;
      f.type = type;
      f.found_in.reserve(1 + containing.size());
      f.found_in.push_back(*mv[0].id);
      f.found_in.insert(f.found_in.end(), containing.begin(),
                        containing.end());
      f.missing_from = std::move(missing);
      extra.push_back(std::move(f));
    }
  }
}

}  // namespace

std::size_t ShardPlan::shards_for(std::size_t executors,
                                  std::size_t requested) {
  const std::size_t n = requested == 0 ? executors + 1 : requested;
  return std::min(n, kMaxShards);
}

DiffReport cross_view_header(ResourceType type, ViewSummary api,
                             std::span<const ViewInput> trusted) {
  DiffReport report;
  report.type = type;
  report.views.reserve(1 + trusted.size());
  report.views.push_back(std::move(api));
  for (const auto& v : trusted) report.views.push_back(summarize_view(v));

  // Pairwise projection: the API view vs. the *last* completed trusted
  // view — the deepest truth source that ran.
  report.high_view = report.views[0].name;
  report.high_count = report.views[0].count;
  report.low_view = std::string(kFailedViewName);
  for (std::size_t v = report.views.size(); v-- > 1;) {
    if (!report.views[v].degraded()) {
      report.low_view = report.views[v].name;
      report.low_trust = report.views[v].trust;
      report.low_count = report.views[v].count;
      break;
    }
  }

  // Degradation: the first failed trusted view wins (registration
  // order), then a failed API view. Matches the pairwise rule
  // `low.ok() ? high.status() : low.status()`.
  for (std::size_t v = 1; v < report.views.size(); ++v) {
    if (report.views[v].degraded()) {
      report.status = report.views[v].status;
      break;
    }
  }
  if (report.status.ok()) report.status = report.views[0].status;
  return report;
}

DiffReport cross_view_matrix_diff(ResourceType type,
                                  const std::vector<ViewInput>& views,
                                  support::ThreadPool* pool,
                                  std::size_t shards) {
  if (views.empty()) {
    throw std::invalid_argument(
        "cross_view_matrix_diff: needs at least the API view");
  }
  for (const auto& v : views) {
    if (v.ok() && v.result->type != type) {
      throw std::invalid_argument(
          "cross_view_matrix_diff: resource type mismatch");
    }
  }
  const std::span<const ViewInput> trusted(views.begin() + 1, views.end());
  DiffReport report =
      cross_view_header(type, summarize_view(views[0]), trusted);

  // Findings need the API view and at least one trusted view to have
  // completed; the surviving views still produce evidence when another
  // trusted view failed (the diff is degraded *and* has findings).
  if (!views[0].ok() || std::ranges::none_of(trusted, &ViewInput::ok)) {
    return report;
  }
  std::size_t total = 0;
  for (const auto& s : report.views) total += s.count;

  std::vector<MergeView> mv;
  mv.reserve(views.size());
  for (const auto& v : views) {
    if (!v.ok()) continue;
    MergeView m;
    m.id = &v.id;
    m.entries.reserve(v.result->resources.size());
    for (const auto& r : v.result->resources) m.entries.push_back(&r);
    mv.push_back(std::move(m));
  }

  const std::size_t want =
      (pool != nullptr && pool->size() > 0 && total >= ShardPlan::kMinResources)
          ? ShardPlan::shards_for(pool->size(), shards)
          : 1;
  if (want <= 1) {
    auto span = obs::default_tracer().span("diff.merge", "diff");
    span.arg("views", std::to_string(mv.size()));
    span.arg("total", std::to_string(total));
    merge_views(type, mv, report.hidden, report.extra);
    return report;
  }

  // Partition every (sorted) view by key hash. Within a shard the
  // subsequences stay sorted, so each shard runs the same k-way merge
  // as the serial path; shard assignment depends only on the key, never
  // on the worker count.
  std::vector<std::vector<MergeView>> shard_views(want);
  for (auto& sv : shard_views) {
    sv.resize(mv.size());
    for (std::size_t v = 0; v < mv.size(); ++v) sv[v].id = mv[v].id;
  }
  for (std::size_t v = 0; v < mv.size(); ++v) {
    for (const Resource* r : mv[v].entries) {
      shard_views[support::fnv1a(r->key) % want][v].entries.push_back(r);
    }
  }

  struct ShardOut {
    std::vector<Finding> hidden;
    std::vector<Finding> extra;
  };
  std::vector<ShardOut> outs(want);
  pool->parallel_for(want, [&](std::size_t s) {
    auto span = obs::default_tracer().span("diff.shard", "diff");
    span.arg("shard", std::to_string(s));
    merge_views(type, shard_views[s], outs[s].hidden, outs[s].extra);
  });

  for (auto& o : outs) {
    std::move(o.hidden.begin(), o.hidden.end(),
              std::back_inserter(report.hidden));
    std::move(o.extra.begin(), o.extra.end(),
              std::back_inserter(report.extra));
  }
  // Back into key order: exactly the order the serial merge emits
  // (normalized inputs have unique keys, so the order is total).
  auto by_key = [](const Finding& a, const Finding& b) {
    return a.resource.key < b.resource.key;
  };
  std::sort(report.hidden.begin(), report.hidden.end(), by_key);
  std::sort(report.extra.begin(), report.extra.end(), by_key);
  return report;
}

DiffReport cross_view_diff(const ScanResult& high, const ScanResult& low) {
  return cross_view_diff(high, low, nullptr, 0);
}

DiffReport cross_view_diff(const ScanResult& high, const ScanResult& low,
                           support::ThreadPool* pool, std::size_t shards) {
  if (high.type != low.type) {
    throw std::invalid_argument("cross_view_diff: resource type mismatch");
  }
  std::vector<ViewInput> views(2);
  views[0].id = high.view_name;
  views[0].trust = high.trust;
  views[0].result = &high;
  views[1].id = low.view_name;
  views[1].trust = low.trust;
  views[1].result = &low;
  return cross_view_matrix_diff(high.type, views, pool, shards);
}

}  // namespace gb::core
