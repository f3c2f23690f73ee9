// Order statistics and interval arithmetic for the benchmark's metrics.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace gbbench {

/// Nearest-rank percentile (q in (0, 1]) of `values`; 0 for no samples.
/// The sample at rank ceil(q * n) is returned, so exactly
/// n - ceil(q * n) samples lie beyond it.
double percentile(std::vector<double> values, double q);

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Samples strictly beyond the nearest-rank q-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// A percentile is reportable when at least ten samples lie beyond it
/// (so p90 needs n >= 100).
inline bool percentile_reportable(std::size_t n, double q) {
  return n > 0 && samples_beyond(n, q) >= 10;
}

/// Smallest sample count at which the q-th percentile is reportable.
std::size_t min_samples_for(double q);

/// Half-open time interval [first, second), in any unit.
using Interval = std::pair<double, double>;

/// Total length covered by the union of `intervals`, clipped to
/// [lo, hi). Overlapping intervals count once.
double union_length(std::vector<Interval> intervals, double lo, double hi);

/// Self time of a parent span: its length minus the part of it that its
/// children cover (the union, not the sum, so concurrent children that
/// overlap are not subtracted twice).
inline double self_time(const Interval& parent,
                        std::vector<Interval> children) {
  return (parent.second - parent.first) -
         union_length(std::move(children), parent.first, parent.second);
}

}  // namespace gbbench
