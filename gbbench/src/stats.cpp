#include "stats.h"

#include <algorithm>
#include <cmath>

namespace gbbench {

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const std::size_t idx = nearest_rank(values.size(), q) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(idx),
                   values.end());
  return values[idx];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - nearest_rank(n, q);
}

std::size_t min_samples_for(double q) {
  std::size_t n = 1;
  while (!percentile_reportable(n, q)) ++n;
  return n;
}

double union_length(std::vector<Interval> intervals, double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0;
  double run_start = 0, run_end = 0;
  bool open = false;
  for (auto [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= run_end) {
      run_end = std::max(run_end, b);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = a;
    run_end = b;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return covered;
}

}  // namespace gbbench
