#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty())
    throw std::invalid_argument("percentile of an empty sample");
  if (!(p >= 0.0 && p <= 100.0))
    throw std::invalid_argument("percentile outside [0, 100]");
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(rank));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = rank - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * fraction;
}

std::optional<double> highest_supported_percentile(std::size_t n,
                                                   std::size_t min_beyond) {
  // Samples beyond the p-th percentile: n * (100 - p) / 100, compared in
  // tenths of a percent so the ladder stays exact in integers.
  for (const unsigned tenths : {999u, 990u, 900u, 500u})
    if (n * (1000 - tenths) >= min_beyond * 1000) return tenths / 10.0;
  return std::nullopt;
}

double covered_length(std::span<const Interval> intervals, Interval clip) {
  std::vector<Interval> clipped;
  clipped.reserve(intervals.size());
  for (const Interval& interval : intervals) {
    const double begin = std::max(interval.begin, clip.begin);
    const double end = std::min(interval.end, clip.end);
    if (end > begin) clipped.push_back({begin, end});
  }
  std::sort(clipped.begin(), clipped.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  double covered = 0.0;
  double reach = clip.begin;
  for (const Interval& interval : clipped) {
    const double begin = std::max(interval.begin, reach);
    if (interval.end > begin) {
      covered += interval.end - begin;
      reach = interval.end;
    }
  }
  return covered;
}

double self_time(Interval span, std::span<const Interval> children) {
  return (span.end - span.begin) - covered_length(children, span);
}

}  // namespace perfbench
