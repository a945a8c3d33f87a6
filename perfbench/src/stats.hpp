// Summary statistics of the sweep benchmark: percentiles of per-point
// samples and the self time of a trace span.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace perfbench {

/// The p-th percentile (0..100) of `values`, interpolated linearly between
/// the two closest ranks (the "linear" method of numpy and of Python's
/// statistics.quantiles(method="inclusive")). Throws
/// std::invalid_argument on an empty sample or p outside [0, 100].
double percentile(std::vector<double> values, double p);

/// The highest percentile of the ladder {99.9, 99, 90, 50} that still has
/// at least `min_beyond` of `n` samples above it, or nullopt when even the
/// median has fewer. A tail percentile with fewer samples beyond it is a
/// single observation, not a statistic.
std::optional<double> highest_supported_percentile(std::size_t n,
                                                   std::size_t min_beyond = 10);

/// A closed-open time interval [begin, end).
struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// Total length of the union of `intervals` clipped to `clip`: overlapping
/// children count once, and the parts outside `clip` not at all.
double covered_length(std::span<const Interval> intervals, Interval clip);

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover.
double self_time(Interval span, std::span<const Interval> children);

}  // namespace perfbench
