#include "util/statistics.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace dnnlife::util {

double RunningStats::variance() const noexcept {
  return count_ == 0 ? 0.0 : m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  mean_ += delta * (n2 / (n1 + n2));
  m2_ += other.m2_ + delta * delta * n1 * n2 / (n1 + n2);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

double sorted_quantile(std::span<const double> sorted, double q) {
  DNNLIFE_EXPECTS(!sorted.empty(), "quantile of empty sample");
  DNNLIFE_EXPECTS(q >= 0.0 && q <= 1.0, "quantile order out of [0,1]");
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double quantile(std::span<const double> values, double q) {
  std::vector<double> copy(values.begin(), values.end());
  std::sort(copy.begin(), copy.end());
  return sorted_quantile(copy, q);
}

double pearson_correlation(std::span<const double> x, std::span<const double> y) {
  DNNLIFE_EXPECTS(x.size() == y.size(), "correlation input sizes differ");
  DNNLIFE_EXPECTS(x.size() >= 2, "correlation needs >= 2 points");
  RunningStats sx;
  RunningStats sy;
  for (double v : x) sx.add(v);
  for (double v : y) sy.add(v);
  double cov = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    cov += (x[i] - sx.mean()) * (y[i] - sy.mean());
  cov /= static_cast<double>(x.size());
  const double denom = sx.stddev() * sy.stddev();
  DNNLIFE_EXPECTS(denom > 0.0, "correlation of constant series");
  return cov / denom;
}

}  // namespace dnnlife::util
