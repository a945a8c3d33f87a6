#include "dnn/weight_gen.hpp"

#include <algorithm>
#include <cmath>

#include "util/statistics.hpp"

namespace dnnlife::dnn {

namespace {

/// Values per inner block of fill(): the uniforms of one block live on the
/// stack between the integer pass and the log pass.
constexpr std::size_t kFillBlock = 64;

/// Values per fill() call of the layer_stats range pass.
constexpr std::size_t kStatsBlock = 1024;

}  // namespace

WeightStreamer::WeightStreamer(const Network& network, WeightGenConfig config)
    : network_(&network), config_(config),
      stats_(network.weighted_layers().size()) {
  DNNLIFE_EXPECTS(config_.tail_asymmetry >= 0.0 && config_.tail_asymmetry < 1.0,
                  "tail asymmetry out of [0, 1)");
  DNNLIFE_EXPECTS(config_.sigma_scale > 0.0, "sigma scale must be positive");
  const auto& weighted = network.weighted_layers();
  layers_.reserve(weighted.size());
  for (std::size_t w = 0; w < weighted.size(); ++w) {
    const auto& layer = network.layers()[weighted[w]];
    const double fan_in = static_cast<double>(layer.fan_in());
    LayerGen gen;
    gen.key = util::CounterRng(util::derive_seed(config_.seed, w + 1)).key();
    gen.count = layer.weight_count();
    gen.sigma = config_.sigma_scale * std::sqrt(2.0 / fan_in);
    // Laplace with stddev sigma has scale b = sigma / sqrt(2).
    gen.laplace_scale = gen.sigma / std::sqrt(2.0);
    layers_.push_back(gen);
  }
  // Skew the two half-distributions, renormalised to keep stddev sigma:
  // Var[skewed] = sigma^2 * ((1+g)^2 + (1-g)^2) / 2 = sigma^2 (1 + g^2).
  // gamma = 0 gives factors of exactly 1.0, an identity multiply.
  const double gamma = config_.tail_asymmetry;
  const double norm = std::sqrt(1.0 + gamma * gamma);
  skew_[0] = (1.0 - gamma) / norm;
  skew_[1] = (1.0 + gamma) / norm;
}

float WeightStreamer::weight(std::uint64_t g) const {
  const std::size_t w = network_->weighted_layer_of(g);
  float value = 0.0f;
  fill(w, g - network_->weight_offset(w), std::span<float>(&value, 1));
  return value;
}

void WeightStreamer::fill(std::size_t w, std::uint64_t begin,
                          std::span<float> out) const {
  DNNLIFE_EXPECTS(w < layers_.size(), "weighted-layer index out of range");
  const LayerGen& gen = layers_[w];
  DNNLIFE_EXPECTS(begin <= gen.count && out.size() <= gen.count - begin,
                  "fill range outside the layer");
  double u[kFillBlock];
  double value[kFillBlock];
  for (std::size_t base = 0; base < out.size(); base += kFillBlock) {
    const std::size_t n = std::min(kFillBlock, out.size() - base);
    const std::uint64_t first = gen.key + begin + base;
    for (std::size_t i = 0; i < n; ++i)
      u[i] = util::open_unit_double(util::splitmix64(first + i));
    switch (config_.distribution) {
      case WeightDistribution::kGaussian:
        for (std::size_t i = 0; i < n; ++i)
          value[i] = gen.sigma * util::inverse_normal_cdf(u[i]);
        break;
      case WeightDistribution::kLaplace:
        // Inverse CDF, -b * sgn(c) * log(1 - 2|c|) for c = u - 1/2, with
        // the sign folded into the scale: copysign(b, -c) is exactly
        // -b * sgn(c), including -b at c == +0 (sgn taken as +1 there).
        for (std::size_t i = 0; i < n; ++i) {
          const double c = u[i] - 0.5;
          value[i] = std::copysign(gen.laplace_scale, -c) *
                     std::log(1.0 - 2.0 * std::abs(c));
        }
        break;
    }
    float* dst = out.data() + base;
    for (std::size_t i = 0; i < n; ++i)
      dst[i] = static_cast<float>(value[i] * skew_[value[i] > 0.0 ? 1 : 0]);
  }
}

const LayerWeightStats& WeightStreamer::layer_stats(std::size_t w) const {
  DNNLIFE_EXPECTS(w < stats_.size(), "weighted-layer index out of range");
  LazyStats& slot = stats_[w];
  std::call_once(slot.once, [&] {
    util::RunningStats acc;
    float block[kStatsBlock];
    const std::uint64_t count = layers_[w].count;
    for (std::uint64_t begin = 0; begin < count; begin += kStatsBlock) {
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(kStatsBlock, count - begin));
      fill(w, begin, std::span<float>(block, n));
      for (std::size_t i = 0; i < n; ++i) acc.add(block[i]);
    }
    slot.stats.min = acc.min();
    slot.stats.max = acc.max();
    slot.stats.abs_max = std::max(std::abs(acc.min()), std::abs(acc.max()));
    slot.stats.mean = acc.mean();
    slot.stats.stddev = acc.stddev();
  });
  return slot.stats;
}

double WeightStreamer::layer_sigma(std::size_t w) const {
  DNNLIFE_EXPECTS(w < layers_.size(), "weighted-layer index out of range");
  return layers_[w].sigma;
}

}  // namespace dnnlife::dnn
