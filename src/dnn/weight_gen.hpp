// Synthetic "pre-trained" weight generation.
//
// Substitution (see README.md, "Substitutions"): the paper analyses
// pre-trained ImageNet models; offline we synthesise weights whose
// *distribution* matches what training produces — zero-centred, sharply
// peaked, fan-in-scaled spread.
// Trained CNN weight tensors are well modelled by a Laplacian (default) or
// Gaussian; either reproduces the paper's Fig. 6 per-bit-probability
// profiles (mantissa ~ 0.5, exponent strongly biased, int8-symmetric ~ 0.5,
// int8-asymmetric biased).
//
// Weights are produced by a counter-based RNG: weight(g) is a pure function
// of (seed, network, g), so a 138 M-parameter model streams without being
// materialised, and any traversal order sees identical values.
//
// fill() is the one implementation of the per-value math; it works a block
// at a time with every per-layer constant hoisted and no data-dependent
// branch (see README.md, "Performance kernels"). weight(g) is a one-element
// fill().
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "dnn/network.hpp"
#include "util/rng.hpp"

namespace dnnlife::dnn {

enum class WeightDistribution { kGaussian, kLaplace };

struct WeightGenConfig {
  WeightDistribution distribution = WeightDistribution::kLaplace;
  std::uint64_t seed = 42;
  /// Spread multiplier on top of the He-style sqrt(2 / fan_in) scale.
  double sigma_scale = 1.0;
  /// Tail skew gamma in [0, 1): positive draws are stretched by (1+gamma)
  /// and negative ones compressed by (1-gamma), then renormalised so the
  /// standard deviation stays sigma. Trained weight tensors have skewed
  /// min/max ranges (their |min| != max), which is exactly what makes
  /// asymmetric range-linear quantization produce the biased bit
  /// distributions of the paper's Fig. 6; gamma = 0 yields a perfectly
  /// symmetric tensor. The sign split stays 50/50 either way.
  double tail_asymmetry = 0.4;
};

/// Cached per-layer range statistics (computed by one streaming pass).
struct LayerWeightStats {
  double min = 0.0;
  double max = 0.0;
  double abs_max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
};

class WeightStreamer {
 public:
  WeightStreamer(const Network& network, WeightGenConfig config = {});

  const Network& network() const noexcept { return *network_; }
  const WeightGenConfig& config() const noexcept { return config_; }

  /// The value of the global weight index `g` (see Network for ordering).
  float weight(std::uint64_t g) const;

  /// The values of weights [begin, begin + out.size()) of weighted layer
  /// `w` (index into Network::weighted_layers()), as layer-local indices:
  /// out[i] is bit-identical to weight(weight_offset(w) + begin + i). The
  /// range must lie inside the layer.
  void fill(std::size_t w, std::uint64_t begin, std::span<float> out) const;

  /// Range statistics of weighted layer `w` (index into
  /// Network::weighted_layers()); computed on first use and cached. Safe to
  /// call concurrently: each layer's pass runs exactly once.
  const LayerWeightStats& layer_stats(std::size_t w) const;

  /// Per-layer Laplace/Gaussian scale parameter (sigma).
  double layer_sigma(std::size_t w) const;

 private:
  /// Per-layer constants of the generator, hoisted out of fill().
  struct LayerGen {
    std::uint64_t key = 0;       ///< CounterRng key of the layer's stream
    std::uint64_t count = 0;     ///< weights in the layer
    double sigma = 0.0;
    double laplace_scale = 0.0;  ///< sigma / sqrt(2)
  };
  struct LazyStats {
    std::once_flag once;
    LayerWeightStats stats;
  };

  const Network* network_;  // non-owning; must outlive the streamer
  WeightGenConfig config_;
  std::vector<LayerGen> layers_;  // one decorrelated stream per layer
  /// Tail-skew factor of a value, indexed by (value > 0).
  double skew_[2] = {1.0, 1.0};
  mutable std::vector<LazyStats> stats_;
};

}  // namespace dnnlife::dnn
