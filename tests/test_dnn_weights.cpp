// Tests for the synthetic weight streamer and the reference inference
// interpreter.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "dnn/inference.hpp"
#include "dnn/model_zoo.hpp"
#include "dnn/weight_gen.hpp"
#include "util/statistics.hpp"

namespace dnnlife::dnn {
namespace {

Network tiny_network() {
  return Network("tiny", {LayerSpec::conv("c1", 4, 2, 3, 3),
                          LayerSpec::fully_connected("fc", 8, 36)});
}

TEST(WeightStreamer, DeterministicAcrossInstances) {
  const Network net = tiny_network();
  WeightStreamer a(net);
  WeightStreamer b(net);
  for (std::uint64_t g = 0; g < net.total_weights(); ++g)
    EXPECT_EQ(a.weight(g), b.weight(g));
}

TEST(WeightStreamer, SeedChangesWeights) {
  const Network net = tiny_network();
  WeightGenConfig other;
  other.seed = 777;
  WeightStreamer a(net);
  WeightStreamer b(net, other);
  int differing = 0;
  for (std::uint64_t g = 0; g < net.total_weights(); ++g)
    differing += a.weight(g) != b.weight(g) ? 1 : 0;
  EXPECT_GT(differing, static_cast<int>(net.total_weights()) / 2);
}

TEST(WeightStreamer, RandomAccessMatchesSequential) {
  const Network net = tiny_network();
  WeightStreamer streamer(net);
  const float w10 = streamer.weight(10);
  (void)streamer.weight(0);
  (void)streamer.weight(net.total_weights() - 1);
  EXPECT_EQ(streamer.weight(10), w10);
}

TEST(WeightStreamer, LayerSigmaFollowsFanIn) {
  const Network net = tiny_network();
  WeightStreamer streamer(net);
  // conv fan-in = 2*3*3 = 18; fc fan-in = 36.
  EXPECT_NEAR(streamer.layer_sigma(0), std::sqrt(2.0 / 18.0), 1e-12);
  EXPECT_NEAR(streamer.layer_sigma(1), std::sqrt(2.0 / 36.0), 1e-12);
}

TEST(WeightStreamer, EmpiricalSigmaMatchesTarget) {
  // Use a wide FC layer for a large sample; symmetric tensor so the
  // moments are exactly the configured ones.
  Network net("wide", {LayerSpec::fully_connected("fc", 256, 1024)});
  WeightGenConfig config;
  config.tail_asymmetry = 0.0;
  WeightStreamer streamer(net, config);
  util::RunningStats stats;
  for (std::uint64_t g = 0; g < net.total_weights(); ++g)
    stats.add(streamer.weight(g));
  EXPECT_NEAR(stats.mean(), 0.0, 1e-3);
  EXPECT_NEAR(stats.stddev(), streamer.layer_sigma(0), 5e-4);
}

TEST(WeightStreamer, GaussianDistributionOption) {
  Network net("wide", {LayerSpec::fully_connected("fc", 128, 512)});
  WeightGenConfig config;
  config.distribution = WeightDistribution::kGaussian;
  config.tail_asymmetry = 0.0;
  WeightStreamer streamer(net, config);
  util::RunningStats stats;
  double kurtosis_acc = 0.0;
  for (std::uint64_t g = 0; g < net.total_weights(); ++g)
    stats.add(streamer.weight(g));
  for (std::uint64_t g = 0; g < net.total_weights(); ++g) {
    const double z = (streamer.weight(g) - stats.mean()) / stats.stddev();
    kurtosis_acc += z * z * z * z;
  }
  const double kurtosis =
      kurtosis_acc / static_cast<double>(net.total_weights());
  // Gaussian kurtosis ~3; Laplace ~6.
  EXPECT_NEAR(kurtosis, 3.0, 0.5);
}

TEST(WeightStreamer, TailAsymmetrySkewsRangeNotSign) {
  Network net("wide", {LayerSpec::fully_connected("fc", 256, 1024)});
  WeightStreamer streamer(net);  // default gamma = 0.3
  std::uint64_t positive = 0;
  for (std::uint64_t g = 0; g < net.total_weights(); ++g)
    positive += streamer.weight(g) > 0 ? 1u : 0u;
  // Sign split stays 50/50 (the paper's fp32 sign-bit probability ~0.5)...
  EXPECT_NEAR(static_cast<double>(positive) /
                  static_cast<double>(net.total_weights()),
              0.5, 0.01);
  // ...but the range is skewed: max exceeds |min| by roughly (1+g)/(1-g).
  const auto& stats = streamer.layer_stats(0);
  EXPECT_GT(stats.max, 1.4 * std::abs(stats.min));
}

TEST(WeightStreamer, ZeroAsymmetryIsSymmetric) {
  Network net("wide", {LayerSpec::fully_connected("fc", 256, 1024)});
  WeightGenConfig config;
  config.tail_asymmetry = 0.0;
  WeightStreamer streamer(net, config);
  const auto& stats = streamer.layer_stats(0);
  EXPECT_NEAR(stats.max / std::abs(stats.min), 1.0, 0.25);
}

TEST(WeightStreamer, RejectsBadConfig) {
  Network net("t", {LayerSpec::fully_connected("fc", 2, 2)});
  WeightGenConfig bad;
  bad.tail_asymmetry = 1.5;
  EXPECT_THROW(WeightStreamer(net, bad), std::invalid_argument);
  WeightGenConfig bad2;
  bad2.sigma_scale = 0.0;
  EXPECT_THROW(WeightStreamer(net, bad2), std::invalid_argument);
}

TEST(WeightStreamer, LaplaceIsHeavyTailed) {
  Network net("wide", {LayerSpec::fully_connected("fc", 128, 512)});
  WeightStreamer streamer(net);  // Laplace default
  util::RunningStats stats;
  for (std::uint64_t g = 0; g < net.total_weights(); ++g)
    stats.add(streamer.weight(g));
  double kurtosis_acc = 0.0;
  for (std::uint64_t g = 0; g < net.total_weights(); ++g) {
    const double z = (streamer.weight(g) - stats.mean()) / stats.stddev();
    kurtosis_acc += z * z * z * z;
  }
  const double kurtosis =
      kurtosis_acc / static_cast<double>(net.total_weights());
  EXPECT_GT(kurtosis, 4.5);
}

TEST(WeightStreamer, LayerStatsAreCachedAndConsistent) {
  const Network net = tiny_network();
  WeightStreamer streamer(net);
  const auto& stats = streamer.layer_stats(0);
  EXPECT_LE(stats.min, stats.max);
  EXPECT_GE(stats.abs_max, std::abs(stats.min));
  EXPECT_GE(stats.abs_max, std::abs(stats.max));
  // Second call returns the same cached object.
  EXPECT_EQ(&streamer.layer_stats(0), &stats);
}

TEST(WeightStreamer, ConcurrentFirstLayerStatsCallsAgree) {
  // Several threads race on the first layer_stats call of every layer of a
  // fresh streamer (no codec pre-warmed it): each layer's pass runs once and
  // every caller sees the same, fully written result. Run under TSan in CI.
  const Network net = make_custom_mnist();
  const WeightStreamer reference(net);
  const WeightStreamer streamer(net);
  const std::size_t layers = net.weighted_layers().size();
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<const LayerWeightStats*>> seen(
      kThreads, std::vector<const LayerWeightStats*>(layers));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < layers; ++k) {
        const std::size_t w = (k + t) % layers;
        seen[t][w] = &streamer.layer_stats(w);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t w = 0; w < layers; ++w) {
    const LayerWeightStats& expected = reference.layer_stats(w);
    for (std::size_t t = 0; t < kThreads; ++t) {
      ASSERT_EQ(seen[t][w], seen[0][w]);
      EXPECT_EQ(seen[t][w]->min, expected.min);
      EXPECT_EQ(seen[t][w]->max, expected.max);
      EXPECT_EQ(seen[t][w]->mean, expected.mean);
      EXPECT_EQ(seen[t][w]->stddev, expected.stddev);
    }
  }
}

TEST(WeightStreamer, SigmaScaleMultiplies) {
  const Network net = tiny_network();
  WeightGenConfig scaled;
  scaled.sigma_scale = 2.0;
  WeightStreamer a(net);
  WeightStreamer b(net, scaled);
  EXPECT_NEAR(b.layer_sigma(0), 2.0 * a.layer_sigma(0), 1e-12);
  // Same underlying stream: values scale exactly.
  EXPECT_NEAR(b.weight(5), 2.0f * a.weight(5), 1e-6);
}

// ---- inference --------------------------------------------------------------

TEST(Inference, CustomMnistForwardRuns) {
  const Network net = make_custom_mnist();
  WeightStreamer streamer(net);
  StreamerWeightSource source(streamer);
  Tensor3 input(1, 28, 28);
  for (std::uint32_t y = 0; y < 28; ++y)
    for (std::uint32_t x = 0; x < 28; ++x)
      input.at(0, y, x) = static_cast<float>((x + y) % 5) / 5.0f;
  const auto logits = run_inference(net, source, input);
  ASSERT_EQ(logits.size(), 10u);
  // Output must be finite and non-degenerate.
  for (float v : logits) EXPECT_TRUE(std::isfinite(v));
  EXPECT_LT(argmax(logits), 10u);
}

TEST(Inference, IsDeterministic) {
  const Network net = make_custom_mnist();
  WeightStreamer streamer(net);
  StreamerWeightSource source(streamer);
  Tensor3 input(1, 28, 28);
  input.at(0, 14, 14) = 1.0f;
  const auto a = run_inference(net, source, input);
  const auto b = run_inference(net, source, input);
  EXPECT_EQ(a, b);
}

TEST(Inference, LinearInWeightsForSinglePixel) {
  // A one-conv network applied to a delta input reproduces the kernel.
  Network net("probe", {LayerSpec::conv("c", 1, 1, 3, 3)});
  WeightStreamer streamer(net);
  StreamerWeightSource source(streamer);
  Tensor3 input(1, 3, 3);
  input.at(0, 1, 1) = 1.0f;  // centre pixel
  const auto out = run_inference(net, source, input);
  ASSERT_EQ(out.size(), 1u);
  // Output = centre weight of the kernel (index 4).
  EXPECT_FLOAT_EQ(out[0], streamer.weight(4));
}

TEST(Inference, ReluClampsNegative) {
  Network net("relu", {LayerSpec::conv("c", 1, 1, 1, 1), LayerSpec::relu("r")});
  WeightStreamer streamer(net);
  StreamerWeightSource source(streamer);
  Tensor3 input(1, 1, 1);
  input.at(0, 0, 0) = streamer.weight(0) > 0 ? -1.0f : 1.0f;  // force negative
  const auto out = run_inference(net, source, input);
  EXPECT_GE(out[0], 0.0f);
}

TEST(Inference, MaxPoolReducesDims) {
  Network net("pool", {LayerSpec::conv("c", 2, 1, 1, 1),
                       LayerSpec::max_pool("p", 2, 2)});
  WeightStreamer streamer(net);
  StreamerWeightSource source(streamer);
  Tensor3 input(1, 4, 4);
  const auto out = run_inference(net, source, input);
  EXPECT_EQ(out.size(), 2u * 2 * 2);
}

TEST(Inference, ArgmaxRejectsEmpty) {
  EXPECT_THROW(argmax({}), std::invalid_argument);
}

}  // namespace
}  // namespace dnnlife::dnn
