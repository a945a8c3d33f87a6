// Golden payload hashes: FNV-1a-64 over the packed row payload words of one
// inference (each word's bytes, least significant first), in write order.
//
// The pins were captured from the per-slot packer (one WeightStreamer::weight
// and one WeightWordCodec::encode call per slot) before stream construction
// moved to block-wise weight synthesis and set-blocked row packing, so they
// prove the faster path writes exactly the same bits. Both payload paths
// (memoised and re-packed on every visit) must match the same pin.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dnn/model_zoo.hpp"
#include "quant/word_codec.hpp"
#include "sim/accelerator.hpp"
#include "sim/tpu_npu.hpp"

namespace dnnlife::sim {
namespace {

using quant::WeightFormat;

std::uint64_t payload_hash(const WriteStream& stream) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  stream.for_each_write([&](const RowWriteEvent& event) {
    for (const std::uint64_t word : event.words) {
      for (unsigned byte = 0; byte < 8; ++byte) {
        hash ^= (word >> (8 * byte)) & 0xffu;
        hash *= 0x100000001b3ULL;
      }
    }
  });
  return hash;
}

struct Pin {
  WeightFormat format;
  std::uint64_t baseline;
  std::uint64_t npu;
};

TEST(PayloadGolden, CustomMnistBaselineAndNpu32x2) {
  // Default weight generation (Laplace, seed 42, tail asymmetry 0.4);
  // Table I baseline accelerator and a 32-wide, 2-tile NPU.
  const Pin pins[] = {
      {WeightFormat::kFloat32, 0x06afd37774eff332ULL, 0x1467038bca2fa236ULL},
      {WeightFormat::kInt8Symmetric, 0x6fa4ef2370dd89d6ULL,
       0xfab1a9591329906aULL},
      {WeightFormat::kInt8Asymmetric, 0x6f03469f56486a9fULL,
       0x79b995d77d8734d5ULL},
  };
  const dnn::Network network = dnn::make_custom_mnist();
  const dnn::WeightStreamer streamer(network);
  for (const Pin& pin : pins) {
    const quant::WeightWordCodec codec(streamer, pin.format);
    for (const bool cache : {true, false}) {
      SCOPED_TRACE(quant::to_string(pin.format) +
                   (cache ? " (memoised)" : " (re-packed)"));
      BaselineAcceleratorConfig baseline;
      baseline.cache_encoded_rows = cache;
      TpuNpuConfig npu;
      npu.array_dim = 32;
      npu.fifo_tiles = 2;
      npu.cache_encoded_rows = cache;
      EXPECT_EQ(payload_hash(BaselineWeightStream(codec, baseline)),
                pin.baseline);
      EXPECT_EQ(payload_hash(NpuWeightStream(codec, npu)), pin.npu);
    }
  }
}

TEST(PayloadGolden, SmallGaussianNetwork) {
  // Grouped conv and a set/filter geometry that leaves padded tails: f = 3
  // filters of N = 5 weights per baseline row, a 4-wide NPU.
  const Pin pins[] = {
      {WeightFormat::kFloat32, 0xe60ea18371e5fd2cULL, 0x0a7e5801a06cf5c4ULL},
      {WeightFormat::kInt8Symmetric, 0xd4adfdcaf405f5caULL,
       0x890016706e45bb72ULL},
      {WeightFormat::kInt8Asymmetric, 0x9433eb97b54c9beaULL,
       0xf41767c064f517aaULL},
  };
  using L = dnn::LayerSpec;
  std::vector<L> layers;
  layers.push_back(L::conv("c1", 6, 3, 3, 3));
  layers.push_back(L::relu("r1"));
  layers.push_back(L::conv("c2", 10, 6, 3, 3, 1, 0, 2));
  layers.push_back(L::fully_connected("fc", 13, 37));
  const dnn::Network network("gauss_toy", std::move(layers));
  dnn::WeightGenConfig config;
  config.distribution = dnn::WeightDistribution::kGaussian;
  config.seed = 1234;
  config.tail_asymmetry = 0.25;
  const dnn::WeightStreamer streamer(network, config);
  for (const Pin& pin : pins) {
    SCOPED_TRACE(quant::to_string(pin.format));
    const quant::WeightWordCodec codec(streamer, pin.format);
    BaselineAcceleratorConfig baseline;
    baseline.weight_memory_bytes = 1024;
    baseline.pe_count = 3;
    baseline.multipliers_per_pe = 5;
    TpuNpuConfig npu;
    npu.array_dim = 4;
    npu.fifo_tiles = 2;
    EXPECT_EQ(payload_hash(BaselineWeightStream(codec, baseline)),
              pin.baseline);
    EXPECT_EQ(payload_hash(NpuWeightStream(codec, npu)), pin.npu);
  }
}

}  // namespace
}  // namespace dnnlife::sim
