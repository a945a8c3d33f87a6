// Differential oracle for block-wise stream construction on generated
// inputs: seeded random networks (mixed conv/FC layers, grouped convs, sets
// narrower than f, filter tails shorter than N) under random dataflow
// shapes, all three formats, both weight distributions, zero and random
// tail skew and random seeds. The block paths must reproduce the per-value
// ones bit for bit:
//  * WeightStreamer::fill == weight(g) over random ranges;
//  * the set-blocked payload (pack_tiled_rows, through both the memoised
//    and the re-packing stream paths) == per-slot pack_row_words over
//    TiledRowSource::visit_rows;
//  * layer statistics and quantization parameters == a RunningStats pass
//    over weight(g).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "quant/word_codec.hpp"
#include "sim/accelerator.hpp"
#include "sim/row_packing.hpp"
#include "sim/tpu_npu.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"
#include "util/statistics.hpp"

namespace dnnlife::sim {
namespace {

using quant::WeightFormat;

constexpr WeightFormat kFormats[] = {WeightFormat::kFloat32,
                                     WeightFormat::kInt8Symmetric,
                                     WeightFormat::kInt8Asymmetric};

std::uint32_t below(util::Xoshiro256ss& rng, std::uint64_t bound) {
  return static_cast<std::uint32_t>(rng.next_below(bound));
}

/// 1-4 weighted layers, each a (possibly grouped) conv or an FC layer, with
/// shapes small enough to enumerate every row of every configuration.
dnn::Network random_network(util::Xoshiro256ss& rng) {
  using L = dnn::LayerSpec;
  std::vector<L> layers;
  const std::uint32_t count = 1 + below(rng, 4);
  for (std::uint32_t k = 0; k < count; ++k) {
    std::string name = "l";
    name += std::to_string(k);
    if (rng.next_bernoulli(0.5)) {
      const std::uint32_t groups = rng.next_bernoulli(0.3) ? 2 : 1;
      const std::uint32_t kernel = 1 + below(rng, 3);
      layers.push_back(L::conv(name, groups * (1 + below(rng, 12)),
                               groups * (1 + below(rng, 4)), kernel, kernel,
                               1, 0, groups));
      layers.push_back(L::relu(name + "_relu"));
    } else {
      layers.push_back(
          L::fully_connected(name, 1 + below(rng, 20), 1 + below(rng, 60)));
    }
  }
  return dnn::Network("random", std::move(layers));
}

dnn::WeightGenConfig random_gen_config(util::Xoshiro256ss& rng) {
  dnn::WeightGenConfig config;
  config.distribution = rng.next_bernoulli(0.5)
                            ? dnn::WeightDistribution::kLaplace
                            : dnn::WeightDistribution::kGaussian;
  config.seed = rng.next();
  config.sigma_scale = 0.25 + 2.0 * rng.next_double();
  config.tail_asymmetry = rng.next_bernoulli(0.3) ? 0.0
                                                  : 0.95 * rng.next_double();
  return config;
}

/// Per-slot reference payload: every dataflow row through pack_row_words.
std::vector<std::uint64_t> reference_payload(const TiledRowSource& rows,
                                             const quant::WeightWordCodec& codec,
                                             std::uint32_t words_per_row) {
  std::vector<std::uint64_t> out(rows.total_rows() * words_per_row);
  rows.visit_rows([&](std::uint64_t row_index,
                      std::span<const std::int64_t> slots) {
    pack_row_words(codec, slots,
                   std::span<std::uint64_t>(
                       out.data() + row_index * words_per_row, words_per_row));
  });
  return out;
}

std::vector<std::uint64_t> stream_payload(const WriteStream& stream) {
  std::vector<std::uint64_t> out;
  stream.for_each_write([&](const RowWriteEvent& event) {
    out.insert(out.end(), event.words.begin(), event.words.end());
  });
  return out;
}

TEST(StreamBlocked, FillMatchesWeightBitwise) {
  util::Xoshiro256ss rng(0x5eed0001);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const dnn::Network network = random_network(rng);
    const dnn::WeightStreamer streamer(network, random_gen_config(rng));
    for (std::size_t w = 0; w < network.weighted_layers().size(); ++w) {
      const std::uint64_t count =
          network.layers()[network.weighted_layers()[w]].weight_count();
      const std::uint64_t offset = network.weight_offset(w);
      for (int range = 0; range < 6; ++range) {
        // Range 0 is the whole layer; the rest are random, some longer
        // than one internal fill block.
        const std::uint64_t begin = range == 0 ? 0 : rng.next_below(count);
        const std::uint64_t length =
            range == 0 ? count : rng.next_below(count - begin + 1);
        std::vector<float> block(length);
        streamer.fill(w, begin, block);
        for (std::uint64_t i = 0; i < length; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(block[i]),
                    std::bit_cast<std::uint32_t>(
                        streamer.weight(offset + begin + i)))
              << "layer " << w << " index " << begin + i;
        }
      }
    }
  }
}

TEST(StreamBlocked, FillRejectsRangesOutsideTheLayer) {
  util::Xoshiro256ss rng(0x5eed0002);
  const dnn::Network network = random_network(rng);
  const dnn::WeightStreamer streamer(network);
  const std::uint64_t count =
      network.layers()[network.weighted_layers()[0]].weight_count();
  std::vector<float> block(2);
  EXPECT_THROW(streamer.fill(0, count - 1, block), std::invalid_argument);
  EXPECT_THROW(streamer.fill(network.weighted_layers().size(), 0, block),
               std::invalid_argument);
  EXPECT_NO_THROW(streamer.fill(0, count, std::span<float>()));
}

TEST(StreamBlocked, SetBlockedPayloadMatchesPerSlotReference) {
  util::Xoshiro256ss rng(0x5eed0003);
  for (int trial = 0; trial < 50; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const dnn::Network network = random_network(rng);
    const dnn::WeightStreamer streamer(network, random_gen_config(rng));
    const std::uint32_t f = 1 + below(rng, 9);
    const std::uint32_t n = 1 + below(rng, 7);
    const std::uint32_t npu_dim = 1 + below(rng, 40);
    for (const WeightFormat format : kFormats) {
      SCOPED_TRACE(quant::to_string(format) + " f=" + std::to_string(f) +
                   " N=" + std::to_string(n) +
                   " npu=" + std::to_string(npu_dim));
      const quant::WeightWordCodec codec(streamer, format);
      const std::uint32_t row_bits = f * n * codec.bits();
      const TiledRowSource baseline_rows(network, {f, n});
      const auto baseline_expected = reference_payload(
          baseline_rows, codec,
          static_cast<std::uint32_t>(util::ceil_div(row_bits, 64)));
      const TiledRowSource npu_rows(network, {npu_dim, 1});
      const auto npu_expected = reference_payload(
          npu_rows, codec,
          static_cast<std::uint32_t>(
              util::ceil_div(npu_dim * codec.bits(), 64)));
      for (const bool cache : {true, false}) {
        BaselineAcceleratorConfig baseline;
        baseline.pe_count = f;
        baseline.multipliers_per_pe = n;
        baseline.weight_memory_bytes = (row_bits / 8) * (1 + below(rng, 40));
        baseline.cache_encoded_rows = cache;
        EXPECT_EQ(stream_payload(BaselineWeightStream(codec, baseline)),
                  baseline_expected)
            << (cache ? "memoised" : "re-packed");
        TpuNpuConfig npu;
        npu.array_dim = npu_dim;
        npu.fifo_tiles = 1 + below(rng, 4);
        npu.cache_encoded_rows = cache;
        EXPECT_EQ(stream_payload(NpuWeightStream(codec, npu)), npu_expected)
            << (cache ? "memoised" : "re-packed");
      }
    }
  }
}

TEST(StreamBlocked, PackTiledRowsEmitsWholeRowsInOrder) {
  util::Xoshiro256ss rng(0x5eed0004);
  const dnn::Network network = random_network(rng);
  const dnn::WeightStreamer streamer(network);
  const quant::WeightWordCodec codec(streamer, WeightFormat::kInt8Symmetric);
  const TiledRowSource rows(network, {3, 1});
  const std::uint32_t words_per_row = 1;
  std::uint64_t next_row = 0;
  pack_tiled_rows(rows, codec, words_per_row,
                  [&](std::uint64_t first_row,
                      std::span<const std::uint64_t> words) {
                    EXPECT_EQ(first_row, next_row);
                    EXPECT_FALSE(words.empty());
                    EXPECT_EQ(words.size() % words_per_row, 0u);
                    next_row += words.size() / words_per_row;
                  });
  EXPECT_EQ(next_row, rows.total_rows());
}

TEST(StreamBlocked, QuantParamsMatchRunningStatsPass) {
  util::Xoshiro256ss rng(0x5eed0005);
  for (int trial = 0; trial < 50; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const dnn::Network network = random_network(rng);
    const dnn::WeightStreamer streamer(network, random_gen_config(rng));
    const quant::WeightWordCodec symmetric(streamer,
                                           WeightFormat::kInt8Symmetric);
    const quant::WeightWordCodec asymmetric(streamer,
                                            WeightFormat::kInt8Asymmetric);
    for (std::size_t w = 0; w < network.weighted_layers().size(); ++w) {
      const std::uint64_t begin = network.weight_offset(w);
      const std::uint64_t end =
          begin +
          network.layers()[network.weighted_layers()[w]].weight_count();
      util::RunningStats acc;
      for (std::uint64_t g = begin; g < end; ++g) acc.add(streamer.weight(g));
      const dnn::LayerWeightStats& stats = streamer.layer_stats(w);
      EXPECT_EQ(stats.min, acc.min());
      EXPECT_EQ(stats.max, acc.max());
      EXPECT_EQ(stats.abs_max,
                std::max(std::abs(acc.min()), std::abs(acc.max())));
      EXPECT_EQ(stats.mean, acc.mean());
      EXPECT_EQ(stats.stddev, acc.stddev());

      const quant::QuantParams expected_symmetric = quant::make_symmetric_int8(
          std::max(std::abs(acc.min()), std::abs(acc.max())));
      const quant::QuantParams expected_asymmetric =
          quant::make_asymmetric_uint8(acc.min(), acc.max());
      for (const auto& [codec, expected] :
           {std::pair{&symmetric, expected_symmetric},
            std::pair{&asymmetric, expected_asymmetric}}) {
        const quant::QuantParams& params = codec->layer_params(w);
        EXPECT_EQ(params.scale, expected.scale);
        EXPECT_EQ(params.zero_point, expected.zero_point);
        EXPECT_EQ(params.q_min, expected.q_min);
        EXPECT_EQ(params.q_max, expected.q_max);
      }
    }
  }
}

}  // namespace
}  // namespace dnnlife::sim
