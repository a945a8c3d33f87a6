#include "quant/word_codec.hpp"

#include "quant/float_bits.hpp"
#include "util/bitops.hpp"

namespace dnnlife::quant {

unsigned bits_per_weight(WeightFormat format) {
  switch (format) {
    case WeightFormat::kFloat32: return 32;
    case WeightFormat::kInt8Symmetric:
    case WeightFormat::kInt8Asymmetric: return 8;
  }
  throw std::invalid_argument("unknown weight format");
}

std::string to_string(WeightFormat format) {
  switch (format) {
    case WeightFormat::kFloat32: return "float32";
    case WeightFormat::kInt8Symmetric: return "int8-symmetric";
    case WeightFormat::kInt8Asymmetric: return "int8-asymmetric";
  }
  return "unknown";
}

WeightFormat weight_format_from_string(std::string_view name) {
  for (const WeightFormat format :
       {WeightFormat::kFloat32, WeightFormat::kInt8Symmetric,
        WeightFormat::kInt8Asymmetric}) {
    if (name == to_string(format)) return format;
  }
  throw std::invalid_argument(
      "unknown weight format '" + std::string(name) +
      "' (expected one of: float32, int8-symmetric, int8-asymmetric)");
}

WeightWordCodec::WeightWordCodec(const dnn::WeightStreamer& streamer,
                                 WeightFormat format)
    : streamer_(&streamer), format_(format), bits_(bits_per_weight(format)) {
  if (format_ == WeightFormat::kFloat32) return;
  const std::size_t layers = streamer.network().weighted_layers().size();
  params_.reserve(layers);
  for (std::size_t w = 0; w < layers; ++w) {
    const auto& stats = streamer_->layer_stats(w);
    params_.push_back(format_ == WeightFormat::kInt8Symmetric
                          ? make_symmetric_int8(stats.abs_max)
                          : make_asymmetric_uint8(stats.min, stats.max));
  }
}

const QuantParams& WeightWordCodec::layer_params(std::size_t w) const {
  DNNLIFE_EXPECTS(format_ != WeightFormat::kFloat32,
                  "float32 has no quantization parameters");
  DNNLIFE_EXPECTS(w < params_.size(), "weighted-layer index out of range");
  return params_[w];
}

const QuantParams& WeightWordCodec::params_for(std::uint64_t g) const {
  return layer_params(streamer_->network().weighted_layer_of(g));
}

std::uint64_t WeightWordCodec::encode(std::uint64_t g) const {
  const dnn::Network& network = streamer_->network();
  const std::size_t w = network.weighted_layer_of(g);
  float value = 0.0f;
  streamer_->fill(w, g - network.weight_offset(w), std::span<float>(&value, 1));
  std::uint64_t word = 0;
  encode_block(w, std::span<const float>(&value, 1),
               std::span<std::uint64_t>(&word, 1));
  return word;
}

void WeightWordCodec::encode_block(std::size_t w, std::span<const float> values,
                                   std::span<std::uint64_t> out) const {
  DNNLIFE_EXPECTS(out.size() == values.size(), "encode_block size mismatch");
  if (format_ == WeightFormat::kFloat32) {
    for (std::size_t i = 0; i < values.size(); ++i)
      out[i] = float_to_bits(values[i]);
    return;
  }
  // int8 formats: the low byte of the code — two's complement for the
  // symmetric grid, the plain uint8 code for the asymmetric one.
  const QuantParams& params = layer_params(w);
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i] = static_cast<std::uint64_t>(
        static_cast<std::uint8_t>(quantize(params, values[i])));
  }
}

double WeightWordCodec::decode(std::uint64_t g, std::uint64_t word) const {
  DNNLIFE_EXPECTS((word & ~util::low_mask(bits_)) == 0, "word wider than format");
  switch (format_) {
    case WeightFormat::kFloat32:
      return static_cast<double>(bits_to_float(static_cast<std::uint32_t>(word)));
    case WeightFormat::kInt8Symmetric: {
      const auto code = static_cast<std::int8_t>(static_cast<std::uint8_t>(word));
      return dequantize(params_for(g), code);
    }
    case WeightFormat::kInt8Asymmetric: {
      const auto code = static_cast<std::int32_t>(word & 0xffu);
      return dequantize(params_for(g), code);
    }
  }
  throw std::logic_error("unknown weight format");
}

}  // namespace dnnlife::quant
