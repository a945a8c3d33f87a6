// Weight-word codecs: map a network's weights to the bit words that are
// written into the on-chip weight memory, for each of the paper's three
// data representation formats.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dnn/weight_gen.hpp"
#include "quant/quantizer.hpp"

namespace dnnlife::quant {

/// The three representation formats studied in Sec. III / Sec. V.
enum class WeightFormat {
  kFloat32,        ///< IEEE 754 binary32
  kInt8Symmetric,  ///< two's-complement int8, symmetric range-linear
  kInt8Asymmetric, ///< uint8 with zero-point, asymmetric range-linear
};

/// Storage width of one weight in the given format.
unsigned bits_per_weight(WeightFormat format);

std::string to_string(WeightFormat format);

/// Inverse of to_string(WeightFormat) — round-trips every format. Throws
/// std::invalid_argument (listing the valid names) for anything else.
WeightFormat weight_format_from_string(std::string_view name);

/// Encodes weights of one network into memory words. Quantization
/// parameters are per-layer (per-tensor granularity, the standard
/// post-training setting), computed at construction from the streamer's
/// layer statistics, so a codec is immutable and safe to share across
/// threads.
class WeightWordCodec {
 public:
  WeightWordCodec(const dnn::WeightStreamer& streamer, WeightFormat format);

  WeightFormat format() const noexcept { return format_; }
  unsigned bits() const noexcept { return bits_; }
  const dnn::WeightStreamer& streamer() const noexcept { return *streamer_; }

  /// The stored word (low `bits()` bits) for global weight index `g`.
  std::uint64_t encode(std::uint64_t g) const;

  /// The stored words of `values`, weights of weighted layer `w` (index
  /// into Network::weighted_layers(), which selects the quantization
  /// parameters): out[i] encodes values[i]. The one implementation of the
  /// per-value encoding; encode(g) is a one-element call.
  void encode_block(std::size_t w, std::span<const float> values,
                    std::span<std::uint64_t> out) const;

  /// Reconstructed real value of a stored word belonging to weight `g`
  /// (g selects the layer and hence the quantization parameters).
  double decode(std::uint64_t g, std::uint64_t word) const;

  /// Quantization parameters of weighted layer `w` (int8 formats only).
  const QuantParams& layer_params(std::size_t w) const;

 private:
  const dnn::WeightStreamer* streamer_;  // non-owning
  WeightFormat format_;
  unsigned bits_;
  std::vector<QuantParams> params_;  // per weighted layer; empty for float32

  const QuantParams& params_for(std::uint64_t g) const;
};

}  // namespace dnnlife::quant
