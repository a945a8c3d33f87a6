#include "sim/row_packing.hpp"

#include <algorithm>

namespace dnnlife::sim {

namespace {

/// Target weights per filter per pack_tiled_rows chunk (rounded to whole
/// rows of N): large enough to amortise the per-call overhead of fill and
/// encode_block, small enough that the scratch stays in L1/L2.
constexpr std::uint64_t kChunkColumns = 256;

/// OR a `bits`-wide value into a little-endian bit string at `bit_pos`.
inline void place_bits(std::uint64_t* words, std::size_t bit_pos,
                       unsigned bits, std::uint64_t value) {
  const std::size_t word = bit_pos / 64;
  const unsigned shift = bit_pos % 64;
  words[word] |= value << shift;
  if (shift + bits > 64) words[word + 1] |= value >> (64 - shift);
}

}  // namespace

void pack_row_words(const quant::WeightWordCodec& codec,
                    std::span<const std::int64_t> slots,
                    std::span<std::uint64_t> words) {
  std::fill(words.begin(), words.end(), 0);
  const unsigned wb = codec.bits();
  for (std::size_t slot = 0; slot < slots.size(); ++slot) {
    if (slots[slot] < 0) continue;  // padding: zero bits
    place_bits(words.data(), slot * wb, wb,
               codec.encode(static_cast<std::uint64_t>(slots[slot])));
  }
}

void pack_tiled_rows(
    const TiledRowSource& rows, const quant::WeightWordCodec& codec,
    std::uint32_t words_per_row,
    const std::function<void(std::uint64_t, std::span<const std::uint64_t>)>&
        emit) {
  const std::uint32_t f = rows.config().filters_per_set;
  const std::uint32_t n = rows.config().weights_per_filter_per_row;
  const unsigned wb = codec.bits();
  DNNLIFE_EXPECTS(static_cast<std::uint64_t>(f) * n * wb <=
                      static_cast<std::uint64_t>(words_per_row) * 64,
                  "row payload wider than words_per_row");
  const std::uint64_t chunk_rows = std::max<std::uint64_t>(1, kChunkColumns / n);
  const std::uint64_t chunk_columns = chunk_rows * n;
  std::vector<float> values(chunk_columns);
  std::vector<std::uint64_t> codes(chunk_columns);
  std::vector<std::uint64_t> words(chunk_rows * words_per_row);
  const dnn::WeightStreamer& streamer = codec.streamer();

  std::uint64_t row_index = 0;
  for (std::size_t w = 0; w < rows.layers().size(); ++w) {
    const LayerTiling& layer = rows.layers()[w];
    const std::uint64_t wpf = layer.weights_per_filter;
    for (std::uint64_t set = 0; set < layer.sets; ++set) {
      const std::uint64_t first_filter = set * f;
      // Filters past the layer's last one are padding (zero bits).
      const std::uint64_t set_filters =
          std::min<std::uint64_t>(f, layer.filters - first_filter);
      for (std::uint64_t r0 = 0; r0 < layer.rows_per_set; r0 += chunk_rows) {
        const std::uint64_t chunk =
            std::min(chunk_rows, layer.rows_per_set - r0);
        const std::uint64_t c0 = r0 * n;
        // Columns past the filter's last weight are padding too.
        const std::uint64_t columns = std::min(chunk * n, wpf - c0);
        const std::span<std::uint64_t> chunk_words(words.data(),
                                                   chunk * words_per_row);
        std::fill(chunk_words.begin(), chunk_words.end(), 0);
        const std::span<float> chunk_values(values.data(), columns);
        const std::span<std::uint64_t> chunk_codes(codes.data(), columns);
        for (std::uint64_t i = 0; i < set_filters; ++i) {
          streamer.fill(w, (first_filter + i) * wpf + c0, chunk_values);
          codec.encode_block(w, chunk_values, chunk_codes);
          // Column c of filter i is slot (i, c mod N) of chunk row c / N.
          std::uint64_t* row = chunk_words.data();
          const std::size_t filter_bit = static_cast<std::size_t>(i) * n * wb;
          for (std::uint64_t c = 0; c < columns; row += words_per_row) {
            const std::uint64_t end = std::min<std::uint64_t>(c + n, columns);
            for (std::size_t bit = filter_bit; c < end; ++c, bit += wb)
              place_bits(row, bit, wb, chunk_codes[c]);
          }
        }
        emit(row_index, chunk_words);
        row_index += chunk;
      }
    }
  }
  DNNLIFE_ENSURES(row_index == rows.total_rows(), "row packing count mismatch");
}

}  // namespace dnnlife::sim
