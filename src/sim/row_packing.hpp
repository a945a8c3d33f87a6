// Shared row-payload packing and memoisation for the tiled accelerator
// write streams (baseline accelerator and TPU-like NPU). Both models
// enumerate the same Fig. 5 dataflow rows and differ only in where each
// row lands — an `event_at(row_index)` pure function — so the packing
// loop, the payload cache and the visit protocol live here once.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "quant/word_codec.hpp"
#include "sim/dataflow.hpp"
#include "sim/write_stream.hpp"

namespace dnnlife::sim {

/// Pack one dataflow row (weight-index slots) into row payload words using
/// `codec`; padding slots (-1) become zero bits. The per-slot reference
/// that pack_tiled_rows is checked against.
void pack_row_words(const quant::WeightWordCodec& codec,
                    std::span<const std::int64_t> slots,
                    std::span<std::uint64_t> words);

/// Pack every dataflow row of `rows` (which must tile the codec's network),
/// in order, into payload words of `words_per_row` words each — the same
/// bits pack_row_words gives per row. Rows are built one filter set at a
/// time: each filter's weights come from one WeightStreamer::fill and one
/// WeightWordCodec::encode_block call per column chunk and are scattered
/// into the chunk's rows, so no weight is looked up by global index.
/// `emit(first_row, words)` receives each chunk's whole rows (words.size()
/// is a multiple of words_per_row); the span is reused after emit returns.
/// Scratch is bounded by f x a fixed column chunk, independent of layer and
/// set size.
void pack_tiled_rows(
    const TiledRowSource& rows, const quant::WeightWordCodec& codec,
    std::uint32_t words_per_row,
    const std::function<void(std::uint64_t first_row,
                             std::span<const std::uint64_t> words)>& emit);

/// call_once-guarded store of one inference's packed row payloads. The
/// build runs exactly once even when several threads visit the owning
/// stream concurrently (the Workbench's parallel policy evaluation).
class RowPayloadCache {
 public:
  template <class Build>
  const std::vector<std::uint64_t>& ensure(Build&& build) const {
    std::call_once(once_, [&] { build(payloads_); });
    return payloads_;
  }

 private:
  mutable std::once_flag once_;
  mutable std::vector<std::uint64_t> payloads_;
};

/// Visit one inference's writes of a tiled stream in dataflow order.
/// Payloads come from `cache` (built on first use, thread-safe) when
/// `use_cache`, or are re-packed on the fly; both go through
/// pack_tiled_rows. The destination (row, block) of the row_index-th
/// dataflow row is `event_at(row_index)`.
template <class EventAt, class Visitor>
void visit_tiled_writes(const TiledRowSource& rows,
                        const quant::WeightWordCodec& codec,
                        std::uint32_t words_per_row, bool use_cache,
                        const RowPayloadCache& cache, EventAt&& event_at,
                        Visitor&& visit) {
  if (use_cache) {
    const std::vector<std::uint64_t>& payloads =
        cache.ensure([&](std::vector<std::uint64_t>& out) {
          out.reserve(rows.total_rows() *
                      static_cast<std::uint64_t>(words_per_row));
          // Chunks arrive in row order: appending puts row r at
          // r * words_per_row.
          pack_tiled_rows(rows, codec, words_per_row,
                          [&](std::uint64_t,
                              std::span<const std::uint64_t> words) {
                            out.insert(out.end(), words.begin(), words.end());
                          });
        });
    const std::uint64_t total = rows.total_rows();
    for (std::uint64_t row_index = 0; row_index < total; ++row_index) {
      RowWriteEvent event = event_at(row_index);
      event.words = std::span<const std::uint64_t>(
          payloads.data() + row_index * words_per_row, words_per_row);
      visit(event);
    }
    return;
  }
  pack_tiled_rows(rows, codec, words_per_row,
                  [&](std::uint64_t first_row,
                      std::span<const std::uint64_t> words) {
                    const std::uint64_t count = words.size() / words_per_row;
                    for (std::uint64_t k = 0; k < count; ++k) {
                      RowWriteEvent event = event_at(first_row + k);
                      event.words = words.subspan(k * words_per_row,
                                                  words_per_row);
                      visit(event);
                    }
                  });
}

}  // namespace dnnlife::sim
