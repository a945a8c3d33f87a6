#include "sim/dataflow.hpp"

namespace dnnlife::sim {

TiledRowSource::TiledRowSource(const dnn::Network& network, DataflowConfig config)
    : config_(config) {
  DNNLIFE_EXPECTS(config_.filters_per_set >= 1, "f must be positive");
  DNNLIFE_EXPECTS(config_.weights_per_filter_per_row >= 1, "N must be positive");
  const auto& weighted = network.weighted_layers();
  layers_.reserve(weighted.size());
  for (std::size_t w = 0; w < weighted.size(); ++w) {
    const auto& spec = network.layers()[weighted[w]];
    LayerTiling layer;
    layer.base = network.weight_offset(w);
    layer.filters = spec.kind == dnn::LayerKind::kConv ? spec.out_channels
                                                       : spec.out_features;
    layer.weights_per_filter = spec.weight_count() / layer.filters;
    layer.sets = util::ceil_div(layer.filters, config_.filters_per_set);
    layer.rows_per_set =
        util::ceil_div(layer.weights_per_filter,
                       config_.weights_per_filter_per_row);
    total_rows_ += layer.sets * layer.rows_per_set;
    layers_.push_back(layer);
  }
}

void TiledRowSource::for_each_row(
    const std::function<void(std::uint64_t, std::span<const std::int64_t>)>&
        visit) const {
  visit_rows(visit);
}

}  // namespace dnnlife::sim
