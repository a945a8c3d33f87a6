// Sweep-scoped stream reuse: each weight stream is built once per sweep.
//
// A scenario's write stream — network → WeightStreamer → WeightWordCodec →
// accelerator stream with its memoised row payloads — depends only on the
// phase network, the weight format and the active hardware config. That
// triple is the stream key (core::stream_keys). Policies, region splits,
// environments, aging models and lifetime thresholds all leave it
// unchanged, so a grid over those axes writes one stream many times.
// Building it (quantise + pack) used to be most of an uncached point's
// cost; StreamPool builds it once and hands the immutable pipeline to
// every point that needs it.
//
// StreamPool is the sweep's core::LeasePool of pipelines (lifetime,
// single flight and failure rules in core/lease_pool.hpp). SweepScheduler
// leases a point's stream keys at submit and drops them when the point
// finishes; run_scenario leases them for the duration of a simulation and
// builds through acquire(), which is safe because a build never touches
// the executor. A pooled stream holds one inference's packed payloads
// (writes_per_inference x words_per_row x 8 bytes when the hardware
// config's cache_encoded_rows is on) plus the network description.
//
// Since duty states are pooled per sweep too (SimStatePool), a stream is
// built only for the points that simulate: one per distinct simulation
// fingerprint, not one per point.
#pragma once

#include <memory>

#include "core/lease_pool.hpp"
#include "dnn/network.hpp"
#include "dnn/weight_gen.hpp"
#include "quant/word_codec.hpp"
#include "sim/write_stream.hpp"

namespace dnnlife::core {

/// One network's write-stream pipeline. Immutable once built: the codec
/// derives its quantisation parameters at construction and the stream
/// memoises its payloads under std::call_once, so any number of points
/// may visit it concurrently.
struct StreamPipeline {
  std::unique_ptr<dnn::Network> network;
  std::unique_ptr<dnn::WeightStreamer> streamer;
  std::unique_ptr<quant::WeightWordCodec> codec;
  std::unique_ptr<sim::WriteStream> stream;
};

/// Single-flight pool of stream pipelines keyed by stream key.
using StreamPool = LeasePool<StreamPipeline>;

}  // namespace dnnlife::core
