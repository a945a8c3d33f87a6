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
// Lifetime and memory bound:
//  - A point *leases* its keys for as long as it is queued or running
//    (SweepScheduler takes the lease at submit and drops it when the point
//    finishes; run_scenario leases for the duration of a simulation).
//  - A pipeline is resident only while its key is leased: the last lease
//    drop erases it. Resident memory is therefore bounded by the distinct
//    streams of the points in flight or queued, never by sweep history.
//    A pooled stream holds one inference's packed payloads
//    (writes_per_inference x words_per_row x 8 bytes when the hardware
//    config's cache_encoded_rows is on) plus the network description.
//  - acquire() of a key nobody leases builds a private pipeline that is
//    never cached.
//
// Single flight: concurrent acquire() calls of one key run one build; the
// others block (on a condition variable, not by helping the executor)
// until it finishes. That is safe because a build never touches the
// executor, so nothing can nest on top of a build frame and wait for it.
// A build that throws is not cached: the builder rethrows its exception,
// every waiter of that flight throws std::runtime_error with the same
// message (its own object, so no exception is shared across threads), and
// the next acquire() starts a fresh build.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

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

struct StreamPoolStats {
  std::uint64_t builds = 0;         ///< builds started, failed ones included
  std::uint64_t failed_builds = 0;  ///< builds that threw
  std::uint64_t reuses = 0;         ///< acquisitions served without a build
  std::uint64_t joins = 0;          ///< acquisitions that waited on a build
  std::uint64_t resident = 0;       ///< pipelines currently held
  std::uint64_t leased_keys = 0;    ///< keys currently leased
};

/// Thread-safe, single-flight pool of stream pipelines keyed by stream
/// key. All methods may be called concurrently.
class StreamPool {
 public:
  using PipelinePtr = std::shared_ptr<const StreamPipeline>;
  using Builder = std::function<PipelinePtr()>;

  /// Keeps its keys' pipelines resident until it is dropped. Move-only;
  /// must not outlive the pool that issued it.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept;
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { reset(); }

    /// Drop the lease now (idempotent).
    void reset() noexcept;

   private:
    friend class StreamPool;
    StreamPool* pool_ = nullptr;
    std::vector<std::string> keys_;
  };

  StreamPool() = default;
  StreamPool(const StreamPool&) = delete;
  StreamPool& operator=(const StreamPool&) = delete;

  /// Declare that the caller will need `keys` until the lease is dropped.
  Lease lease(std::vector<std::string> keys);

  /// The pipeline of `key`, running `build` only when no resident entry
  /// or in-progress build exists (see the header comment for the rules).
  /// `build` must not use the executor; it may throw.
  PipelinePtr acquire(const std::string& key, const Builder& build);

  StreamPoolStats stats() const;

 private:
  struct Flight {
    bool done = false;
    bool failed = false;
    PipelinePtr pipeline;
    std::string error;  ///< the failed build's what()
  };
  struct Slot {
    std::size_t leases = 0;
    PipelinePtr pipeline;            ///< resident once built
    std::shared_ptr<Flight> flight;  ///< the build in progress, if any
  };

  void release(const std::vector<std::string>& keys) noexcept;

  mutable std::mutex mutex_;
  std::condition_variable built_;
  std::unordered_map<std::string, Slot> slots_;
  StreamPoolStats stats_;  ///< the counters; resident/leased_keys derived
};

}  // namespace dnnlife::core
