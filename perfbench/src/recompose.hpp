// The traced sweep point: core::run_scenario recomposed from the public
// function of each layer, with one span per layer call.
//
// run_scenario keeps its two halves (simulate, evaluate) private, so the
// benchmark rebuilds the same call sequence from the layers' public APIs:
// reuse (fingerprint, SimCache, SimStore) → stream (network, weight
// synthesis + quantisation, row packing) → sim (phased workload) → report
// (model, aging fold, lifetime solve) → emit (summary record). The records
// it produces must be byte-identical to the sweep's, which the benchmark
// checks through the summary digest.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/scenario_suite.hpp"
#include "trace.hpp"

namespace perfbench {

/// Reuse tiers of one traced sweep plus the single-flight locks that stand
/// in for SweepScheduler's parking: same-fingerprint points run one after
/// another, so each distinct stream is simulated once.
class TracedTiers {
 public:
  TracedTiers(std::shared_ptr<dnnlife::core::SimCache> cache,
              std::shared_ptr<dnnlife::core::SimStore> store)
      : cache(std::move(cache)), store(std::move(store)) {}
  TracedTiers(const TracedTiers&) = delete;
  TracedTiers& operator=(const TracedTiers&) = delete;

  bool enabled() const noexcept { return cache || store; }
  std::mutex& flight(const std::string& fingerprint);

  const std::shared_ptr<dnnlife::core::SimCache> cache;
  const std::shared_ptr<dnnlife::core::SimStore> store;

 private:
  std::mutex mutex_;
  std::map<std::string, std::unique_ptr<std::mutex>> flights_;  ///< by mutex_
};

/// Work counts of one traced point, summed over a sweep by the caller.
struct PointCounts {
  std::uint64_t stream_builds = 0;
  std::uint64_t rows_packed = 0;
  std::uint64_t sim_runs = 0;
  std::uint64_t row_writes = 0;
  std::uint64_t report_cells = 0;
  std::uint64_t store_bytes_read = 0;

  PointCounts& operator+=(const PointCounts& other);
};

/// Run one sweep point under a "point" root span, as SweepScheduler's
/// single attempt would (the spec's thread budget overridden by
/// `threads` when non-zero), and return its summary record.
dnnlife::core::SuiteRecord run_point_traced(
    const dnnlife::core::SuiteEntry& entry, std::size_t index,
    unsigned threads, TracedTiers& tiers, Trace& trace, PointCounts& counts);

}  // namespace perfbench
