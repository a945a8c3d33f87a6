// The sweep benchmark's workloads: each is a sweep spec generated from the
// workload seed plus the runner settings a user would pass to
// example_sweep_runner. The library only ever sees the generated spec.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

/// The seed whose summary digests are pinned in perfbench/digests.json.
/// cold-grid at this seed is exactly the CI sweep grid.
inline constexpr std::uint64_t kDefaultSeed = 7;

struct Workload {
  std::string name;
  std::string spec_json;  ///< core::ScenarioGenerator input
  unsigned jobs = 1;      ///< SuiteRunOptions::jobs (admission slots)
  unsigned threads = 1;   ///< SuiteRunOptions::threads_per_scenario
  bool sim_cache = false;
  bool sim_store = false;
  std::size_t points = 0;       ///< points the spec generates
  std::size_t simulations = 0;  ///< distinct write streams among them
};

/// Throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
