// What the scenario and sweep runners share on the command line, declared
// once: the session rows (executor size and the explicit reuse tiers) and
// the stats lines those tiers print at the end of a run.
#pragma once

#include <string>

#include "core/sim_cache.hpp"
#include "core/sim_store.hpp"
#include "util/cli.hpp"

namespace dnnlife::core {

inline constexpr unsigned kMaxExecutorThreads = 4096;
inline constexpr unsigned kMaxSimTierMb = 1u << 20;

/// Targets of the rows add_session_options declares.
struct SessionFlags {
  unsigned executor_threads = 0;  ///< applied only when the flag is given
  unsigned sim_cache_mb = 0;      ///< 0 = no LRU
  std::string sim_store_dir;      ///< empty = no disk tier
};

/// `--executor-threads` (0..kMaxExecutorThreads), `--sim-cache-mb`
/// (0..kMaxSimTierMb) and `--sim-store`.
void add_session_options(util::OptionTable& table, SessionFlags& flags);

/// The "sim cache: ..." and "sim store: ..." lines, one for each tier
/// that is present. A store's "misses" counts exactly the points that
/// simulated, so a warm re-run reads "0 misses, 0 publishes".
std::string sim_tier_stats(const SimCache* cache, const SimStore* store);

}  // namespace dnnlife::core
