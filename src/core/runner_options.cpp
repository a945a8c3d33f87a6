#include "core/runner_options.hpp"

#include <sstream>

#include "util/table.hpp"

namespace dnnlife::core {

void add_session_options(util::OptionTable& table, SessionFlags& flags) {
  table
      .unsigned_option("executor-threads", "N",
                       "executor workers, 0 = hardware (default "
                       "$DNNLIFE_EXECUTOR_THREADS)",
                       flags.executor_threads, kMaxExecutorThreads)
      .unsigned_option("sim-cache-mb", "N",
                       "duty-state LRU budget in MB (0 = none, the default)",
                       flags.sim_cache_mb, kMaxSimTierMb)
      .string_option("sim-store", "DIR",
                     "content-addressed disk store of simulated duty states",
                     flags.sim_store_dir);
}

std::string sim_tier_stats(const SimCache* cache, const SimStore* store) {
  const auto count = [](std::uint64_t n, const char* noun,
                        const char* plural_suffix) {
    return std::to_string(n) + " " + noun + (n == 1 ? "" : plural_suffix);
  };
  std::ostringstream out;
  if (cache != nullptr) {
    const SimCacheStats stats = cache->stats();
    out << "sim cache: " << count(stats.hits, "hit", "s") << ", "
        << count(stats.misses, "miss", "es") << ", "
        << count(stats.evictions, "eviction", "s") << ", " << stats.entries
        << " resident ("
        << util::Table::num(
               static_cast<double>(stats.bytes_in_use) / (1024.0 * 1024.0), 1)
        << " MB)\n";
  }
  if (store != nullptr) {
    const SimStoreStats stats = store->stats();
    out << "sim store: " << count(stats.hits, "hit", "s") << ", "
        << count(stats.misses, "miss", "es") << ", "
        << count(stats.publishes, "publish", "es") << ", "
        << stats.quarantined << " quarantined, " << stats.gc_evictions
        << " evicted";
    if (stats.publish_failures != 0)
      out << ", " << count(stats.publish_failures, "publish failure", "s");
    out << "\n";
  }
  return out.str();
}

}  // namespace dnnlife::core
