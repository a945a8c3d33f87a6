// The sweep-scoped stream pool (core/stream_pool.hpp): a differential
// oracle against per-point plain run_scenario on a seeded grid, exact
// build counts per sweep, entry lifetime (empty after wait_all, resumed
// sweeps included), failed-build propagation and retry, and the
// one-worker executor shape that must not deadlock.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.hpp"
#include "core/scenario_suite.hpp"
#include "core/sim_cache.hpp"
#include "core/stream_pool.hpp"
#include "core/sweep_journal.hpp"
#include "core/sweep_scheduler.hpp"
#include "util/executor.hpp"

namespace dnnlife::core {
namespace {

namespace fs = std::filesystem;

// ---- the seeded grid ---------------------------------------------------------

sim::TpuNpuConfig small_npu() {
  sim::TpuNpuConfig npu;
  npu.array_dim = 16;
  npu.fifo_tiles = 2;
  return npu;
}

sim::BaselineAcceleratorConfig small_baseline() {
  sim::BaselineAcceleratorConfig baseline;
  baseline.weight_memory_bytes = 16 * 1024;
  return baseline;
}

PolicyConfig random_policy(std::mt19937_64& rng) {
  PolicyConfig policy;
  policy.kind = static_cast<PolicyKind>(rng() % 4);
  policy.seed = rng();
  if (policy.kind == PolicyKind::kDnnLife) policy.trbg_bias = 0.6;
  return policy;
}

/// Region splits: the whole memory, or two regions with their own
/// policies at one of two row fractions.
std::vector<ScenarioRegionSpec> random_regions(std::mt19937_64& rng) {
  switch (rng() % 3) {
    case 0:
      return {};
    case 1:
      return {ScenarioRegionSpec{"hot", 0.25, random_policy(rng)},
              ScenarioRegionSpec{"cold", 0.75, random_policy(rng)}};
    default:
      return {ScenarioRegionSpec{"a", 0.5, random_policy(rng)},
              ScenarioRegionSpec{"b", 0.5, random_policy(rng)}};
  }
}

/// Every format on both hardware kinds for custom_mnist, a googlenet pair
/// sharing one stream, a two-network multi-phase spec, and a pair that
/// differs only in cache_encoded_rows. Policies and region splits are
/// drawn from a fixed seed, so the grid is the same on every platform.
std::vector<ScenarioSpec> oracle_specs() {
  std::mt19937_64 rng(0x5eed2026);
  std::vector<ScenarioSpec> specs;
  const auto add = [&specs](ScenarioSpec spec) {
    spec.name = "pool-" + std::to_string(specs.size());
    specs.push_back(std::move(spec));
  };
  const quant::WeightFormat formats[] = {quant::WeightFormat::kFloat32,
                                         quant::WeightFormat::kInt8Symmetric,
                                         quant::WeightFormat::kInt8Asymmetric};
  for (const quant::WeightFormat format : formats)
    for (const HardwareKind hardware :
         {HardwareKind::kBaseline, HardwareKind::kTpuNpu})
      for (int sample = 0; sample < 3; ++sample) {
        ScenarioSpec spec;
        spec.format = format;
        spec.hardware = hardware;
        spec.baseline = small_baseline();
        spec.npu = small_npu();
        spec.phases.push_back(ScenarioPhaseSpec{
            "custom_mnist", 1 + static_cast<unsigned>(rng() % 2), {}});
        spec.regions = random_regions(rng);
        add(std::move(spec));
      }
  for (int sample = 0; sample < 2; ++sample) {
    ScenarioSpec spec;
    spec.hardware = HardwareKind::kTpuNpu;
    spec.npu = small_npu();
    spec.phases.push_back(ScenarioPhaseSpec{"googlenet", 1, {}});
    spec.regions = random_regions(rng);
    add(std::move(spec));
  }
  {
    ScenarioSpec spec;  // two networks, two environments, one memory
    spec.hardware = HardwareKind::kTpuNpu;
    spec.npu = small_npu();
    spec.phases.push_back(ScenarioPhaseSpec{"custom_mnist", 2, {}});
    spec.phases.push_back(ScenarioPhaseSpec{"googlenet", 1, {85.0, 1.0, 1.0}});
    spec.regions = random_regions(rng);
    add(std::move(spec));
  }
  for (const bool cache_rows : {true, false}) {
    ScenarioSpec spec;
    spec.format = quant::WeightFormat::kInt8Asymmetric;
    spec.hardware = HardwareKind::kTpuNpu;
    spec.npu = small_npu();
    spec.npu.cache_encoded_rows = cache_rows;
    spec.phases.push_back(ScenarioPhaseSpec{"custom_mnist", 2, {}});
    spec.regions = {ScenarioRegionSpec{"hot", 0.25, PolicyConfig::dnn_life()},
                    ScenarioRegionSpec{"cold", 0.75, PolicyConfig::none()}};
    add(std::move(spec));
  }
  return specs;
}

ScenarioSuite suite_of(const std::vector<ScenarioSpec>& specs) {
  ScenarioSuite suite;
  for (const ScenarioSpec& spec : specs)
    suite.add(SuiteEntry{spec.name + ".json", spec, spec.name});
  return suite;
}

SuiteSummaryInfo timing_free_info(const ScenarioSuite& suite) {
  SuiteSummaryInfo info;
  info.total_scenarios = suite.size();
  info.manifest_hash = suite.manifest_hash();
  info.include_timing = false;
  return info;
}

/// The oracle: every point through plain run_scenario(spec), which builds
/// its own streams in a scenario-local pool.
std::string per_point_summary(const ScenarioSuite& suite) {
  std::vector<SuiteOutcome> outcomes;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const SuiteEntry& entry = suite.entries()[i];
    SuiteOutcome outcome;
    outcome.index = i;
    outcome.path = entry.path;
    outcome.name = entry.spec.name;
    outcome.fingerprint = simulation_fingerprint(entry.spec);
    outcome.result = run_scenario(entry.spec);
    outcome.ok = true;
    outcomes.push_back(std::move(outcome));
  }
  return suite_summary_json(make_suite_records(outcomes),
                            timing_free_info(suite));
}

std::set<std::string> distinct_keys(const std::vector<ScenarioSpec>& specs) {
  std::set<std::string> keys;
  for (const ScenarioSpec& spec : specs)
    for (std::string& key : stream_keys(spec)) keys.insert(std::move(key));
  return keys;
}

/// With a cache, only the first point of each fingerprint simulates; the
/// rest are hits and never touch the pool.
std::set<std::string> leader_keys(const std::vector<ScenarioSpec>& specs) {
  std::set<std::string> fingerprints;
  std::vector<ScenarioSpec> leaders;
  for (const ScenarioSpec& spec : specs)
    if (fingerprints.insert(simulation_fingerprint(spec)).second)
      leaders.push_back(spec);
  return distinct_keys(leaders);
}

fs::path temp_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---- keys --------------------------------------------------------------------

TEST(StreamPoolKeys, CacheEncodedRowsSplitsTheKeyButNotTheFingerprint) {
  const std::vector<ScenarioSpec> specs = oracle_specs();
  const ScenarioSpec& cached = specs[specs.size() - 2];
  const ScenarioSpec& uncached = specs.back();
  ASSERT_NE(cached.npu.cache_encoded_rows, uncached.npu.cache_encoded_rows);
  EXPECT_EQ(simulation_fingerprint(cached), simulation_fingerprint(uncached));
  ASSERT_EQ(stream_keys(cached).size(), 1u);
  EXPECT_NE(stream_keys(cached), stream_keys(uncached));
}

TEST(StreamPoolKeys, OneKeyPerDistinctNetworkInPhaseOrder) {
  ScenarioSpec spec;
  spec.phases = {{"googlenet", 1, {}}, {"custom_mnist", 1, {}},
                 {"googlenet", 0, {}}};
  const std::vector<std::string> keys = stream_keys(spec);
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_NE(keys[0].find("net=googlenet;"), std::string::npos);
  EXPECT_NE(keys[1].find("net=custom_mnist;"), std::string::npos);
  // Evaluation-only and policy fields leave the key alone; the dormant
  // hardware config does too.
  ScenarioSpec other = spec;
  other.regions = {ScenarioRegionSpec{"m", 1.0, PolicyConfig::dnn_life()}};
  other.phases[0].environment.temperature_c = 85.0;
  other.aging_model = "arrhenius-nbti";
  other.npu.array_dim = 64;
  EXPECT_EQ(stream_keys(other), keys);
  other.baseline.pe_count = 4;
  EXPECT_NE(stream_keys(other), keys);
}

// ---- the differential oracle -------------------------------------------------

TEST(StreamPoolOracle, SweepMatchesPerPointRunsAndBuildsEachKeyOnce) {
  const std::vector<ScenarioSpec> specs = oracle_specs();
  const ScenarioSuite suite = suite_of(specs);
  const std::string expected = per_point_summary(suite);
  const std::size_t keys = distinct_keys(specs).size();
  const std::size_t leader_key_count = leader_keys(specs).size();
  ASSERT_EQ(keys, 8u) << "custom_mnist in 3 formats x 2 hardware kinds, "
                         "googlenet, and the cache_encoded_rows twin";
  ASSERT_LT(leader_key_count, keys)
      << "the cache_encoded_rows twin must be a cache hit";

  for (const unsigned jobs : {1u, 2u, 4u})
    for (const bool cache : {false, true}) {
      SuiteRunOptions options;
      options.jobs = jobs;
      if (cache)
        options.sim_cache = std::make_shared<SimCache>(std::size_t{64} << 20);
      StreamPoolStats stats;
      const std::vector<SuiteOutcome> outcomes = suite.run(options, &stats);
      for (const SuiteOutcome& outcome : outcomes)
        ASSERT_TRUE(outcome.ok) << outcome.name << ": " << outcome.error;
      EXPECT_EQ(suite_summary_json(make_suite_records(outcomes),
                                   timing_free_info(suite)),
                expected)
          << "jobs " << jobs << ", cache " << cache;
      EXPECT_EQ(stats.builds, cache ? leader_key_count : keys)
          << "jobs " << jobs << ", cache " << cache;
      EXPECT_EQ(stats.failed_builds, 0u);
      EXPECT_EQ(stats.resident, 0u);
      EXPECT_EQ(stats.leased_keys, 0u);
    }
}

// ---- lifetime ----------------------------------------------------------------

TEST(StreamPoolLifetime, EmptyAfterWaitAllIncludingResumedSweeps) {
  const std::vector<ScenarioSpec> all = oracle_specs();
  // custom_mnist points only: the lifetime rules do not need googlenet.
  const std::vector<ScenarioSpec> specs(all.begin(), all.begin() + 18);
  const ScenarioSuite suite = suite_of(specs);
  const fs::path dir = temp_dir("dnnlife_stream_pool_resume");
  const std::string path = (dir / "journal.jsonl").string();
  SweepJournalHeader header;
  header.manifest_hash = suite.manifest_hash();
  header.total_scenarios = suite.size();
  header.include_timing = false;

  std::vector<std::size_t> indices(suite.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  const std::size_t first_half = suite.size() / 2;
  {  // First session: the first half, journaled.
    SweepJournal journal = SweepJournal::create(path, header);
    SweepScheduler::Options options;
    options.jobs = 2;
    options.journal = &journal;
    SweepScheduler scheduler(options);
    scheduler.submit_batch(
        std::vector<SuiteEntry>(suite.entries().begin(),
                                suite.entries().begin() + first_half),
        std::span<const std::size_t>(indices).first(first_half));
    EXPECT_GT(scheduler.stream_pool_stats().leased_keys, 0u);
    scheduler.wait_all();
    const StreamPoolStats stats = scheduler.stream_pool_stats();
    EXPECT_EQ(stats.resident, 0u);
    EXPECT_EQ(stats.leased_keys, 0u);
    EXPECT_EQ(stats.builds,
              distinct_keys(std::vector<ScenarioSpec>(
                                specs.begin(), specs.begin() + first_half))
                  .size());
  }
  {  // Resume with every point: the first half replays and leases nothing.
    SweepJournal journal = SweepJournal::resume(path, header);
    SweepScheduler::Options options;
    options.jobs = 2;
    options.journal = &journal;
    SweepScheduler scheduler(options);
    const std::vector<SweepScheduler::Handle> handles =
        scheduler.submit_batch(suite.entries(), indices);
    scheduler.wait_all();
    for (std::size_t i = 0; i < handles.size(); ++i)
      EXPECT_EQ(handles[i].replayed(), i < first_half);
    const StreamPoolStats stats = scheduler.stream_pool_stats();
    EXPECT_EQ(stats.resident, 0u);
    EXPECT_EQ(stats.leased_keys, 0u);
    EXPECT_EQ(stats.builds,
              distinct_keys(std::vector<ScenarioSpec>(
                                specs.begin() + first_half, specs.end()))
                  .size());
  }
  {  // A resume where every point replays builds nothing.
    SweepJournal journal = SweepJournal::resume(path, header);
    SweepScheduler::Options options;
    options.journal = &journal;
    SweepScheduler scheduler(options);
    scheduler.submit_batch(suite.entries(), indices);
    scheduler.wait_all();
    const StreamPoolStats stats = scheduler.stream_pool_stats();
    EXPECT_EQ(stats.builds, 0u);
    EXPECT_EQ(stats.leased_keys, 0u);
  }
  fs::remove_all(dir);
}

TEST(StreamPoolLifetime, UnleasedKeysAreBuiltButNeverCached) {
  StreamPool pool;
  std::atomic<int> builds{0};
  const StreamPool::Builder build = [&builds] {
    ++builds;
    return std::make_shared<const StreamPipeline>();
  };
  const StreamPool::PipelinePtr first = pool.acquire("k", build);
  const StreamPool::PipelinePtr second = pool.acquire("k", build);
  EXPECT_NE(first, second);
  EXPECT_EQ(builds.load(), 2);
  EXPECT_EQ(pool.stats().resident, 0u);

  StreamPool::Lease lease = pool.lease({"k"});
  const StreamPool::PipelinePtr leased = pool.acquire("k", build);
  EXPECT_EQ(pool.acquire("k", build), leased);
  EXPECT_EQ(builds.load(), 3);
  EXPECT_EQ(pool.stats().resident, 1u);
  EXPECT_EQ(pool.stats().reuses, 1u);
  lease.reset();
  EXPECT_EQ(pool.stats().resident, 0u);
  EXPECT_EQ(pool.stats().leased_keys, 0u);
}

// ---- failed builds -----------------------------------------------------------

TEST(StreamPoolFailures, ThrowingBuildFailsEveryWaiterAndIsRebuiltOnRetry) {
  StreamPool pool;
  const StreamPool::Lease lease = pool.lease({"k"});
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> builds{0};
  const auto failing = [&] {
    ++builds;
    started.set_value();
    released.wait();
    throw std::runtime_error("stream build failed");
    return StreamPool::PipelinePtr();
  };
  const auto never = [&] {
    ++builds;
    ADD_FAILURE() << "a waiter started its own build";
    return StreamPool::PipelinePtr();
  };

  constexpr int kWaiters = 4;
  std::vector<std::string> errors(kWaiters + 1);
  std::vector<std::thread> threads;
  const auto run = [&pool, &errors](int slot, StreamPool::Builder build) {
    try {
      pool.acquire("k", build);
    } catch (const std::exception& error) {
      errors[static_cast<std::size_t>(slot)] = error.what();
    }
  };
  threads.emplace_back(run, 0, failing);
  started.get_future().wait();
  for (int i = 1; i <= kWaiters; ++i) threads.emplace_back(run, i, never);
  // Release the build only once every waiter has joined it.
  while (pool.stats().joins < kWaiters)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  release.set_value();
  for (std::thread& thread : threads) thread.join();

  for (const std::string& error : errors)
    EXPECT_EQ(error, "stream build failed");
  StreamPoolStats stats = pool.stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.failed_builds, 1u);
  EXPECT_EQ(stats.resident, 0u) << "a failed build must not be cached";

  // The next acquire rebuilds, and its success is cached.
  const StreamPool::PipelinePtr rebuilt = pool.acquire(
      "k", [] { return std::make_shared<const StreamPipeline>(); });
  ASSERT_NE(rebuilt, nullptr);
  stats = pool.stats();
  EXPECT_EQ(stats.builds, 2u);
  EXPECT_EQ(stats.failed_builds, 1u);
  EXPECT_EQ(stats.resident, 1u);
  EXPECT_EQ(builds.load(), 1);
}

TEST(StreamPoolFailures, FailingStreamIsEachPointsErrorAndRetriesRebuild) {
  std::vector<ScenarioSpec> specs(6, oracle_specs().front());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = "broken-" + std::to_string(i);
    specs[i].phases[0].network = "no_such_network";
  }
  const ScenarioSuite suite = suite_of(specs);
  SuiteRunOptions options;
  options.jobs = 4;
  options.retries = 2;
  StreamPoolStats stats;
  const std::vector<SuiteOutcome> outcomes = suite.run(options, &stats);
  ASSERT_EQ(outcomes.size(), specs.size());
  for (const SuiteOutcome& outcome : outcomes) {
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.attempts, 3u);
    EXPECT_NE(outcome.error.find("unknown network: no_such_network"),
              std::string::npos)
        << outcome.error;
  }
  // Failed builds are not cached: each attempt builds or joins a build in
  // flight, and a point's attempts are sequential, so its three attempts
  // need three distinct builds.
  EXPECT_EQ(stats.failed_builds, stats.builds);
  EXPECT_GE(stats.builds, 3u);
  EXPECT_EQ(stats.resident, 0u);
  EXPECT_EQ(stats.leased_keys, 0u);

  // One point, serial: every retry is exactly one more build.
  const ScenarioSuite single = suite_of({specs.front()});
  options.jobs = 1;
  single.run(options, &stats);
  EXPECT_EQ(stats.builds, 3u);
  EXPECT_EQ(stats.failed_builds, 3u);
}

// ---- executor shape ----------------------------------------------------------

TEST(StreamPoolExecutor, OneWorkerWithNestedFanOutCompletes) {
  // One worker, two points in flight, each fanning its simulation and
  // report out on the same executor: a point blocked on another's build
  // must never be the thing that build waits for.
  const std::vector<ScenarioSpec> all = oracle_specs();
  const std::vector<ScenarioSpec> specs(all.begin(), all.begin() + 18);
  const ScenarioSuite suite = suite_of(specs);
  const std::string expected = per_point_summary(suite);
  util::Executor::configure_session(1);
  SuiteRunOptions options;
  options.jobs = 2;
  options.threads_per_scenario = 2;
  StreamPoolStats stats;
  const std::vector<SuiteOutcome> outcomes = suite.run(options, &stats);
  util::Executor::configure_session(0);  // restore hardware sizing
  EXPECT_EQ(suite_summary_json(make_suite_records(outcomes),
                               timing_free_info(suite)),
            expected);
  EXPECT_EQ(stats.builds, distinct_keys(specs).size());
}

}  // namespace
}  // namespace dnnlife::core
