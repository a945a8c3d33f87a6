// Cross-point simulation reuse on the canonical 12-point environment-axis
// grid (3 temperatures x 2 vdd x 2 activity scales over one GoogLeNet
// workload). Every point shares one simulation fingerprint — the axes are
// evaluation-time inputs — so a sweep needs one simulation and twelve
// evaluations.
//
// Rows:
//  - `fresh`: each point through plain run_scenario(spec), which builds
//    the stream per point — the cost of a sweep before any pooling;
//  - `simulate all`: each point through run_scenario with one shared
//    core::StreamPool (RunScenarioOptions::stream_pool) — every point
//    simulates, the stream is built once. This is the comparator of every
//    reuse ratio: the work a duty-state tier removes is 11 of its 12
//    simulations;
//  - `default`: ScenarioSuite::run with no options — its scheduler's
//    duty-state pool (core/lease_pool.hpp) simulates once;
//  - `cache on`, `store cold`, `store warm`: the explicit SimCache and
//    SimStore tiers, consulted before the pool.
//
//   bench_sweep_cache [--jobs=N] [--json=PATH]
//
// --jobs defaults to 1: serial admission makes the wall-clock ratios a
// machine-independent measure of the work reuse removes, instead of a
// function of how many cores happened to soak up the redundant
// simulations (the per-point rows are always serial). The bench
// hard-fails (exit 1) unless every summary (timing omitted) is
// byte-identical to the fresh one, the default run simulates exactly once
// and builds its stream exactly once, the cache counters come out exactly
// hits=11 / misses=1, and every simulating run built its stream once —
// so CI can gate on the exit code alone; --json adds the wall times and
// ratios for the regression gate against
// bench/bench_sweep_cache_reference.json.
// The disk tier (core/sim_store.hpp) is measured the same way: a cold
// run populates an empty store directory, then a warm run with a fresh
// SimStore instance must satisfy every point from disk (0 simulations)
// and reproduce the fresh summary byte-for-byte — the cross-run analogue
// of the in-memory gate.
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/scenario_generator.hpp"
#include "core/scenario_suite.hpp"
#include "core/sim_cache.hpp"
#include "core/sim_store.hpp"
#include "core/scenario.hpp"
#include "core/stream_pool.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

constexpr const char* kSweepSpec = R"json({
  "name": "simcache",
  "base": {
    "hardware": "tpu-like-npu",
    "format": "int8-symmetric",
    "npu": {"array_dim": 128, "fifo_tiles": 2},
    "aging_model": "arrhenius-nbti",
    "phases": [{"network": "googlenet", "inferences": 20}],
    "regions": [
      {"name": "hot", "rows": 0.25,
       "policy": {"kind": "dnn-life", "trbg_bias": 0.7, "balancer_bits": 4}},
      {"name": "cold", "rows": 0.75, "policy": {"kind": "no-mitigation"}}
    ]
  },
  "axes": [
    {"parameter": "temperature_c", "values": [25, 55, 85]},
    {"parameter": "vdd", "values": [0.95, 1.0]},
    {"parameter": "activity_scale", "values": [0.5, 1.0]}
  ]
})json";

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dnnlife;
  unsigned jobs = 1;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const char* name) -> const char* {
      const std::string prefix = std::string("--") + name + "=";
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + prefix.size() : nullptr;
    };
    if (const char* value = value_of("jobs")) {
      if (!util::parse_unsigned_flag(value, jobs)) {
        std::cerr << "--jobs expects a number, got '" << value << "'\n";
        return 1;
      }
    } else if (const char* value = value_of("json")) {
      json_path = value;
    } else {
      std::cerr << "usage: bench_sweep_cache [--jobs=N] [--json=PATH]\n";
      return 1;
    }
  }
  benchutil::print_heading(
      "Cross-point simulation reuse (12-point environment grid)");

  core::ScenarioSuite suite;
  for (core::GeneratedScenario& point :
       core::ScenarioGenerator::parse(kSweepSpec).generate())
    suite.add(core::SuiteEntry{point.name + ".json", std::move(point.spec),
                               std::move(point.document)});
  std::cout << suite.size() << " points, " << jobs << " job"
            << (jobs == 1 ? "" : "s") << "\n";

  core::SuiteSummaryInfo info;
  info.total_scenarios = suite.size();
  info.manifest_hash = suite.manifest_hash();
  info.include_timing = false;  // the byte-compare strips run properties

  core::SuiteRunOptions options;
  options.jobs = jobs;
  bool failed = false;

  // Every point through run_scenario, serially, with `run_options`: the
  // timing-free summary, and the wall time in `seconds`.
  const auto per_point_summary =
      [&](const core::RunScenarioOptions& run_options, double& seconds) {
        const auto start = std::chrono::steady_clock::now();
        std::vector<core::SuiteOutcome> outcomes;
        for (std::size_t i = 0; i < suite.size(); ++i) {
          const core::SuiteEntry& entry = suite.entries()[i];
          core::SuiteOutcome outcome;
          outcome.index = i;
          outcome.path = entry.path;
          outcome.name = entry.spec.name;
          outcome.fingerprint = core::simulation_fingerprint(entry.spec);
          outcome.result = core::run_scenario(entry.spec, run_options);
          outcome.ok = true;
          outcomes.push_back(std::move(outcome));
        }
        seconds = seconds_since(start);
        return suite_summary_json(make_suite_records(outcomes), info);
      };

  // Per-point stream builds, as a sweep ran before the stream pool.
  double fresh_seconds = 0.0;
  const std::string fresh_summary = per_point_summary({}, fresh_seconds);

  // One timed run: its wall time and pool counters. Every run must
  // reproduce the fresh summary.
  struct TimedRun {
    double seconds = 0.0;
    core::SweepPoolStats pools;
  };
  const auto check_summary = [&](const char* label,
                                 const std::string& summary) {
    if (summary == fresh_summary) return;
    std::cerr << "FAIL: " << label << " summary is not byte-identical to "
                 "per-point run_scenario (timing omitted)\n";
    failed = true;
  };
  // Every point simulates against one stream: the points lease the grid's
  // one stream key for the whole loop, as a sweep's scheduler would.
  const auto simulate_all = [&] {
    TimedRun run;
    core::RunScenarioOptions run_options;
    run_options.stream_pool = std::make_shared<core::StreamPool>();
    const core::StreamPool::Lease lease = run_options.stream_pool->lease(
        core::stream_keys(suite.entries().front().spec));
    check_summary("simulate all", per_point_summary(run_options, run.seconds));
    run.pools.streams = run_options.stream_pool->stats();
    return run;
  };
  const auto timed_run = [&](const char* label) {
    TimedRun run;
    const auto start = std::chrono::steady_clock::now();
    const std::vector<core::SuiteOutcome> outcomes =
        suite.run(options, &run.pools);
    run.seconds = seconds_since(start);
    for (const core::SuiteOutcome& outcome : outcomes)
      if (!outcome.ok) {
        std::cerr << "FAIL: " << label << ": point '" << outcome.name
                  << "' failed: " << outcome.error << "\n";
        failed = true;
      }
    check_summary(label,
                  suite_summary_json(make_suite_records(outcomes), info));
    return run;
  };
  const auto keep_best = [](TimedRun& best, const TimedRun& run, int repeat) {
    if (repeat == 0 || run.seconds < best.seconds) best = run;
  };

  // The reuse ratios compare sub-second runs on a possibly shared host, so
  // simulate-all, default and cache-on are timed kRepeats times,
  // interleaved, and each keeps its best time. Every repeat passes the
  // exact checks; the pools and the cache start empty each time.
  constexpr int kRepeats = 3;
  TimedRun every, pooled, on;
  core::SimCacheStats stats;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    keep_best(every, simulate_all(), repeat);
    options.sim_cache = nullptr;
    const TimedRun run = timed_run("default");
    if (run.pools.states.builds != 1 || run.pools.states.reuses != 11) {
      std::cerr << "FAIL: expected the default run to simulate once and "
                   "reuse 11 times, got "
                << run.pools.states.builds << " simulations, "
                << run.pools.states.reuses << " reuses\n";
      failed = true;
    }
    keep_best(pooled, run, repeat);
    options.sim_cache =
        std::make_shared<core::SimCache>(std::size_t{256} << 20);
    keep_best(on, timed_run("cache on"), repeat);
    stats = options.sim_cache->stats();
    if (stats.misses != 1 || stats.hits != 11) {
      std::cerr << "FAIL: expected exactly 1 simulation + 11 reuses for the "
                   "12-point single-fingerprint grid, got misses="
                << stats.misses << " hits=" << stats.hits << "\n";
      failed = true;
    }
  }
  options.sim_cache = nullptr;

  // Disk tier: cold run against an empty store directory, then warm runs
  // with fresh instances — cross-run reuse must go through the directory,
  // never through process state.
  namespace fs = std::filesystem;
  const fs::path store_dir =
      fs::temp_directory_path() / "dnnlife_bench_sweep_cache_store";
  fs::remove_all(store_dir);
  options.sim_store = std::make_shared<core::SimStore>(
      core::SimStore::Options{store_dir.string(), 0});
  const TimedRun cold = timed_run("store cold");
  const core::SimStoreStats cold_stats = options.sim_store->stats();
  TimedRun warm;
  core::SimStoreStats warm_stats;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    options.sim_store = std::make_shared<core::SimStore>(
        core::SimStore::Options{store_dir.string(), 0});
    keep_best(warm, timed_run("store warm"), repeat);
    warm_stats = options.sim_store->stats();
    if (warm_stats.misses != 0 || warm_stats.publishes != 0) {
      std::cerr << "FAIL: a warm store must satisfy every point from disk, "
                   "got misses="
                << warm_stats.misses << " publishes=" << warm_stats.publishes
                << "\n";
      failed = true;
    }
  }
  fs::remove_all(store_dir);

  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double pool_speedup = ratio(fresh_seconds, every.seconds);
  const double speedup = ratio(every.seconds, on.seconds);
  const double warm_speedup = ratio(every.seconds, warm.seconds);
  const double default_speedup = ratio(every.seconds, pooled.seconds);
  util::Table table(
      {"path", "simulations", "stream builds", "wall [s]", "speedup"});
  table.add_row({"fresh", std::to_string(suite.size()),
                 std::to_string(suite.size()),
                 util::Table::num(fresh_seconds, 3),
                 util::Table::num(ratio(every.seconds, fresh_seconds), 2)});
  table.add_row({"simulate all", std::to_string(suite.size()),
                 std::to_string(every.pools.streams.builds),
                 util::Table::num(every.seconds, 3), "1.00"});
  table.add_row({"default", std::to_string(pooled.pools.states.builds),
                 std::to_string(pooled.pools.streams.builds),
                 util::Table::num(pooled.seconds, 3),
                 util::Table::num(default_speedup, 2)});
  table.add_row({"cache on",
                 std::to_string(static_cast<unsigned long long>(stats.misses)),
                 std::to_string(on.pools.streams.builds),
                 util::Table::num(on.seconds, 3),
                 util::Table::num(speedup, 2)});
  table.add_row(
      {"store cold",
       std::to_string(static_cast<unsigned long long>(cold_stats.misses)),
       std::to_string(cold.pools.streams.builds),
       util::Table::num(cold.seconds, 3),
       util::Table::num(ratio(every.seconds, cold.seconds), 2)});
  table.add_row(
      {"store warm",
       std::to_string(static_cast<unsigned long long>(warm_stats.misses)),
       std::to_string(warm.pools.streams.builds),
       util::Table::num(warm.seconds, 3),
       util::Table::num(warm_speedup, 2)});
  std::cout << table.to_string();
  std::cout << "best of " << kRepeats
            << " for simulate all, default, cache on and store warm\n";
  std::cout << "cache: " << stats.hits << " hits, " << stats.misses
            << " misses, " << stats.evictions << " evictions, "
            << stats.entries << " resident\n";
  std::cout << "store: cold " << cold_stats.misses << " simulated + "
            << cold_stats.publishes << " published, warm " << warm_stats.hits
            << " hits / " << warm_stats.misses << " misses\n";

  if (every.pools.streams.builds != 1 || pooled.pools.streams.builds != 1 ||
      on.pools.streams.builds != 1 || cold.pools.streams.builds != 1 ||
      warm.pools.streams.builds != 0) {
    std::cerr << "FAIL: expected the one GoogLeNet stream built exactly once "
                 "per simulating run (and never on a warm store), got "
                 "simulate all "
              << every.pools.streams.builds << ", default "
              << pooled.pools.streams.builds << ", cache on "
              << on.pools.streams.builds << ", store cold "
              << cold.pools.streams.builds << ", store warm "
              << warm.pools.streams.builds << "\n";
    failed = true;
  }
  if (!failed)
    std::cout << "summaries byte-identical; the default run and the cache "
                 "each served all 12 points from 1 stream build and 1 "
                 "simulation; warm store re-simulated nothing\n";

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::cerr << "cannot open '" << json_path << "' for writing\n";
      return 1;
    }
    json << "{\n  \"points\": " << suite.size() << ",\n"
         << "  \"jobs\": " << jobs << ",\n"
         << "  \"fresh_seconds\": " << util::Table::num(fresh_seconds, 4)
         << ",\n"
         << "  \"pool_speedup\": " << util::Table::num(pool_speedup, 3)
         << ",\n"
         << "  \"stream_builds\": " << pooled.pools.streams.builds << ",\n"
         << "  \"simulations\": " << pooled.pools.states.builds << ",\n"
         << "  \"simulate_all_seconds\": " << util::Table::num(every.seconds, 4)
         << ",\n"

         << "  \"cache_on_seconds\": " << util::Table::num(on.seconds, 4)
         << ",\n"
         << "  \"speedup\": " << util::Table::num(speedup, 3) << ",\n"
         << "  \"store_cold_seconds\": " << util::Table::num(cold.seconds, 4)
         << ",\n"
         << "  \"store_warm_seconds\": " << util::Table::num(warm.seconds, 4)
         << ",\n"
         << "  \"warm_speedup\": " << util::Table::num(warm_speedup, 3)
         << ",\n"
         << "  \"hits\": " << stats.hits << ",\n"
         << "  \"misses\": " << stats.misses << ",\n"
         << "  \"byte_identical\": " << (failed ? "false" : "true")
         << "\n}\n";
    std::cout << "timings written to " << json_path << "\n";
  }
  return failed ? 1 : 0;
}
