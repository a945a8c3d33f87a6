// Cross-point simulation reuse: the duty-state cache (core/sim_cache.hpp)
// against the simulate-every-point baseline, on the canonical 12-point
// environment-axis grid (3 temperatures x 2 vdd x 2 activity scales over
// one GoogLeNet workload). Every point shares one simulation fingerprint
// — the axes are evaluation-time inputs — so the cached sweep simulates
// once and evaluates twelve times.
//
// Below both sits the sweep's stream pool (core/stream_pool.hpp): every
// suite run builds the one GoogLeNet stream once, so even the cache-off
// sweep only re-simulates. The `fresh` row runs the 12 points through
// plain run_scenario(spec), which builds the stream per point — the cost
// of a sweep before the pool — and gates the pool's saving.
//
//   bench_sweep_cache [--jobs=N] [--json=PATH]
//
// --jobs defaults to 1: serial admission makes the wall-clock ratio a
// machine-independent measure of the work the cache removes (11 of 12
// simulations), instead of a function of how many cores happened to soak
// up the redundant ones. The bench hard-fails (exit 1) unless the two
// summaries (timing omitted) are byte-identical, the cache counters
// come out exactly hits=11 / misses=1 — the single-flight + determinism
// contract — and every simulating suite run built its stream exactly once,
// so CI can gate on the exit code alone; --json adds the wall times and
// ratios for the regression gate against
// bench/bench_sweep_cache_reference.json.
// The disk tier (core/sim_store.hpp) is measured the same way: a cold
// run populates an empty store directory, then a warm run with a fresh
// SimStore instance must satisfy every point from disk (0 simulations)
// and reproduce the reuse-off summary byte-for-byte — the cross-run
// analogue of the in-memory gate.
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

  // Per-point stream builds: each point through plain run_scenario, as a
  // sweep ran before the stream pool. Serial, like --jobs=1.
  const auto fresh_start = std::chrono::steady_clock::now();
  std::vector<core::SuiteOutcome> fresh_outcomes;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const core::SuiteEntry& entry = suite.entries()[i];
    core::SuiteOutcome outcome;
    outcome.index = i;
    outcome.path = entry.path;
    outcome.name = entry.spec.name;
    outcome.fingerprint = core::simulation_fingerprint(entry.spec);
    outcome.result = core::run_scenario(entry.spec);
    outcome.ok = true;
    fresh_outcomes.push_back(std::move(outcome));
  }
  const double fresh_seconds = seconds_since(fresh_start);
  const std::string fresh_summary =
      suite_summary_json(make_suite_records(fresh_outcomes), info);

  // One timed suite run: its wall time, timing-free summary and stream
  // pool counters. Every run must reproduce the per-point summary.
  struct TimedRun {
    double seconds = 0.0;
    core::StreamPoolStats streams;
  };
  const auto timed_run = [&](const char* label) {
    TimedRun run;
    const auto start = std::chrono::steady_clock::now();
    const std::vector<core::SuiteOutcome> outcomes =
        suite.run(options, &run.streams);
    run.seconds = seconds_since(start);
    for (const core::SuiteOutcome& outcome : outcomes)
      if (!outcome.ok) {
        std::cerr << "FAIL: " << label << ": point '" << outcome.name
                  << "' failed: " << outcome.error << "\n";
        failed = true;
      }
    if (suite_summary_json(make_suite_records(outcomes), info) !=
        fresh_summary) {
      std::cerr << "FAIL: " << label << " summary is not byte-identical to "
                   "per-point run_scenario (timing omitted)\n";
      failed = true;
    }
    return run;
  };
  const auto keep_best = [](TimedRun& best, const TimedRun& run, int repeat) {
    if (repeat == 0 || run.seconds < best.seconds) best = run;
  };

  // The reuse ratios compare sub-second runs on a possibly shared host, so
  // cache off and cache on are timed kRepeats times, interleaved, and each
  // keeps its best time. Every repeat passes the exact checks; the cache
  // starts empty each time.
  constexpr int kRepeats = 3;
  TimedRun off, on;
  core::SimCacheStats stats;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    options.sim_cache = nullptr;
    keep_best(off, timed_run("cache off"), repeat);
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
  const double pool_speedup = ratio(fresh_seconds, off.seconds);
  const double speedup = ratio(off.seconds, on.seconds);
  const double warm_speedup = ratio(off.seconds, warm.seconds);
  util::Table table(
      {"path", "simulations", "stream builds", "wall [s]", "speedup"});
  table.add_row({"fresh", std::to_string(suite.size()),
                 std::to_string(suite.size()),
                 util::Table::num(fresh_seconds, 3),
                 util::Table::num(ratio(off.seconds, fresh_seconds), 2)});
  table.add_row({"cache off", std::to_string(suite.size()),
                 std::to_string(off.streams.builds),
                 util::Table::num(off.seconds, 3), "1.00"});
  table.add_row({"cache on",
                 std::to_string(static_cast<unsigned long long>(stats.misses)),
                 std::to_string(on.streams.builds),
                 util::Table::num(on.seconds, 3),
                 util::Table::num(speedup, 2)});
  table.add_row(
      {"store cold",
       std::to_string(static_cast<unsigned long long>(cold_stats.misses)),
       std::to_string(cold.streams.builds),
       util::Table::num(cold.seconds, 3),
       util::Table::num(ratio(off.seconds, cold.seconds), 2)});
  table.add_row(
      {"store warm",
       std::to_string(static_cast<unsigned long long>(warm_stats.misses)),
       std::to_string(warm.streams.builds),
       util::Table::num(warm.seconds, 3),
       util::Table::num(warm_speedup, 2)});
  std::cout << table.to_string();
  std::cout << "best of " << kRepeats
            << " for cache off, cache on and store warm\n";
  std::cout << "cache: " << stats.hits << " hits, " << stats.misses
            << " misses, " << stats.evictions << " evictions, "
            << stats.entries << " resident\n";
  std::cout << "store: cold " << cold_stats.misses << " simulated + "
            << cold_stats.publishes << " published, warm " << warm_stats.hits
            << " hits / " << warm_stats.misses << " misses\n";

  if (off.streams.builds != 1 || on.streams.builds != 1 ||
      cold.streams.builds != 1 || warm.streams.builds != 0) {
    std::cerr << "FAIL: expected the one GoogLeNet stream built exactly once "
                 "per simulating run (and never on a warm store), got "
                 "cache off "
              << off.streams.builds << ", cache on " << on.streams.builds
              << ", store cold " << cold.streams.builds << ", store warm "
              << warm.streams.builds << "\n";
    failed = true;
  }
  if (!failed)
    std::cout << "summaries byte-identical; 1 stream build and 1 simulation "
                 "served all 12 points; warm store re-simulated nothing\n";

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
         << "  \"stream_builds\": " << off.streams.builds << ",\n"
         << "  \"cache_off_seconds\": " << util::Table::num(off.seconds, 4)
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
