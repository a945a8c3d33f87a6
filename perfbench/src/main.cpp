// perfbench: the end-to-end sweep benchmark of the DNN-Life framework.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--work-dir DIR] [--trace-file PATH] [--expect-digest HEX]
//             [--reference]
//
// Untraced (--trace 0): repeats the workload's sweep, the way
// example_sweep_runner runs it (ScenarioGenerator → ScenarioSuite::run on
// the session executor), until --seconds are used, and prints the
// end-to-end metrics. Traced (--trace 1): alternates an untraced sweep with
// a traced one that recomposes every point from the public layer calls
// (recompose.hpp), and prints the per-layer metrics. Both check that the
// timing-free summary digest is the same on every sweep, that sampled
// points match a reuse-off run_scenario, and that the reuse tiers did the
// exact work the workload implies. --reference runs one sweep with reuse
// off and prints its digest, for pinning in perfbench/digests.json.
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// perfbench/README.md documents every metric.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario_generator.hpp"
#include "core/scenario_suite.hpp"
#include "recompose.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/bitops.hpp"
#include "util/executor.hpp"
#include "workloads.hpp"

namespace {

namespace core = dnnlife::core;
namespace fs = std::filesystem;
using perfbench::Clock;
using perfbench::Workload;

/// Executor workers: two, so the benchmark stays within a shared 4-core
/// machine while jobs=2 workloads still run points side by side.
constexpr unsigned kExecutorWorkers = 2;
constexpr std::size_t kSimCacheBytes = std::size_t{256} << 20;
/// A set-up takes milliseconds, so its median needs many samples, spread
/// over the whole run, to hold still on a shared machine: this many before
/// the first sweep, and kSetupsPerSweep before each sweep (the last of
/// which the sweep uses).
constexpr int kInitialSetups = 40;
constexpr int kSetupsPerSweep = 3;
/// Points per sweep re-run with reuse off and compared record by record.
constexpr std::size_t kSpotChecks = 4;
/// Percentile reported as the tail of per-point samples.
constexpr double kTail = 90.0;

struct Args {
  std::string workload;
  std::uint64_t seed = perfbench::kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  fs::path work_dir = ".";
  std::string trace_file;
  std::string expect_digest;
  bool reference = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--reference") {
      args.reference = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = std::stoi(value) != 0;
    else if (flag == "--work-dir") args.work_dir = value;
    else if (flag == "--trace-file") args.trace_file = value;
    else if (flag == "--expect-digest") args.expect_digest = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (args.workload.empty())
    throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0))
    throw std::invalid_argument("--seconds must be > 0");
  return args;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Whether one more repetition of `step` seconds would end nearer the
/// `budget` than stopping now: a run measures for about --seconds, even
/// when one repetition is a large part of it.
bool ends_closer(Clock::time_point start, double step, double budget) {
  return seconds_since(start) + step / 2.0 < budget;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// Peak resident memory of this process image, from /proc/self/status.
/// getrusage's ru_maxrss is not used: Linux carries it across exec, so it
/// would report a larger parent's peak (e.g. the launching interpreter).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string fnv1a64_hex(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, hash);
  return hex;
}

double median(std::vector<double> values) {
  return perfbench::percentile(std::move(values), 50.0);
}

// ---- set-up ----------------------------------------------------------------

struct Setup {
  core::ScenarioSuite suite;
  std::shared_ptr<core::SimCache> cache;
  std::shared_ptr<core::SimStore> store;
  fs::path store_dir;
  double seconds = 0.0;
  double parse_seconds = 0.0;
};

/// Everything before the first submit: grid generation and parsing, the
/// suite, executor sizing and the reuse tiers (SimStore probe-writes its
/// fresh, empty directory).
Setup set_up(const Workload& workload, const fs::path& work_dir,
             perfbench::Trace* trace = nullptr) {
  static int store_number = 0;
  Setup setup;
  if (workload.sim_store) {
    setup.store_dir = work_dir / ("store-" + std::to_string(store_number++));
    fs::remove_all(setup.store_dir);
  }
  const Clock::time_point start = Clock::now();
  {
    std::optional<perfbench::Scope> span;
    if (trace != nullptr) span.emplace(*trace, "parse", -1);
    for (core::GeneratedScenario& point :
         core::ScenarioGenerator::parse(workload.spec_json).generate())
      setup.suite.add(core::SuiteEntry{point.name + ".json",
                                       std::move(point.spec),
                                       std::move(point.document)});
  }
  setup.parse_seconds = seconds_since(start);
  dnnlife::util::Executor::configure_session(kExecutorWorkers);
  if (workload.sim_cache)
    setup.cache = std::make_shared<core::SimCache>(kSimCacheBytes);
  if (workload.sim_store)
    setup.store = std::make_shared<core::SimStore>(
        core::SimStore::Options{setup.store_dir.string(), 0});
  setup.seconds = seconds_since(start);
  return setup;
}

void tear_down(Setup& setup) {
  setup.cache.reset();
  setup.store.reset();
  if (!setup.store_dir.empty()) fs::remove_all(setup.store_dir);
}

core::SuiteSummaryInfo summary_info(const core::ScenarioSuite& suite) {
  core::SuiteSummaryInfo info;
  info.total_scenarios = suite.size();
  info.manifest_hash = suite.manifest_hash();
  info.include_timing = false;
  return info;
}

// ---- the untraced sweep -----------------------------------------------------

struct Sweep {
  double seconds = 0.0;      ///< run + records + summary, set-up excluded
  double cpu_seconds = 0.0;
  std::vector<double> point_seconds;
  std::vector<double> queue_wait_seconds;
  double slot_busy_ratio = 0.0;
  std::vector<core::SuiteRecord> records;
  std::string digest;
  std::size_t failed = 0;
  core::SimCacheStats cache;
  core::SimStoreStats store;
};

/// Admission wait per point: a point's start minus the moment its slot
/// opened (sweep start for the first `jobs` points, else the finish of the
/// point that freed the slot, in finish order).
std::vector<double> queue_waits(std::vector<double> starts,
                                std::vector<double> finishes, unsigned jobs) {
  std::sort(starts.begin(), starts.end());
  std::sort(finishes.begin(), finishes.end());
  std::vector<double> waits;
  waits.reserve(starts.size());
  for (std::size_t k = 0; k < starts.size(); ++k) {
    const double opened = k < jobs ? 0.0 : finishes[k - jobs];
    waits.push_back(std::max(0.0, starts[k] - opened));
  }
  return waits;
}

Sweep run_sweep(const Setup& setup, const Workload& workload, bool reuse) {
  const std::size_t n = setup.suite.size();
  std::vector<double> finished(n, 0.0);
  Clock::time_point start;
  core::SuiteRunOptions options;
  options.jobs = workload.jobs;
  options.threads_per_scenario = workload.threads;
  if (reuse) {
    options.sim_cache = setup.cache;
    options.sim_store = setup.store;
  }
  options.progress = [&](const core::SuiteProgress& progress) {
    finished[progress.outcome->index] = seconds_since(start);
  };
  Sweep sweep;
  const double cpu_start = cpu_seconds();
  start = Clock::now();
  const std::vector<core::SuiteOutcome> outcomes = setup.suite.run(options);
  sweep.records = core::make_suite_records(outcomes);
  const std::string summary =
      core::suite_summary_json(sweep.records, summary_info(setup.suite));
  sweep.seconds = seconds_since(start);
  sweep.cpu_seconds = cpu_seconds() - cpu_start;
  sweep.digest = fnv1a64_hex(summary);

  std::vector<double> starts;
  double busy = 0.0;
  for (const core::SuiteOutcome& outcome : outcomes) {
    if (!outcome.ok) ++sweep.failed;
    sweep.point_seconds.push_back(outcome.wall_seconds);
    starts.push_back(finished[outcome.index] - outcome.wall_seconds);
    busy += outcome.wall_seconds;
  }
  sweep.queue_wait_seconds = queue_waits(starts, finished, workload.jobs);
  const double span = *std::max_element(finished.begin(), finished.end());
  sweep.slot_busy_ratio = busy / (workload.jobs * span);
  if (setup.cache) sweep.cache = setup.cache->stats();
  if (setup.store) sweep.store = setup.store->stats();
  return sweep;
}

// ---- the traced sweep -------------------------------------------------------

struct TracedSweep {
  double seconds = 0.0;
  std::vector<perfbench::Span> spans;
  perfbench::PointCounts counts;
  std::string digest;
  std::size_t failed = 0;
  std::size_t summary_bytes = 0;
  core::SimCacheStats cache;
  core::SimStoreStats store;
};

/// Recompose every point with `jobs` in flight on the session executor.
/// With reuse on, each fingerprint's first point goes first — the order
/// SweepScheduler's single-flight parking produces.
TracedSweep run_traced_sweep(const Setup& setup, const Workload& workload,
                             perfbench::Trace& trace) {
  const std::vector<core::SuiteEntry>& entries = setup.suite.entries();
  const std::size_t n = entries.size();
  perfbench::TracedTiers tiers(setup.cache, setup.store);
  std::vector<std::size_t> order;
  if (tiers.enabled()) {
    std::vector<std::size_t> later;
    std::set<std::string> seen;
    for (std::size_t i = 0; i < n; ++i) {
      if (seen.insert(core::simulation_fingerprint(entries[i].spec)).second)
        order.push_back(i);
      else
        later.push_back(i);
    }
    order.insert(order.end(), later.begin(), later.end());
  } else {
    for (std::size_t i = 0; i < n; ++i) order.push_back(i);
  }

  std::vector<core::SuiteRecord> records(n);
  std::vector<perfbench::PointCounts> counts(n);
  TracedSweep sweep;
  const Clock::time_point start = Clock::now();
  {
    dnnlife::util::TaskGroup group(dnnlife::util::Executor::session());
    group.submit_items(n, workload.jobs, [&](std::size_t k) {
      const std::size_t i = order[k];
      records[i] = perfbench::run_point_traced(entries[i], i, workload.threads,
                                               tiers, trace, counts[i]);
    });
    group.wait();
  }
  std::string summary;
  {
    const perfbench::Scope span(trace, "emit.summary", -1);
    summary = core::suite_summary_json(records, summary_info(setup.suite));
  }
  sweep.seconds = seconds_since(start);
  sweep.digest = fnv1a64_hex(summary);
  sweep.summary_bytes = summary.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!records[i].ok) ++sweep.failed;
    sweep.counts += counts[i];
  }
  sweep.spans = trace.spans();
  if (setup.cache) sweep.cache = setup.cache->stats();
  if (setup.store) sweep.store = setup.store->stats();
  return sweep;
}

/// Per-layer time metrics of one traced sweep: milliseconds per point of
/// each layer, shares of the summed point time, and the share of point
/// time the layer spans cover.
std::map<std::string, double> layer_times(const TracedSweep& sweep,
                                          std::size_t points) {
  const std::vector<perfbench::Span>& spans = sweep.spans;
  std::vector<std::vector<perfbench::Interval>> children(spans.size());
  std::map<std::string, double> total_us;
  for (const perfbench::Span& span : spans) {
    total_us[span.name] += span.end_us - span.start_us;
    if (span.parent >= 0)
      children[static_cast<std::size_t>(span.parent)].push_back(
          {span.start_us, span.end_us});
  }
  double point_us = 0.0;
  double uncovered_us = 0.0;
  for (std::size_t id = 0; id < spans.size(); ++id) {
    if (std::string_view(spans[id].name) != "point") continue;
    const perfbench::Interval interval{spans[id].start_us, spans[id].end_us};
    point_us += interval.end - interval.begin;
    uncovered_us += perfbench::self_time(interval, children[id]);
  }
  const auto per_point_ms = [&](std::initializer_list<const char*> names) {
    double us = 0.0;
    for (const char* name : names) us += total_us[name];
    return us / 1000.0 / static_cast<double>(points);
  };
  const auto share = [&](std::initializer_list<const char*> names) {
    double us = 0.0;
    for (const char* name : names) us += total_us[name];
    return us / point_us;
  };
  return {
      {"stream.quantise_ms", per_point_ms({"stream.quantise"})},
      {"stream.pack_ms", per_point_ms({"stream.pack"})},
      {"stream.share", share({"stream"})},
      {"sim.ms", per_point_ms({"sim"})},
      {"sim.share", share({"sim"})},
      {"report.model_ms", per_point_ms({"report.model"})},
      {"report.aging_ms", per_point_ms({"report.aging"})},
      {"report.lifetime_ms", per_point_ms({"report.lifetime"})},
      {"report.share",
       share({"report.model", "report.aging", "report.lifetime"})},
      {"fingerprint.ms", per_point_ms({"fingerprint"})},
      {"cache.lookup_ms", per_point_ms({"cache.lookup"})},
      {"store.lookup_ms", per_point_ms({"store.lookup"})},
      {"store.publish_ms", per_point_ms({"store.publish"})},
      {"store.share", share({"store.lookup", "store.publish"})},
      {"emit.ms", per_point_ms({"emit.record", "emit.summary"})},
      {"emit.share", share({"emit.record", "emit.summary"})},
      {"trace.coverage", 1.0 - uncovered_us / point_us},
  };
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

// ---- correctness ------------------------------------------------------------

/// Re-run sampled points through plain run_scenario (no reuse tiers, no
/// scheduler) and compare their timing-free records with the sweep's.
/// Returns the number of mismatches.
std::size_t spot_check(const core::ScenarioSuite& suite,
                       const Workload& workload,
                       const std::vector<core::SuiteRecord>& records,
                       std::uint64_t seed) {
  const std::vector<core::SuiteEntry>& entries = suite.entries();
  const std::size_t stride = entries.size() / kSpotChecks;
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < kSpotChecks; ++k) {
    const std::size_t index = k * stride + seed % stride;
    const core::SuiteEntry& entry = entries[index];
    core::SuiteOutcome outcome;
    outcome.index = index;
    outcome.path = entry.path;
    outcome.name = entry.spec.name;
    outcome.fingerprint = core::simulation_fingerprint(entry.spec);
    core::ScenarioSpec spec = entry.spec;
    spec.threads = workload.threads;
    try {
      outcome.result = core::run_scenario(spec);
      outcome.ok = true;
    } catch (const std::exception& error) {
      outcome.error = error.what();
    }
    if (core::suite_record_json(core::make_suite_record(outcome), false) !=
        core::suite_record_json(records[index], false)) {
      std::cout << "MISMATCH: point " << index
                << " differs from a reuse-off run_scenario\n";
      ++mismatches;
    }
  }
  return mismatches;
}

struct Checks {
  bool ok = true;
  void require(bool condition, const std::string& what) {
    if (condition) return;
    ok = false;
    std::cout << "CHECK FAILED: " << what << "\n";
  }
};

/// The reuse tiers must have done exactly the work the workload implies:
/// one miss per distinct stream and a hit for every other point.
void check_tier_counts(Checks& checks, const Workload& workload,
                       const core::SimCacheStats& cache,
                       const core::SimStoreStats& store) {
  const std::uint64_t sims = workload.simulations;
  const std::uint64_t reused = workload.points - workload.simulations;
  if (workload.sim_cache)
    checks.require(cache.misses == sims && cache.hits == reused,
                   "cache hits/misses " + std::to_string(cache.hits) + "/" +
                       std::to_string(cache.misses));
  if (workload.sim_store)
    checks.require(store.misses == sims && store.hits == reused &&
                       store.publishes == sims,
                   "store hits/misses/publishes " + std::to_string(store.hits) +
                       "/" + std::to_string(store.misses) + "/" +
                       std::to_string(store.publishes));
}

// ---- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::cout << "\n";
  for (const Metric& metric : metrics) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-26s %16.6g %s\n",
                  metric.name.c_str(), metric.value, metric.unit.c_str());
    std::cout << line;
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
              << "\": {\"value\": " << value << ", \"unit\": \""
              << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

void print_header(const Args& args, const Workload& workload) {
  std::cout << "perfbench: workload " << workload.name << ", seed " << args.seed
            << ", " << args.seconds << " s, trace " << (args.trace ? 1 : 0)
            << "\n  build " << PERFBENCH_BUILD_TYPE << ", "
            << PERFBENCH_COMPILER
            << ", flags '" << PERFBENCH_FLAGS << "'"
            << "\n  duty kernel " << dnnlife::util::duty_kernel_variant()
            << ", nproc " << std::thread::hardware_concurrency()
            << ", executor workers "
            << dnnlife::util::Executor::session().workers() << ", jobs "
            << workload.jobs << ", threads " << workload.threads << ", reuse "
            << (workload.sim_cache ? "sim-cache"
                                   : workload.sim_store ? "sim-store" : "off")
            << "\n";
}

// ---- modes ------------------------------------------------------------------

int run_reference(const Args& args, const Workload& workload) {
  Setup setup = set_up(workload, args.work_dir);
  const Sweep sweep = run_sweep(setup, workload, /*reuse=*/false);
  tear_down(setup);
  std::cout << "summary_digest " << sweep.digest << " (reuse off, "
            << sweep.records.size() << " points, " << sweep.failed
            << " failed)\n";
  return sweep.failed == 0 ? 0 : 1;
}

int run_untraced(const Args& args, const Workload& workload) {
  Checks checks;
  std::vector<double> setup_seconds;
  Setup setup;
  const auto timed_set_ups = [&](int count) {
    for (int i = 0; i < count; ++i) {
      if (i != 0) tear_down(setup);
      setup = set_up(workload, args.work_dir);
      setup_seconds.push_back(setup.seconds);
    }
  };
  timed_set_ups(kInitialSetups);
  tear_down(setup);
  std::vector<Sweep> sweeps;
  double sweep_seconds = 0.0;
  const Clock::time_point start = Clock::now();
  do {
    timed_set_ups(kSetupsPerSweep);
    sweeps.push_back(run_sweep(setup, workload, /*reuse=*/true));
    sweep_seconds += sweeps.back().seconds;
    check_tier_counts(checks, workload, sweeps.back().cache,
                      sweeps.back().store);
    // Only the first sweep's records are checked further; keeping every
    // sweep's would make peak_rss_mb grow with the number of sweeps.
    if (sweeps.size() > 1)
      std::vector<core::SuiteRecord>().swap(sweeps.back().records);
    tear_down(setup);
  } while (ends_closer(start, sweep_seconds / sweeps.size(), args.seconds));
  const double rss = peak_rss_mb();

  std::size_t points = 0, failed = 0;
  double cpu = 0.0;
  std::vector<double> point_ms;
  std::vector<double> sweep_rates;
  for (const Sweep& sweep : sweeps) {
    points += sweep.point_seconds.size();
    sweep_rates.push_back(sweep.point_seconds.size() / sweep.seconds);
    failed += sweep.failed;
    cpu += sweep.cpu_seconds;
    for (const double s : sweep.point_seconds) point_ms.push_back(s * 1000.0);
    checks.require(sweep.digest == sweeps.front().digest,
                   "summary digest differs between sweeps of one run");
  }
  const std::string& digest = sweeps.front().digest;
  std::cout << "summary_digest " << digest << "\n";
  if (!args.expect_digest.empty())
    checks.require(digest == args.expect_digest,
                   "summary digest " + digest + " != pinned " +
                       args.expect_digest);
  checks.require(failed == 0, std::to_string(failed) + " points failed");
  checks.require(
      spot_check(setup.suite, workload, sweeps.front().records, args.seed) == 0,
      "spot check against reuse-off run_scenario");
  const std::optional<double> tail =
      perfbench::highest_supported_percentile(point_ms.size());
  checks.require(tail && *tail >= kTail, "too few points for a p90");
  std::cout << "per-sweep points/s min/median/max: "
            << perfbench::percentile(sweep_rates, 0.0) << " "
            << median(sweep_rates) << " "
            << perfbench::percentile(sweep_rates, 100.0)
            << "\npoint ms p10/p25/p50/p75/p90:";
  for (const double p : {10.0, 25.0, 50.0, 75.0, 90.0})
    std::cout << " " << perfbench::percentile(point_ms, p);
  std::cout << "\n" << sweeps.size() << " sweep(s), " << points
            << " points: p50/p90 over " << point_ms.size()
            << " samples, set-up median over " << setup_seconds.size()
            << " samples; failed_ratio " << ratio(failed, points) << "\n";

  print_result(checks.ok, points, failed,
               {{"points_per_s", points / sweep_seconds, "1/s"},
                {"point_ms_p50", perfbench::percentile(point_ms, 50.0), "ms"},
                {"point_ms_p90", perfbench::percentile(point_ms, kTail), "ms"},
                {"cpu_ms_per_point", cpu * 1000.0 / points, "ms"},
                {"setup_s", median(setup_seconds), "s"},
                {"peak_rss_mb", rss, "MB"}});
  return checks.ok ? 0 : 1;
}

int run_traced(const Args& args, const Workload& workload) {
  Checks checks;
  std::vector<std::map<std::string, double>> times;
  std::vector<double> overhead, parse_ms, wait_p50, wait_p90, busy;
  std::optional<TracedSweep> first;
  std::string digest;
  std::size_t attempted = 0, failed = 0;
  std::optional<perfbench::Trace> kept_trace;
  double pair_seconds = 0.0;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point pair_start = Clock::now();
    Setup plain_setup = set_up(workload, args.work_dir);
    const Sweep plain = run_sweep(plain_setup, workload, /*reuse=*/true);
    check_tier_counts(checks, workload, plain.cache, plain.store);
    if (digest.empty()) {
      digest = plain.digest;
      checks.require(spot_check(plain_setup.suite, workload, plain.records,
                                args.seed) == 0,
                     "spot check against reuse-off run_scenario");
    }
    tear_down(plain_setup);

    // Only the first traced sweep's spans are written to --trace-file.
    std::optional<perfbench::Trace> later_trace;
    perfbench::Trace& trace =
        kept_trace ? later_trace.emplace() : kept_trace.emplace();
    Setup setup = set_up(workload, args.work_dir, &trace);
    const TracedSweep traced = run_traced_sweep(setup, workload, trace);
    check_tier_counts(checks, workload, traced.cache, traced.store);
    tear_down(setup);

    checks.require(plain.digest == digest && traced.digest == digest,
                   "traced recomposition digest " + traced.digest +
                       " != sweep digest " + digest);
    attempted += plain.records.size() + workload.points;
    failed += plain.failed + traced.failed;
    times.push_back(layer_times(traced, workload.points));
    overhead.push_back(traced.seconds / plain.seconds);
    parse_ms.push_back(setup.parse_seconds * 1000.0);
    wait_p50.push_back(perfbench::percentile(plain.queue_wait_seconds, 50.0));
    wait_p90.push_back(perfbench::percentile(plain.queue_wait_seconds, kTail));
    busy.push_back(plain.slot_busy_ratio);
    if (!first) first = traced;
    checks.require(traced.counts.sim_runs == first->counts.sim_runs &&
                       traced.counts.rows_packed == first->counts.rows_packed,
                   "work counts differ between traced sweeps");
    pair_seconds = seconds_since(pair_start);
  } while (ends_closer(start, pair_seconds, args.seconds));

  std::cout << "summary_digest " << digest << "\n";
  if (!args.expect_digest.empty())
    checks.require(digest == args.expect_digest,
                   "summary digest " + digest + " != pinned " +
                       args.expect_digest);
  checks.require(failed == 0, std::to_string(failed) + " points failed");
  const perfbench::PointCounts& counts = first->counts;
  checks.require(counts.sim_runs == workload.simulations,
                 "sim.runs " + std::to_string(counts.sim_runs) + " != " +
                     std::to_string(workload.simulations));
  if (!args.trace_file.empty()) {
    std::ofstream out(args.trace_file);
    out << kept_trace->chrome_json();
    checks.require(static_cast<bool>(out), "writing " + args.trace_file);
  }

  const auto time_metric = [&](const std::string& name) {
    std::vector<double> values;
    for (const auto& sweep_times : times)
      values.push_back(sweep_times.at(name));
    return median(values);
  };
  const auto ms = [&](const std::string& name) -> Metric {
    return {name, time_metric(name), "ms"};
  };
  const auto fraction = [&](const std::string& name) -> Metric {
    return {name, time_metric(name), "ratio"};
  };
  const auto count = [](const std::string& name, std::uint64_t value,
                        const char* unit = "count") -> Metric {
    return {name, static_cast<double>(value), unit};
  };
  const core::SimCacheStats& cache = first->cache;
  const core::SimStoreStats& store = first->store;
  const double coverage = time_metric("trace.coverage");
  checks.require(coverage >= 0.95, "trace.coverage below 0.95");
  std::cout << times.size() << " traced sweep(s); time metrics are medians\n";
  print_result(
      checks.ok, attempted, failed,
      {ms("stream.quantise_ms"), ms("stream.pack_ms"),
       count("stream.builds", counts.stream_builds),
       count("stream.rows_packed", counts.rows_packed),
       fraction("stream.share"),
       ms("sim.ms"), count("sim.runs", counts.sim_runs),
       count("sim.row_writes", counts.row_writes), fraction("sim.share"),
       ms("report.model_ms"), ms("report.aging_ms"), ms("report.lifetime_ms"),
       count("report.cells", counts.report_cells), fraction("report.share"),
       ms("fingerprint.ms"), ms("cache.lookup_ms"),
       count("cache.hits", cache.hits), count("cache.misses", cache.misses),
       {"cache.hit_ratio", ratio(cache.hits, cache.hits + cache.misses),
        "ratio"},
       ms("store.lookup_ms"), ms("store.publish_ms"),
       count("store.hits", store.hits), count("store.misses", store.misses),
       count("store.publishes", store.publishes),
       count("store.bytes_read", counts.store_bytes_read, "bytes"),
       {"store.hit_ratio", ratio(store.hits, store.hits + store.misses),
        "ratio"},
       fraction("store.share"),
       {"parse.ms", median(parse_ms), "ms"},
       count("parse.points", workload.points),
       ms("emit.ms"), count("emit.bytes", first->summary_bytes, "bytes"),
       fraction("emit.share"),
       {"sched.queue_wait_ms_p50", median(wait_p50) * 1000.0, "ms"},
       {"sched.queue_wait_ms_p90", median(wait_p90) * 1000.0, "ms"},
       {"sched.slot_busy_ratio", median(busy), "ratio"},
       {"trace.coverage", coverage, "ratio"},
       {"trace.overhead_ratio", median(overhead), "ratio"}});
  return checks.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Workload workload =
        perfbench::make_workload(args.workload, args.seed);
    fs::create_directories(args.work_dir);
    dnnlife::util::Executor::configure_session(kExecutorWorkers);
    print_header(args, workload);
    if (args.reference) return run_reference(args, workload);
    return args.trace ? run_traced(args, workload)
                      : run_untraced(args, workload);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
}
