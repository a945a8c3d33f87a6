// Scenario sweep runner: a directory (or list) of scenario JSON files — or
// a generated grid from a sweep spec — run in parallel and aggregated into
// one summary. The production-sweep entry point of the framework.
//
//   example_sweep_runner <dir | scenario.json...> [flags]
//   example_sweep_runner --spec=SWEEP.json [flags]
//
// Flags:
//   --spec=FILE      generate the suite from a sweep spec (grid/jitter
//                    axes; see README "Distributed sweeps") instead of
//                    loading scenario files
//   --materialize=DIR  with --spec: write the generated documents as
//                    per-point JSON files into DIR and exit
//   --shard=K/N      run only shard K of N (every N-th scenario of the
//                    stable suite order, 1-based); the summary records the
//                    manifest so example_sweep_merge can reassemble shards
//   --jobs=N         concurrent-scenario budget (default 0 = hardware
//                    concurrency). A budget, not a pool size: all jobs
//                    share the one session executor
//   --threads=N      per-scenario simulation/report concurrency budget
//                    (default 0 = keep each document's own "threads").
//                    Also a budget on the shared executor — jobs x threads
//                    no longer oversubscribes the machine
//   --executor-threads=N
//                    size the process-wide work-stealing executor that all
//                    jobs and per-scenario budgets share (default: the
//                    DNNLIFE_EXECUTOR_THREADS environment variable, else
//                    hardware concurrency). The ONLY knob that changes the
//                    worker-thread count; results are bit-identical for
//                    any value
//   --journal=PATH   append every completed point to a crash-durable JSONL
//                    journal (flushed + fsynced record by record), so a
//                    killed run can resume from its valid prefix
//   --resume         with --journal: skip the points the journal already
//                    holds and replay them into the summary, which stays
//                    byte-identical (under --omit-timing) to an
//                    uninterrupted run. A missing journal starts fresh, so
//                    schedulers can always pass --resume.
//   --retries=N      extra attempts per failed/timed-out scenario
//                    (default 0; each attempt starts from a fresh spec)
//   --deadline=SEC   soft per-scenario deadline on the monotonic clock: an
//                    attempt that exceeds it is recorded as status
//                    "timeout" and abandoned instead of hanging the shard
//   --sim-cache-mb=N add an N-MB duty-state LRU (0 = none, the default).
//                    Reuse within the sweep needs no flag: points whose
//                    specs share a simulation fingerprint (same write
//                    stream — e.g. an environment/aging-model grid over
//                    one workload) always simulate once and share the
//                    committed tracker state through the sweep's pool,
//                    reported by the "sim pool: N simulations, M reuses"
//                    line. The LRU only adds reuse across sweeps in one
//                    process; it is consulted before the pool, so its
//                    hit/miss line counts exactly the points it served
//                    and the ones that simulated. Summaries stay
//                    byte-identical (--omit-timing) either way
//   --sim-store=DIR  content-addressed disk tier under the cache: memory
//                    misses probe DIR/<fingerprint>.simstate before
//                    simulating, and fresh simulations are durably
//                    published there (tmp + fsync + rename + dir fsync) —
//                    so re-runs, resumed crashes and sibling shards
//                    pointed at one shared directory simulate each
//                    distinct stream once globally. Corrupt entries
//                    degrade to misses (quarantined into DIR/quarantine).
//                    Summaries stay byte-identical to store-off runs; a
//                    store stats line prints at the end
//   --sim-store-mb=N byte budget for the store directory (default 0 =
//                    unbounded): after each publish, committed entries
//                    are evicted oldest-first until the store fits.
//                    Requires --sim-store
//   --csv=PATH       write the per-scenario summary as CSV
//   --json=PATH      write the per-scenario summary + aggregate as JSON
//   --omit-timing    drop wall-clock fields from CSV/JSON so summaries of
//                    identical sweeps are byte-comparable across runs
//   --quiet          suppress per-scenario progress lines
//
// Hidden (test/CI only):
//   --inject-fault=INDEX:KIND[:SECONDS]
//                    deterministic fault injection at the scenario with
//                    global index INDEX. KIND: "throw" (every attempt of
//                    the point fails), "delay" (the first attempt sleeps
//                    SECONDS, default 0.3 — pair with --deadline to force
//                    a timeout), "exit" (the process dies with _Exit(40)
//                    the moment the point starts — a simulated crash).
//
// Cross-machine sweep: run `--spec=S.json --shard=K/N --json=shard-K.json`
// on each of N machines, then `example_sweep_merge shard-*.json`.
//
// Exit status is non-zero when any scenario failed, so CI sweeps gate
// naturally.
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario_generator.hpp"
#include "core/scenario_suite.hpp"
#include "core/sweep_journal.hpp"
#include "util/cli.hpp"
#include "util/executor.hpp"
#include "util/table.hpp"

namespace {

using dnnlife::util::flag_value;
using dnnlife::util::read_file;

bool parse_shard(const std::string& text, dnnlife::core::SuiteShard& shard) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) return false;
  unsigned index = 0, count = 0;
  if (!dnnlife::util::parse_unsigned_flag(text.substr(0, slash), index) ||
      !dnnlife::util::parse_unsigned_flag(text.substr(slash + 1), count))
    return false;
  if (index < 1 || count < 1 || index > count) return false;
  shard.index = index;
  shard.count = count;
  return true;
}

struct FaultInjection {
  std::size_t index = 0;
  enum class Kind { kThrow, kDelay, kExit } kind = Kind::kThrow;
  double seconds = 0.3;  // kDelay only
};

bool parse_inject_fault(const std::string& text, FaultInjection& out) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) return false;
  unsigned index = 0;
  if (!dnnlife::util::parse_unsigned_flag(text.substr(0, colon), index))
    return false;
  std::string kind = text.substr(colon + 1);
  double seconds = 0.3;
  if (const std::size_t second_colon = kind.find(':');
      second_colon != std::string::npos) {
    if (!dnnlife::util::parse_double_flag(kind.substr(second_colon + 1),
                                          seconds) ||
        seconds < 0.0)
      return false;
    kind.resize(second_colon);
  }
  out.index = index;
  out.seconds = seconds;
  if (kind == "throw") out.kind = FaultInjection::Kind::kThrow;
  else if (kind == "delay") out.kind = FaultInjection::Kind::kDelay;
  else if (kind == "exit") out.kind = FaultInjection::Kind::kExit;
  else return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dnnlife;
  std::vector<std::string> inputs;
  unsigned jobs = 0;  // hardware concurrency
  unsigned threads_per_scenario = 0;
  unsigned executor_threads = 0;  // DNNLIFE_EXECUTOR_THREADS, else hardware
  bool executor_threads_set = false;
  std::string csv_path;
  std::string json_path;
  std::string spec_path;
  std::string materialize_dir;
  std::string journal_path;
  bool resume = false;
  unsigned retries = 0;
  double deadline_seconds = 0.0;
  std::optional<FaultInjection> inject;
  core::SuiteShard shard;
  unsigned sim_cache_mb = 0;
  bool sim_cache_set = false;
  std::string sim_store_dir;
  unsigned sim_store_mb = 0;
  bool sim_store_mb_set = false;
  bool omit_timing = false;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (flag_value(arg, "jobs", value)) {
      if (!util::parse_unsigned_flag(value, jobs)) {
        std::cerr << "--jobs expects a number, got '" << value << "'\n";
        return 1;
      }
    } else if (flag_value(arg, "threads", value)) {
      if (!util::parse_unsigned_flag(value, threads_per_scenario)) {
        std::cerr << "--threads expects a number, got '" << value << "'\n";
        return 1;
      }
      if (threads_per_scenario > 1024) {
        std::cerr << "--threads=" << threads_per_scenario
                  << " exceeds the per-scenario budget bound of 1024 (the "
                     "scenario documents' own limit); remember it is a "
                     "concurrency budget on the shared executor, not a "
                     "thread count — use --executor-threads to size the "
                     "actual workers\n";
        return 1;
      }
    } else if (flag_value(arg, "executor-threads", value)) {
      if (!util::parse_unsigned_flag(value, executor_threads) ||
          executor_threads > 4096) {
        std::cerr << "--executor-threads expects a worker count in 0..4096 "
                     "(0 = hardware concurrency), got '" << value << "'\n";
        return 1;
      }
      executor_threads_set = true;
    } else if (flag_value(arg, "journal", value)) {
      journal_path = value;
    } else if (arg == "--resume") {
      resume = true;
    } else if (flag_value(arg, "retries", value)) {
      if (!util::parse_unsigned_flag(value, retries)) {
        std::cerr << "--retries expects a number, got '" << value << "'\n";
        return 1;
      }
    } else if (flag_value(arg, "deadline", value)) {
      if (!util::parse_double_flag(value, deadline_seconds) ||
          deadline_seconds <= 0.0) {
        std::cerr << "--deadline expects a positive number of seconds, got '"
                  << value << "'\n";
        return 1;
      }
    } else if (flag_value(arg, "inject-fault", value)) {
      FaultInjection fault;
      if (!parse_inject_fault(value, fault)) {
        std::cerr << "--inject-fault expects INDEX:{throw,delay,exit}"
                     "[:SECONDS], got '" << value << "'\n";
        return 1;
      }
      inject = fault;
    } else if (flag_value(arg, "shard", value)) {
      if (!parse_shard(value, shard)) {
        std::cerr << "--shard expects K/N with 1 <= K <= N, got '" << value
                  << "'\n";
        return 1;
      }
    } else if (flag_value(arg, "sim-cache-mb", value)) {
      if (!util::parse_unsigned_flag(value, sim_cache_mb) ||
          sim_cache_mb > 1u << 20) {
        std::cerr << "--sim-cache-mb expects a cache budget in MB "
                     "(0 disables, max 1048576), got '" << value << "'\n";
        return 1;
      }
      sim_cache_set = true;
    } else if (flag_value(arg, "sim-store", value)) {
      if (value.empty()) {
        std::cerr << "--sim-store expects a directory path\n";
        return 1;
      }
      sim_store_dir = value;
    } else if (flag_value(arg, "sim-store-mb", value)) {
      if (!util::parse_unsigned_flag(value, sim_store_mb) ||
          sim_store_mb > 1u << 20) {
        std::cerr << "--sim-store-mb expects a store budget in MB "
                     "(0 = unbounded, max 1048576), got '" << value << "'\n";
        return 1;
      }
      sim_store_mb_set = true;
    } else if (flag_value(arg, "spec", value)) {
      spec_path = value;
    } else if (flag_value(arg, "materialize", value)) {
      materialize_dir = value;
    } else if (flag_value(arg, "csv", value)) {
      csv_path = value;
    } else if (flag_value(arg, "json", value)) {
      json_path = value;
    } else if (arg == "--omit-timing") {
      omit_timing = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown flag " << arg << "\n";
      return 1;
    } else {
      inputs.push_back(arg);
    }
  }
  const bool from_spec = !spec_path.empty();
  if (from_spec == !inputs.empty()) {
    std::cerr << "usage: example_sweep_runner <dir | scenario.json...> "
                 "[--shard=K/N] [--jobs=N] [--threads=N] "
                 "[--executor-threads=N] [--journal=PATH] [--resume] "
                 "[--retries=N] [--deadline=SEC] [--sim-cache-mb=N] "
                 "[--sim-store=DIR] [--sim-store-mb=N] "
                 "[--csv=PATH] [--json=PATH] [--omit-timing] [--quiet]\n"
                 "   or: example_sweep_runner --spec=SWEEP.json "
                 "[--materialize=DIR] [same flags]\n"
                 "--jobs and --threads are concurrency budgets on one "
                 "shared executor;\n--executor-threads sizes its workers "
                 "(default $DNNLIFE_EXECUTOR_THREADS, else hardware)\n";
    return 1;
  }
  if (!materialize_dir.empty() && !from_spec) {
    std::cerr << "--materialize requires --spec\n";
    return 1;
  }
  if (!materialize_dir.empty() &&
      (shard.count > 1 || !csv_path.empty() || !json_path.empty() ||
       !journal_path.empty() || resume || inject.has_value() ||
       executor_threads_set || sim_cache_set || !sim_store_dir.empty() ||
       sim_store_mb_set)) {
    // Materialisation writes the whole grid and runs nothing, so a shard
    // selection, summary path, journal, simulation cache or store would
    // be silently ignored — reject the contradiction instead.
    std::cerr << "--materialize only writes the documents; it cannot be "
                 "combined with --shard, --csv, --json, --journal, "
                 "--resume, --inject-fault, --executor-threads, "
                 "--sim-cache-mb, --sim-store or --sim-store-mb\n";
    return 1;
  }
  if (sim_store_mb_set && sim_store_dir.empty()) {
    std::cerr << "--sim-store-mb bounds a store directory; pass "
                 "--sim-store=DIR to name it\n";
    return 1;
  }
  if (resume && journal_path.empty()) {
    std::cerr << "--resume replays a journal; pass --journal=PATH to name "
                 "the journal to continue\n";
    return 1;
  }
  if (!journal_path.empty() && !resume) {
    std::error_code ec;
    if (std::filesystem::exists(journal_path, ec) &&
        std::filesystem::file_size(journal_path, ec) > 0 && !ec) {
      std::cerr << "journal '" << journal_path
                << "' already exists; pass --resume to continue it or "
                   "choose a fresh path\n";
      return 1;
    }
  }

  core::ScenarioSuite suite;
  try {
    if (from_spec) {
      const core::ScenarioGenerator generator =
          core::ScenarioGenerator::parse(read_file(spec_path));
      if (!materialize_dir.empty()) {
        const std::vector<std::string> paths =
            generator.materialize(materialize_dir);
        std::cout << "materialized " << paths.size() << " scenario"
                  << (paths.size() == 1 ? "" : "s") << " into "
                  << materialize_dir << "\n";
        return 0;
      }
      for (core::GeneratedScenario& point : generator.generate())
        suite.add(core::SuiteEntry{point.name + ".json",
                                   std::move(point.spec),
                                   std::move(point.document)});
    } else if (inputs.size() == 1 &&
               std::filesystem::is_directory(inputs.front())) {
      suite = core::ScenarioSuite::from_directory(inputs.front());
    } else {
      suite = core::ScenarioSuite::from_files(inputs);
    }
  } catch (const std::exception& error) {
    std::cerr << "sweep error: " << error.what() << "\n";
    return 1;
  }

  std::vector<std::size_t> selection;
  try {
    selection = core::ScenarioSuite::shard_selection(suite.size(), shard);
  } catch (const std::exception& error) {
    std::cerr << "sweep error: " << error.what() << "\n";
    return 1;
  }
  // The durable journal: fresh for --journal, recovered for --resume.
  std::optional<core::SweepJournal> journal;
  if (!journal_path.empty()) {
    core::SweepJournalHeader header;
    header.manifest_hash = suite.manifest_hash();
    header.total_scenarios = suite.size();
    header.shard = shard;
    header.include_timing = !omit_timing;
    try {
      journal = resume ? core::SweepJournal::resume(journal_path, header)
                       : core::SweepJournal::create(journal_path, header);
    } catch (const std::exception& error) {
      std::cerr << "journal error: " << error.what() << "\n";
      return 1;
    }
    if (resume) {
      std::cout << "journal: " << journal->replayed().size() << " of "
                << selection.size() << " shard points already complete";
      if (journal->recovered_truncated_tail())
        std::cout << " (dropped a truncated final line)";
      std::cout << "\n";
    }
  }

  // Size the shared executor exactly once, before anything submits to it.
  // Without the flag, first use sizes it from DNNLIFE_EXECUTOR_THREADS or
  // the hardware count.
  if (executor_threads_set)
    util::Executor::configure_session(executor_threads);

  const unsigned resolved_jobs =
      std::min<unsigned>(util::resolve_thread_count(jobs),
                         static_cast<unsigned>(std::max<std::size_t>(
                             selection.size(), 1)));
  std::cout << "sweep: " << suite.size() << " scenario"
            << (suite.size() == 1 ? "" : "s");
  if (shard.count > 1)
    std::cout << ", shard " << shard.index << "/" << shard.count << " ("
              << selection.size() << " selected)";
  std::cout << ", " << resolved_jobs << " job"
            << (resolved_jobs == 1 ? "" : "s");
  if (threads_per_scenario != 0)
    std::cout << ", " << threads_per_scenario << " threads each";
  if (executor_threads_set)
    std::cout << ", " << util::Executor::session().workers()
              << " executor workers";
  if (retries != 0)
    std::cout << ", " << retries << " retr" << (retries == 1 ? "y" : "ies");
  if (deadline_seconds > 0.0)
    std::cout << ", " << util::Table::num(deadline_seconds, 3)
              << " s deadline";
  std::shared_ptr<core::SimCache> sim_cache;
  if (sim_cache_mb > 0) {
    sim_cache = std::make_shared<core::SimCache>(
        static_cast<std::size_t>(sim_cache_mb) * 1024 * 1024);
    std::cout << ", " << sim_cache_mb << " MB sim cache";
  }
  std::shared_ptr<core::SimStore> sim_store;
  if (!sim_store_dir.empty()) {
    try {
      // Validates the directory up front (created, probe-written) so a
      // misconfigured store fails here, not mid-sweep.
      sim_store = std::make_shared<core::SimStore>(core::SimStore::Options{
          sim_store_dir, static_cast<std::size_t>(sim_store_mb) * 1024 * 1024});
    } catch (const std::exception& error) {
      std::cout << "\n";
      std::cerr << "sim store error: " << error.what() << "\n";
      return 1;
    }
    std::cout << ", sim store " << sim_store_dir;
    if (sim_store_mb > 0) std::cout << " (" << sim_store_mb << " MB budget)";
  }
  std::cout << "\n";

  core::SuiteRunOptions options;
  options.jobs = jobs;
  options.threads_per_scenario = threads_per_scenario;
  options.shard = shard;
  options.retries = retries;
  options.soft_deadline_seconds = deadline_seconds;
  options.sim_cache = sim_cache;
  options.sim_store = sim_store;
  if (journal) options.journal = &*journal;
  if (inject.has_value()) {
    const FaultInjection fault = *inject;
    options.fault_hook = [fault](const core::SuiteFaultContext& context) {
      if (context.index != fault.index) return;
      switch (fault.kind) {
        case FaultInjection::Kind::kThrow:
          throw std::runtime_error("injected fault at index " +
                                   std::to_string(fault.index));
        case FaultInjection::Kind::kDelay:
          if (context.attempt == 1)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(fault.seconds));
          break;
        case FaultInjection::Kind::kExit:
          // A simulated crash: die without unwinding or flushing anything
          // beyond what the journal already persisted.
          std::_Exit(40);
      }
    };
  }
  if (!quiet) {
    options.progress = [sim_cache,
                        sim_store](const core::SuiteProgress& progress) {
      const core::SuiteOutcome& outcome = *progress.outcome;
      std::cout << "[" << progress.completed << "/" << progress.total << "] "
                << outcome.name;
      if (!outcome.ok) {
        std::cout << ": ERROR " << outcome.error;
      } else if (outcome.result->lifetime.has_value()) {
        std::cout << ": lifetime "
                  << util::Table::num(
                         outcome.result->lifetime->device_lifetime_years, 2)
                  << " y";
      } else {
        std::cout << ": dormant (no used cells)";
      }
      std::cout << " (" << util::Table::num(outcome.wall_seconds, 2) << " s)";
      if (sim_cache) {
        // Running reuse counters (the callback is serialized, so lines
        // stay whole): h hits / m misses across the sweep so far.
        const core::SimCacheStats stats = sim_cache->stats();
        std::cout << " [cache " << stats.hits << "h/" << stats.misses << "m]";
      }
      if (sim_store) {
        const core::SimStoreStats stats = sim_store->stats();
        std::cout << " [store " << stats.hits << "h/" << stats.misses << "m/"
                  << stats.publishes << "p]";
      }
      std::cout << std::endl;
    };
  }
  std::vector<core::SuiteOutcome> outcomes;
  core::SweepPoolStats pools;
  try {
    outcomes = suite.run(options, &pools);
  } catch (const std::exception& error) {
    std::cerr << "sweep error: " << error.what() << "\n";
    return 1;
  }

  // With a journal, the shard's full picture is replayed + fresh records;
  // without one, the fresh outcomes are the whole story. Either way the
  // table, the failure count and the summary files all see the same rows.
  std::vector<core::SuiteRecord> records;
  try {
    records = journal ? core::resumed_suite_records(*journal, outcomes)
                      : core::make_suite_records(outcomes);
  } catch (const std::exception& error) {
    std::cerr << "sweep error: " << error.what() << "\n";
    return 1;
  }

  const auto metric = [](double value) {
    return std::isnan(value) ? std::string("-") : util::Table::num(value, 2);
  };
  util::Table table({"scenario", "status", "mean SNM [%]", "max SNM [%]",
                     "lifetime [y]", "x worst-case", "wall [s]"});
  std::size_t failures = 0;
  for (const core::SuiteRecord& record : records) {
    if (!record.ok) ++failures;
    table.add_row(
        {record.name,
         record.ok ? "ok" : (record.timed_out ? "TIMEOUT" : "ERROR"),
         metric(record.snm_mean), metric(record.snm_max),
         metric(record.lifetime_years), metric(record.improvement_over_worst),
         util::Table::num(record.wall_seconds, 2)});
  }
  std::cout << "\n" << table.to_string();
  if (failures != 0)
    std::cout << failures << " scenario" << (failures == 1 ? "" : "s")
              << " failed\n";
  // Stdout only, never in the summary files: the --omit-timing summaries
  // of runs with and without the explicit tiers must stay byte-identical.
  std::cout << "sim pool: " << pools.states.builds << " simulation"
            << (pools.states.builds == 1 ? "" : "s") << ", "
            << pools.states.reuses << " reuse"
            << (pools.states.reuses == 1 ? "" : "s") << "\n";
  if (sim_cache) {
    const core::SimCacheStats stats = sim_cache->stats();
    std::cout << "sim cache: " << stats.hits << " hit"
              << (stats.hits == 1 ? "" : "s") << ", " << stats.misses
              << " miss" << (stats.misses == 1 ? "" : "es") << ", "
              << stats.evictions << " eviction"
              << (stats.evictions == 1 ? "" : "s") << ", " << stats.entries
              << " resident ("
              << util::Table::num(
                     static_cast<double>(stats.bytes_in_use) / (1024.0 * 1024.0),
                     1)
              << " MB)\n";
  }
  if (sim_store) {
    // "misses" counts exactly the points that had to simulate (every
    // simulation is preceded by a store miss), so a warm re-run reports
    // "0 misses, 0 publishes" — the CI cross-run gate greps for that.
    const core::SimStoreStats stats = sim_store->stats();
    std::cout << "sim store: " << stats.hits << " hit"
              << (stats.hits == 1 ? "" : "s") << ", " << stats.misses
              << " miss" << (stats.misses == 1 ? "" : "es") << ", "
              << stats.publishes << " publish"
              << (stats.publishes == 1 ? "" : "es") << ", "
              << stats.quarantined << " quarantined, " << stats.gc_evictions
              << " evicted";
    if (stats.publish_failures != 0)
      std::cout << ", " << stats.publish_failures << " publish failure"
                << (stats.publish_failures == 1 ? "" : "s");
    std::cout << "\n";
  }

  core::SuiteSummaryInfo info;
  info.total_scenarios = suite.size();
  info.manifest_hash = suite.manifest_hash();
  info.shard = shard;
  info.include_timing = !omit_timing;
  if (sim_cache) info.sim_cache = sim_cache->stats();
  if (sim_store) info.sim_store = sim_store->stats();
  if (!csv_path.empty()) {
    core::write_suite_csv(csv_path, records, info);
    std::cout << "sweep summary written to " << csv_path << "\n";
  }
  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::cerr << "cannot open '" << json_path << "' for writing\n";
      return 1;
    }
    json << core::suite_summary_json(records, info);
    std::cout << "sweep summary written to " << json_path << "\n";
  }
  return failures == 0 ? 0 : 2;
}
