// In-sweep duty-state reuse, the default of every sweep: SweepScheduler's
// duty-state pool (core/lease_pool.hpp under simulation fingerprints) with
// single flight always on. Checked on seeded generated grids whose
// fingerprints interleave in submission order, with multi-phase
// environments and two-region policy tables:
//  - the default ScenarioSuite::run summary is byte-identical to every
//    point run through plain run_scenario with no scheduler (the
//    reuse-off oracle), at jobs 1, 2 and 4;
//  - each fingerprint simulates once, and the peak number of resident
//    duty states follows the job budget, not the number of fingerprints;
//  - a failing leader hands its group to the next sibling, so the group
//    still simulates exactly once;
//  - an abandoned soft-deadline leader publishes into the pool after its
//    point was recorded, without touching freed scheduler state.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.hpp"
#include "core/scenario_suite.hpp"
#include "core/sweep_scheduler.hpp"

namespace dnnlife::core {
namespace {

// ---- the seeded grid ---------------------------------------------------------

PolicyConfig random_policy(std::mt19937_64& rng) {
  PolicyConfig policy;
  policy.kind = static_cast<PolicyKind>(rng() % 4);
  policy.seed = rng();
  if (policy.kind == PolicyKind::kDnnLife) policy.trbg_bias = 0.6;
  return policy;
}

/// `fingerprints` groups of `siblings` points each, interleaved: point i
/// belongs to group i % fingerprints. A group fixes everything the write
/// stream depends on — two regions with their own seeded policies, and a
/// phase list whose environment partition is hot / cold / hot — and its
/// siblings differ only in evaluation-time inputs: the phase
/// temperatures, vdd and the aging model.
std::vector<ScenarioSpec> interleaved_grid(unsigned fingerprints,
                                           unsigned siblings,
                                           std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<ScenarioSpec> groups;
  for (unsigned g = 0; g < fingerprints; ++g) {
    ScenarioSpec spec;
    spec.hardware = HardwareKind::kTpuNpu;
    spec.npu.array_dim = 16;
    spec.npu.fifo_tiles = 2;
    const double split = (rng() % 2 == 0) ? 0.25 : 0.5;
    spec.regions = {
        ScenarioRegionSpec{"hot", split, random_policy(rng)},
        ScenarioRegionSpec{"cold", 1.0 - split, random_policy(rng)}};
    for (int phase = 0; phase < 3; ++phase)
      spec.phases.push_back(ScenarioPhaseSpec{
          "custom_mnist", 1 + static_cast<unsigned>(rng() % 2), {}});
    groups.push_back(std::move(spec));
  }
  const char* const models[] = {"calibrated-nbti", "arrhenius-nbti",
                                "pbti-hci"};
  std::vector<ScenarioSpec> specs;
  for (unsigned s = 0; s < siblings; ++s)
    for (unsigned g = 0; g < fingerprints; ++g) {
      ScenarioSpec spec = groups[g];
      spec.name = "reuse-" + std::to_string(specs.size());
      // Hot phases differ from the cold one for every sibling, so the
      // segment partition (part of the fingerprint) never changes.
      const double hot = 60.0 + static_cast<double>(rng() % 40);
      const double cold = 20.0 + static_cast<double>(rng() % 20);
      spec.phases[0].environment.temperature_c = hot;
      spec.phases[1].environment.temperature_c = cold;
      spec.phases[2].environment.temperature_c = hot + 5.0;
      spec.phases[1].environment.vdd = (rng() % 2 == 0) ? 0.95 : 1.0;
      spec.aging_model = models[rng() % 3];
      specs.push_back(std::move(spec));
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

std::string summary_of(const ScenarioSuite& suite,
                       const std::vector<SuiteOutcome>& outcomes) {
  return suite_summary_json(make_suite_records(outcomes),
                            timing_free_info(suite));
}

/// The reuse-off oracle: every point simulates through plain
/// run_scenario(spec), with no scheduler and no pool.
std::vector<SuiteOutcome> per_point_outcomes(const ScenarioSuite& suite) {
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
  return outcomes;
}

std::size_t distinct_fingerprints(const std::vector<ScenarioSpec>& specs) {
  std::set<std::string> fingerprints;
  for (const ScenarioSpec& spec : specs)
    fingerprints.insert(simulation_fingerprint(spec));
  return fingerprints.size();
}

// ---- the differential oracle -------------------------------------------------

TEST(SweepReuse, DefaultRunMatchesPerPointRunsAndSimulatesOncePerFingerprint) {
  for (const std::uint64_t seed : {0x5eedULL, 0xd00dULL}) {
    const std::vector<ScenarioSpec> specs = interleaved_grid(4, 3, seed);
    ASSERT_EQ(distinct_fingerprints(specs), 4u) << "seed " << seed;
    const ScenarioSuite suite = suite_of(specs);
    const std::string expected = summary_of(suite, per_point_outcomes(suite));
    for (const unsigned jobs : {1u, 2u, 4u}) {
      SuiteRunOptions options;
      options.jobs = jobs;
      options.threads_per_scenario = 1;
      SweepPoolStats pools;
      const std::vector<SuiteOutcome> outcomes = suite.run(options, &pools);
      for (const SuiteOutcome& outcome : outcomes)
        ASSERT_TRUE(outcome.ok) << outcome.name << ": " << outcome.error;
      EXPECT_EQ(summary_of(suite, outcomes), expected)
          << "seed " << seed << ", jobs " << jobs;
      EXPECT_EQ(pools.states.builds, 4u) << "seed " << seed << " jobs " << jobs;
      EXPECT_EQ(pools.states.reuses, 8u) << "seed " << seed << " jobs " << jobs;
      EXPECT_EQ(pools.streams.builds, 1u) << "one network, one memory";
      EXPECT_EQ(pools.states.resident, 0u);
      EXPECT_EQ(pools.states.leased_keys, 0u);
    }
  }
}

// ---- resident duty states ----------------------------------------------------

TEST(SweepReuse, PeakResidentStatesFollowJobsNotFingerprints) {
  // Siblings of a fingerprint go to the queue front together when their
  // leader finishes, so a state is released before the next leader
  // starts: one resident state at a time at jobs 1, and at most `jobs`
  // otherwise — for 4 fingerprints as for 16.
  for (const unsigned fingerprints : {4u, 16u}) {
    const ScenarioSuite suite =
        suite_of(interleaved_grid(fingerprints, 3, 0xfeed + fingerprints));
    for (const unsigned jobs : {1u, 2u, 4u}) {
      SuiteRunOptions options;
      options.jobs = jobs;
      options.threads_per_scenario = 1;
      SweepPoolStats pools;
      for (const SuiteOutcome& outcome : suite.run(options, &pools))
        ASSERT_TRUE(outcome.ok) << outcome.name << ": " << outcome.error;
      EXPECT_EQ(pools.states.builds, fingerprints);
      if (jobs == 1) {
        EXPECT_EQ(pools.states.peak_resident, 1u)
            << fingerprints << " fingerprints";
      }
      EXPECT_GE(pools.states.peak_resident, 1u);
      EXPECT_LE(pools.states.peak_resident, jobs)
          << fingerprints << " fingerprints, jobs " << jobs;
    }
  }
}

// ---- failing and abandoned leaders -------------------------------------------

TEST(SweepReuse, FailingLeaderPromotesTheNextSiblingAndSimulatesOnce) {
  const std::vector<ScenarioSpec> specs = interleaved_grid(2, 4, 0xbad);
  const ScenarioSuite suite = suite_of(specs);
  const std::vector<SuiteOutcome> oracle = per_point_outcomes(suite);
  for (const bool recovers : {false, true}) {
    // Point 0 leads group 0. It fails every attempt, or only its first
    // (the retry then succeeds and stays the leader).
    SuiteRunOptions options;
    options.jobs = 2;
    options.threads_per_scenario = 1;
    options.retries = 1;
    options.fault_hook = [recovers](const SuiteFaultContext& context) {
      if (context.index == 0 && (!recovers || context.attempt == 1))
        throw std::runtime_error("injected leader failure");
    };
    SweepPoolStats pools;
    std::vector<SuiteOutcome> outcomes = suite.run(options, &pools);
    EXPECT_EQ(outcomes[0].ok, recovers) << outcomes[0].error;
    EXPECT_EQ(outcomes[0].attempts, 2u);
    for (std::size_t i = 1; i < outcomes.size(); ++i)
      EXPECT_TRUE(outcomes[i].ok) << outcomes[i].name << ": "
                                  << outcomes[i].error;
    EXPECT_EQ(pools.states.builds, 2u)
        << "one successful simulation per group, recovers " << recovers;
    EXPECT_EQ(pools.states.reuses, specs.size() - 2 - (recovers ? 0 : 1));
    // Every point that succeeded matches the oracle.
    for (std::size_t i = recovers ? 0 : 1; i < outcomes.size(); ++i) {
      outcomes[i].attempts = 1;
      EXPECT_EQ(suite_record_json(make_suite_record(outcomes[i]), false),
                suite_record_json(make_suite_record(oracle[i]), false))
          << "point " << i << ", recovers " << recovers;
    }
  }
}

/// Flips `dropped` when its owner is destroyed. A fault hook that owns one
/// (through a shared_ptr) signals when its last copy is gone. The
/// abandoned attempt's detached thread holds the last copy and drops it
/// only after its whole run — simulation, publication and evaluation — so
/// waiting for the signal orders that run before the test ends (the
/// thread is never joined, so nothing else does).
struct DropSignal {
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    bool dropped = false;
  };
  explicit DropSignal(std::shared_ptr<State> state)
      : state(std::move(state)) {}
  DropSignal(const DropSignal&) = delete;
  DropSignal& operator=(const DropSignal&) = delete;
  ~DropSignal() {
    const std::lock_guard<std::mutex> lock(state->mutex);
    state->dropped = true;
    state->cv.notify_all();
  }
  static bool wait(State& state) {
    std::unique_lock<std::mutex> lock(state.mutex);
    return state.cv.wait_for(lock, std::chrono::seconds(60),
                             [&state] { return state.dropped; });
  }
  std::shared_ptr<State> state;
};

/// Options whose point 0 stalls 3 s in its first attempt, past a 1 s soft
/// deadline, so it is recorded as timed out long before the attempt wakes.
SweepScheduler::Options stalling_options(
    std::atomic<bool>& woke, const std::shared_ptr<DropSignal::State>& state) {
  SweepScheduler::Options options;
  options.jobs = 2;
  options.threads_per_scenario = 1;
  options.soft_deadline_seconds = 1.0;
  options.fault_hook = [&woke, signal = std::make_shared<DropSignal>(state)](
                           const SuiteFaultContext& context) {
    if (context.index != 0 || context.attempt != 1) return;
    std::this_thread::sleep_for(std::chrono::seconds(3));
    woke = true;
  };
  return options;
}

TEST(SweepReuse, AbandonedLeaderPublishesAfterItsPointIsRecorded) {
  // Point 0 leads its group; its first attempt is abandoned at the
  // deadline. The next sibling is promoted and simulates; when the stalled
  // attempt wakes it simulates too and publishes into the pool, which its
  // run options keep alive.
  const std::vector<ScenarioSpec> specs = interleaved_grid(1, 3, 0x51ee9);
  const ScenarioSuite suite = suite_of(specs);
  const std::vector<SuiteOutcome> oracle = per_point_outcomes(suite);
  std::atomic<bool> woke{false};
  auto finished = std::make_shared<DropSignal::State>();
  {
    SweepScheduler scheduler(stalling_options(woke, finished));
    const std::vector<std::size_t> indices = {0, 1, 2};
    const std::vector<SweepScheduler::Handle> handles = scheduler.submit_batch(
        std::vector<SuiteEntry>(suite.entries()), indices);
    const SuiteOutcome& abandoned = handles[0].outcome();
    EXPECT_TRUE(abandoned.timed_out);
    EXPECT_FALSE(woke.load()) << "recorded before the attempt could publish";
    scheduler.wait_all();
    for (std::size_t i = 1; i < handles.size(); ++i) {
      ASSERT_TRUE(handles[i].outcome().ok) << handles[i].outcome().error;
      EXPECT_EQ(suite_record_json(make_suite_record(handles[i].outcome()),
                                  false),
                suite_record_json(make_suite_record(oracle[i]), false));
    }
    // The stalled attempt wakes after the sweep and simulates into the
    // pool: a second build, not cached because no point leases its
    // fingerprint any more.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (scheduler.sim_pool_stats().builds < 2 &&
           std::chrono::steady_clock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const LeasePoolStats stats = scheduler.sim_pool_stats();
    EXPECT_TRUE(woke.load());
    EXPECT_EQ(stats.builds, 2u);
    EXPECT_EQ(stats.resident, 0u);
    EXPECT_EQ(stats.leased_keys, 0u);
  }
  EXPECT_TRUE(DropSignal::wait(*finished));

  // Same shape, but the scheduler is gone before the attempt wakes: the
  // detached attempt runs to the end against the pools it shares.
  woke = false;
  finished = std::make_shared<DropSignal::State>();
  {
    SweepScheduler scheduler(stalling_options(woke, finished));
    EXPECT_TRUE(scheduler.submit(suite.entries()[0], 0).outcome().timed_out);
  }
  EXPECT_FALSE(woke.load());
  EXPECT_TRUE(DropSignal::wait(*finished));
  EXPECT_TRUE(woke.load());
}

}  // namespace
}  // namespace dnnlife::core
