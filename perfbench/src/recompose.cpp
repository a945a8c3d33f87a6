#include "recompose.hpp"

#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "aging/lifetime.hpp"
#include "aging/model_registry.hpp"
#include "core/experiment.hpp"
#include "core/region_policy.hpp"
#include "core/sim_cache.hpp"
#include "core/sim_store.hpp"
#include "core/workload.hpp"
#include "dnn/model_zoo.hpp"
#include "quant/word_codec.hpp"
#include "sim/accelerator.hpp"
#include "sim/region_map.hpp"
#include "sim/tpu_npu.hpp"

namespace perfbench {

namespace core = dnnlife::core;
namespace aging = dnnlife::aging;
namespace sim = dnnlife::sim;

std::mutex& TracedTiers::flight(const std::string& fingerprint) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<std::mutex>& slot = flights_[fingerprint];
  if (!slot) slot = std::make_unique<std::mutex>();
  return *slot;
}

PointCounts& PointCounts::operator+=(const PointCounts& other) {
  stream_builds += other.stream_builds;
  rows_packed += other.rows_packed;
  sim_runs += other.sim_runs;
  row_writes += other.row_writes;
  report_cells += other.report_cells;
  store_bytes_read += other.store_bytes_read;
  return *this;
}

namespace {

using StatePtr = core::SimCache::StatePtr;

std::vector<core::ScenarioRegionSpec> resolved_regions(
    const core::ScenarioSpec& spec) {
  if (!spec.regions.empty()) return spec.regions;
  return {core::ScenarioRegionSpec{}};
}

/// Consecutive active phases with equal environments share one duty
/// segment (simulate_workload_phased's rule).
std::vector<aging::EnvironmentSpec> segment_environments(
    const core::ScenarioSpec& spec) {
  std::vector<aging::EnvironmentSpec> environments;
  for (const core::ScenarioPhaseSpec& phase : spec.phases) {
    if (phase.inferences == 0) continue;
    if (environments.empty() || !(environments.back() == phase.environment))
      environments.push_back(phase.environment);
  }
  return environments;
}

/// Layers `stream` and `sim`: build one pipeline per distinct network,
/// resolve the region table and simulate the phased workload.
StatePtr simulate(const core::ScenarioSpec& spec, Trace& trace,
                  std::int64_t point, std::int32_t root,
                  PointCounts& counts) {
  struct NetworkPipeline {
    std::unique_ptr<dnnlife::dnn::Network> network;
    std::unique_ptr<dnnlife::dnn::WeightStreamer> streamer;
    std::unique_ptr<dnnlife::quant::WeightWordCodec> codec;
    std::unique_ptr<sim::WriteStream> stream;
  };
  std::map<std::string, NetworkPipeline> pipelines;
  unsigned weight_bits = 0;
  for (const core::ScenarioPhaseSpec& phase : spec.phases) {
    if (pipelines.contains(phase.network)) continue;
    const Scope stream(trace, "stream", point, root);
    NetworkPipeline pipeline;
    pipeline.network = std::make_unique<dnnlife::dnn::Network>(
        dnnlife::dnn::make_network(phase.network));
    {
      const Scope quantise(trace, "stream.quantise", point, stream.id());
      pipeline.streamer =
          std::make_unique<dnnlife::dnn::WeightStreamer>(*pipeline.network);
      pipeline.codec = std::make_unique<dnnlife::quant::WeightWordCodec>(
          *pipeline.streamer, spec.format);
    }
    switch (spec.hardware) {
      case core::HardwareKind::kBaseline:
        pipeline.stream = std::make_unique<sim::BaselineWeightStream>(
            *pipeline.codec, spec.baseline);
        break;
      case core::HardwareKind::kTpuNpu:
        pipeline.stream = std::make_unique<sim::NpuWeightStream>(
            *pipeline.codec, spec.npu);
        break;
    }
    {
      // The first visit packs every row and fills the payload cache the
      // simulation then replays.
      const Scope pack(trace, "stream.pack", point, stream.id());
      std::uint64_t rows = 0;
      pipeline.stream->for_each_write([&rows](const sim::RowWriteEvent&) {
        ++rows;
      });
      counts.rows_packed += rows;
    }
    ++counts.stream_builds;
    weight_bits = pipeline.codec->bits();
    pipelines.emplace(phase.network, std::move(pipeline));
  }

  const Scope simulation(trace, "sim", point, root);
  const sim::MemoryGeometry geometry =
      pipelines.at(spec.phases.front().network).stream->geometry();
  for (const auto& [name, pipeline] : pipelines) {
    const sim::MemoryGeometry other = pipeline.stream->geometry();
    if (other.rows != geometry.rows || other.row_bits != geometry.row_bits)
      throw std::invalid_argument(
          "scenario phases disagree on the memory geometry (network '" +
          name + "')");
  }
  std::vector<std::pair<std::string, double>> fractions;
  std::vector<core::PolicyConfig> policies;
  for (const core::ScenarioRegionSpec& region : resolved_regions(spec)) {
    fractions.emplace_back(region.name, region.row_fraction);
    policies.push_back(region.policy);
  }
  for (core::PolicyConfig& policy : policies) policy.weight_bits = weight_bits;
  const core::RegionPolicyTable table(
      sim::MemoryRegionMap::from_fractions(geometry, fractions),
      std::move(policies));

  std::vector<core::WorkloadPhase> phases;
  phases.reserve(spec.phases.size());
  for (const core::ScenarioPhaseSpec& phase : spec.phases) {
    const sim::WriteStream* stream = pipelines.at(phase.network).stream.get();
    phases.emplace_back(stream, phase.inferences, phase.environment);
    counts.row_writes += std::uint64_t{phase.inferences} *
                         stream->writes_per_inference();
  }
  core::WorkloadOptions options;
  options.threads = spec.threads;
  options.use_reference_simulator = spec.use_reference_simulator;
  core::PhasedWorkloadResult phased =
      core::simulate_workload_phased(phases, table, options);
  auto state = std::make_shared<core::SimulationState>();
  state->geometry = geometry;
  state->regions = phased.combined.regions();
  state->segment_trackers.reserve(phased.segments.size());
  for (aging::EnvironmentSegment& segment : phased.segments)
    state->segment_trackers.push_back(std::move(segment.tracker));
  ++counts.sim_runs;
  return state;
}

/// Layer `report`: attach the spec's environment timeline to the duty
/// state and run the aging and lifetime pipelines.
core::ScenarioResult evaluate(const core::ScenarioSpec& spec,
                              const core::SimulationState& state, Trace& trace,
                              std::int64_t point, std::int32_t root,
                              PointCounts& counts) {
  std::shared_ptr<const aging::DeviceAgingModel> model;
  core::ScenarioResult result{state.geometry, {},
                              aging::AgingReport{{0.0, 1.0, 1}, {}, {}, 0, 0,
                                                 0.0, {}},
                              std::nullopt};
  {
    const Scope span(trace, "report.model", point, root);
    for (const core::ScenarioPhaseSpec& phase : spec.phases)
      aging::validate_environment(phase.environment);
    result.phase_labels.reserve(spec.phases.size());
    for (const core::ScenarioPhaseSpec& phase : spec.phases) {
      std::string label =
          phase.network + " x " + std::to_string(phase.inferences);
      if (!aging::is_nominal(phase.environment)) {
        std::ostringstream env;
        env.precision(3);
        env << " @ " << phase.environment.temperature_c << "C";
        if (phase.environment.vdd != aging::kNominalVdd)
          env << ", " << phase.environment.vdd << " vdd";
        if (phase.environment.activity_scale != 1.0)
          env << ", " << phase.environment.activity_scale << " activity";
        label += env.str();
      }
      result.phase_labels.push_back(std::move(label));
    }
    model = aging::make_aging_model(spec.aging_model, spec.snm,
                                    spec.aging_model_params);
  }
  aging::AgingReportOptions report = spec.report;
  report.threads = spec.threads;
  if (state.segment_trackers.empty()) {
    const Scope span(trace, "report.aging", point, root);
    aging::DutyCycleTracker combined(state.geometry.cells());
    combined.set_regions(state.regions);
    result.report = make_aging_report(combined, *model, report);
    return result;
  }
  const std::vector<aging::EnvironmentSpec> environments =
      segment_environments(spec);
  if (environments.size() != state.segment_trackers.size())
    throw std::logic_error(
        "cached simulation state disagrees with the spec's segment "
        "partition");
  std::vector<aging::EnvironmentSegmentView> views;
  views.reserve(environments.size());
  for (std::size_t i = 0; i < environments.size(); ++i)
    views.push_back(aging::EnvironmentSegmentView{&state.segment_trackers[i],
                                                  environments[i]});
  {
    const Scope span(trace, "report.aging", point, root);
    result.report = make_aging_report(
        std::span<const aging::EnvironmentSegmentView>(views), *model, report);
  }
  counts.report_cells +=
      result.report.total_cells - result.report.unused_cells;
  {
    const Scope span(trace, "report.lifetime", point, root);
    const aging::LifetimeModel lifetime(model, spec.lifetime);
    result.lifetime = make_lifetime_report(
        std::span<const aging::EnvironmentSegmentView>(views), lifetime,
        spec.threads);
  }
  return result;
}

/// Layer `reuse` around `stream`/`sim`: the duty state from the memory
/// cache, else the disk store, else a fresh simulation (published to the
/// store, then inserted into the cache) — run_scenario's tier order.
StatePtr duty_state(const core::ScenarioSpec& spec,
                    const std::string& fingerprint, TracedTiers& tiers,
                    Trace& trace, std::int64_t point, std::int32_t root,
                    PointCounts& counts) {
  if (!tiers.enabled()) return simulate(spec, trace, point, root, counts);
  // Like SweepScheduler's admission: a committed fingerprint runs freely,
  // an uncommitted one waits for (or becomes) its group's leader.
  std::unique_lock<std::mutex> flight;
  {
    const Scope span(trace, "reuse.single_flight", point, root);
    const bool committed =
        (tiers.cache && tiers.cache->contains(fingerprint)) ||
        (tiers.store && tiers.store->contains(fingerprint));
    if (!committed)
      flight = std::unique_lock<std::mutex>(tiers.flight(fingerprint));
  }
  StatePtr state;
  if (tiers.cache) {
    const Scope span(trace, "cache.lookup", point, root);
    state = tiers.cache->lookup(fingerprint);
  }
  if (!state && tiers.store) {
    const Scope span(trace, "store.lookup", point, root);
    state = tiers.store->lookup(fingerprint);
    if (state)
      counts.store_bytes_read +=
          std::filesystem::file_size(tiers.store->entry_path(fingerprint));
  }
  if (!state) {
    state = simulate(spec, trace, point, root, counts);
    if (tiers.store) {
      const Scope span(trace, "store.publish", point, root);
      tiers.store->publish(fingerprint, *state);
    }
  }
  if (tiers.cache) {
    const Scope span(trace, "cache.insert", point, root);
    state = tiers.cache->insert(fingerprint, std::move(state));
  }
  return state;
}

}  // namespace

core::SuiteRecord run_point_traced(const core::SuiteEntry& entry,
                                   std::size_t index, unsigned threads,
                                   TracedTiers& tiers, Trace& trace,
                                   PointCounts& counts) {
  const auto point = static_cast<std::int64_t>(index);
  const Clock::time_point start = Clock::now();
  const Scope root(trace, "point", point);
  core::SuiteOutcome outcome;
  outcome.index = index;
  outcome.path = entry.path;
  outcome.name = entry.spec.name;
  {
    const Scope span(trace, "fingerprint", point, root.id());
    outcome.fingerprint = core::simulation_fingerprint(entry.spec);
  }
  core::ScenarioSpec spec = entry.spec;
  if (threads != 0) spec.threads = threads;
  try {
    if (spec.phases.empty())
      throw std::invalid_argument("scenario needs at least one phase");
    const StatePtr state = duty_state(spec, outcome.fingerprint, tiers, trace,
                                      point, root.id(), counts);
    outcome.result = evaluate(spec, *state, trace, point, root.id(), counts);
    outcome.ok = true;
  } catch (const std::exception& error) {
    outcome.error = error.what();
  }
  outcome.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  const Scope span(trace, "emit.record", point, root.id());
  return core::make_suite_record(outcome);
}

}  // namespace perfbench
