#include "core/scenario.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/policy_engine.hpp"
#include "core/sim_cache.hpp"
#include "core/sim_store.hpp"
#include "core/stream_pool.hpp"
#include "core/workload.hpp"
#include "dnn/model_zoo.hpp"
#include "quant/word_codec.hpp"
#include "sim/accelerator.hpp"
#include "sim/tpu_npu.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace dnnlife::core {

namespace {

using util::JsonValue;

/// Reject unknown members so typos fail loudly instead of silently running
/// the default scenario.
void check_members(const JsonValue& object, const char* where,
                   std::initializer_list<std::string_view> known) {
  for (const auto& [name, _] : object.members()) {
    bool found = false;
    for (const std::string_view candidate : known)
      if (name == candidate) {
        found = true;
        break;
      }
    if (!found)
      throw std::invalid_argument("unknown member '" + name + "' in " + where);
  }
}

unsigned parse_bounded_uint(const JsonValue& value, const char* what,
                            std::uint64_t max) {
  const std::uint64_t parsed = value.as_uint();
  if (parsed > max)
    throw std::invalid_argument(std::string(what) + " " +
                                std::to_string(parsed) + " exceeds " +
                                std::to_string(max));
  return static_cast<unsigned>(parsed);
}

PolicyConfig parse_policy(const JsonValue& object) {
  // Deliberately no "weight_bits" member: a scenario's rotation
  // granularity is always the codec's weight word width (run_scenario
  // sets it), so accepting an override here would be silently ignored.
  check_members(object, "policy",
                {"kind", "reset_each_inference", "trbg_bias",
                 "bias_balancing", "balancer_bits", "seed"});
  PolicyConfig policy;
  const std::string& kind = object.at("kind").as_string();
  try {
    policy.kind = policy_kind_from_string(kind);
  } catch (const std::invalid_argument&) {
    // Not a built-in: reachable as a custom engine if one is registered.
    if (!PolicyRegistry::instance().contains(kind)) throw;
    policy.engine = kind;
  }
  if (const JsonValue* v = object.find("reset_each_inference"))
    policy.reset_each_inference = v->as_bool();
  if (const JsonValue* v = object.find("trbg_bias"))
    policy.trbg_bias = v->as_number();
  if (const JsonValue* v = object.find("bias_balancing"))
    policy.bias_balancing = v->as_bool();
  if (const JsonValue* v = object.find("balancer_bits"))
    policy.balancer_bits = parse_bounded_uint(*v, "balancer_bits", 31);
  if (const JsonValue* v = object.find("seed")) policy.seed = v->as_uint();
  validate_policy_config(policy);
  return policy;
}

aging::EnvironmentSpec parse_environment(const JsonValue& object) {
  check_members(object, "environment",
                {"temperature_c", "vdd", "activity_scale"});
  aging::EnvironmentSpec env;
  if (const JsonValue* v = object.find("temperature_c"))
    env.temperature_c = v->as_number_in(-273.0, 1000.0, "temperature_c");
  if (const JsonValue* v = object.find("vdd"))
    env.vdd = v->as_number_in(0.05, 10.0, "vdd");
  if (const JsonValue* v = object.find("activity_scale"))
    env.activity_scale = v->as_number_in(0.0, 1.0, "activity_scale");
  aging::validate_environment(env);
  return env;
}

ScenarioPhaseSpec parse_phase(const JsonValue& object) {
  check_members(object, "phase", {"network", "inferences", "environment"});
  ScenarioPhaseSpec phase;
  phase.network = object.at("network").as_string();
  if (const JsonValue* v = object.find("inferences"))
    phase.inferences = parse_bounded_uint(*v, "inferences", 1u << 30);
  if (const JsonValue* v = object.find("environment"))
    phase.environment = parse_environment(*v);
  return phase;
}

ScenarioRegionSpec parse_region(const JsonValue& object) {
  check_members(object, "region", {"name", "rows", "policy"});
  ScenarioRegionSpec region;
  region.name = object.at("name").as_string();
  region.row_fraction = object.at("rows").as_number();
  // Required: a region without an explicit policy would silently run
  // unmitigated — the opposite of what a forgotten member likely meant.
  region.policy = parse_policy(object.at("policy"));
  return region;
}

void parse_baseline(const JsonValue& object,
                    sim::BaselineAcceleratorConfig& config) {
  check_members(object, "baseline",
                {"weight_memory_bytes", "double_buffered",
                 "compute_weighted_residency"});
  if (const JsonValue* v = object.find("weight_memory_bytes"))
    config.weight_memory_bytes = v->as_uint();
  if (const JsonValue* v = object.find("double_buffered"))
    config.double_buffered = v->as_bool();
  if (const JsonValue* v = object.find("compute_weighted_residency"))
    config.compute_weighted_residency = v->as_bool();
}

void parse_npu(const JsonValue& object, sim::TpuNpuConfig& config) {
  check_members(object, "npu", {"array_dim", "fifo_tiles"});
  if (const JsonValue* v = object.find("array_dim"))
    config.array_dim = parse_bounded_uint(*v, "array_dim", 1u << 16);
  if (const JsonValue* v = object.find("fifo_tiles"))
    config.fifo_tiles = parse_bounded_uint(*v, "fifo_tiles", 1u << 16);
}

void parse_report(const JsonValue& object, aging::AgingReportOptions& report) {
  check_members(object, "report", {"years", "optimal_tolerance"});
  if (const JsonValue* v = object.find("years")) report.years = v->as_number();
  if (const JsonValue* v = object.find("optimal_tolerance"))
    report.optimal_tolerance = v->as_number();
}

void parse_lifetime(const JsonValue& object, aging::LifetimeParams& lifetime) {
  check_members(object, "lifetime", {"snm_failure_threshold"});
  if (const JsonValue* v = object.find("snm_failure_threshold"))
    lifetime.snm_failure_threshold =
        v->as_number_in(1e-6, 100.0, "snm_failure_threshold");
}

void parse_snm(const JsonValue& object, aging::SnmParams& snm) {
  check_members(object, "snm",
                {"snm_at_balanced", "snm_at_full_stress", "t_ref_years",
                 "time_exponent"});
  if (const JsonValue* v = object.find("snm_at_balanced"))
    snm.snm_at_balanced = v->as_number();
  if (const JsonValue* v = object.find("snm_at_full_stress"))
    snm.snm_at_full_stress = v->as_number();
  if (const JsonValue* v = object.find("t_ref_years"))
    snm.t_ref_years = v->as_number();
  if (const JsonValue* v = object.find("time_exponent"))
    snm.time_exponent = v->as_number();
}

/// Geometry preflight: the weight memory of both hardware configs must
/// have a row count that fits the 32-bit geometry and at most
/// kMaxWeightMemoryCells cells. Each field is bounded on its own while
/// parsing; this bounds their product, before any stream or tracker is
/// allocated. The dormant config is checked too: it is still part of the
/// document.
void check_memory_size(const ScenarioSpec& spec) {
  const std::uint64_t npu_rows =
      std::uint64_t{spec.npu.fifo_tiles} * spec.npu.array_dim;
  if (npu_rows > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument(
        "npu fifo_tiles x array_dim = " + std::to_string(npu_rows) +
        " rows exceeds the 32-bit row count");
  const std::uint64_t npu_cells =
      npu_rows * spec.npu.array_dim * quant::bits_per_weight(spec.format);
  if (npu_cells > kMaxWeightMemoryCells)
    throw std::invalid_argument(
        "npu weight memory of " + std::to_string(npu_cells) +
        " cells (fifo_tiles x array_dim x array_dim x weight bits) exceeds "
        "the limit of " + std::to_string(kMaxWeightMemoryCells) + " cells");
  if (spec.baseline.weight_memory_bytes > kMaxWeightMemoryCells / 8)
    throw std::invalid_argument(
        "baseline weight_memory_bytes " +
        std::to_string(spec.baseline.weight_memory_bytes) +
        " exceeds the limit of " + std::to_string(kMaxWeightMemoryCells / 8) +
        " bytes");
}

}  // namespace

ScenarioSpec parse_scenario(const std::string& json_text) {
  const JsonValue root = JsonValue::parse(json_text);
  check_members(root, "scenario",
                {"name", "format", "hardware", "baseline", "npu", "phases",
                 "regions", "threads", "use_reference_simulator", "report",
                 "snm", "aging_model", "aging_model_params", "lifetime"});
  ScenarioSpec spec;
  if (const JsonValue* v = root.find("name")) spec.name = v->as_string();
  if (const JsonValue* v = root.find("format"))
    spec.format = quant::weight_format_from_string(v->as_string());
  if (const JsonValue* v = root.find("hardware"))
    spec.hardware = hardware_kind_from_string(v->as_string());
  if (const JsonValue* v = root.find("baseline"))
    parse_baseline(*v, spec.baseline);
  if (const JsonValue* v = root.find("npu")) parse_npu(*v, spec.npu);
  for (const JsonValue& phase : root.at("phases").items())
    spec.phases.push_back(parse_phase(phase));
  if (spec.phases.empty())
    throw std::invalid_argument("scenario needs at least one phase");
  if (const JsonValue* v = root.find("regions"))
    for (const JsonValue& region : v->items())
      spec.regions.push_back(parse_region(region));
  if (const JsonValue* v = root.find("threads"))
    spec.threads = parse_bounded_uint(*v, "threads", 1u << 10);
  if (const JsonValue* v = root.find("use_reference_simulator"))
    spec.use_reference_simulator = v->as_bool();
  if (const JsonValue* v = root.find("report")) parse_report(*v, spec.report);
  if (const JsonValue* v = root.find("snm")) parse_snm(*v, spec.snm);
  if (const JsonValue* v = root.find("aging_model")) {
    spec.aging_model = v->as_string();
    aging::AgingModelRegistry::instance().check(spec.aging_model);
  }
  if (const JsonValue* v = root.find("aging_model_params"))
    for (const auto& [key, value] : v->members())
      spec.aging_model_params.emplace(key, value.as_number());
  if (const JsonValue* v = root.find("lifetime"))
    parse_lifetime(*v, spec.lifetime);
  check_memory_size(spec);
  if (root.find("snm") != nullptr ||
      root.find("aging_model_params") != nullptr) {
    // Surface unknown-knob, out-of-range and bad-anchor errors at parse
    // time, where they read as document errors, not after a whole
    // simulation. The default anchors and knobs are valid, so documents
    // that set neither skip the build (it would cost every sweep point a
    // model at set-up).
    aging::make_aging_model(spec.aging_model, spec.snm,
                            spec.aging_model_params);
  }
  return spec;
}

namespace {

/// The spec's region list with the empty-list default resolved, so the
/// fingerprint and the simulation agree on what actually runs.
std::vector<ScenarioRegionSpec> resolved_regions(const ScenarioSpec& spec) {
  if (!spec.regions.empty()) return spec.regions;
  return {ScenarioRegionSpec{}};
}

/// The environment of every duty segment the phased simulation produces,
/// in order: consecutive active phases with equal environments coalesce
/// (exactly simulate_workload_phased's rule — dormant phases neither
/// start nor split a segment). Empty when every phase is dormant.
std::vector<aging::EnvironmentSpec> segment_environments(
    const ScenarioSpec& spec) {
  std::vector<aging::EnvironmentSpec> environments;
  for (const ScenarioPhaseSpec& phase : spec.phases) {
    if (phase.inferences == 0) continue;
    if (environments.empty() || !(environments.back() == phase.environment))
      environments.push_back(phase.environment);
  }
  return environments;
}

void fingerprint_field(std::string& text, std::string_view tag,
                       std::string_view value) {
  text += tag;
  text += '=';
  text += value;
  text += ';';
}

void fingerprint_field(std::string& text, std::string_view tag,
                       std::uint64_t value) {
  fingerprint_field(text, tag, std::to_string(value));
}

void fingerprint_field(std::string& text, std::string_view tag, bool value) {
  fingerprint_field(text, tag, value ? std::string_view("1")
                                     : std::string_view("0"));
}

/// Doubles enter the fingerprint as their exact bit pattern — no decimal
/// formatting, so the hash is stable across libc implementations.
void fingerprint_field_f64(std::string& text, std::string_view tag,
                           double value) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(value)));
  fingerprint_field(text, tag, std::string_view(hex, 16));
}

std::uint64_t fnv1a64(std::string_view text, std::uint64_t hash) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// The stream-config block shared by the simulation fingerprint and the
/// stream key: the quantisation format, the hardware kind and the fields
/// of the *active* hardware config — the dormant one is dead state.
/// cache_encoded_rows is left out: payload memoisation changes wall time,
/// never the written bits (stream_keys adds it on its own).
void append_stream_config(std::string& text, const ScenarioSpec& spec) {
  fingerprint_field(text, "format", quant::to_string(spec.format));
  fingerprint_field(text, "hardware", to_string(spec.hardware));
  switch (spec.hardware) {
    case HardwareKind::kBaseline:
      fingerprint_field(text, "hw.wmem", spec.baseline.weight_memory_bytes);
      fingerprint_field(text, "hw.amem",
                        spec.baseline.activation_memory_bytes);
      fingerprint_field(text, "hw.pe", std::uint64_t{spec.baseline.pe_count});
      fingerprint_field(text, "hw.mul",
                        std::uint64_t{spec.baseline.multipliers_per_pe});
      fingerprint_field(text, "hw.cwr",
                        spec.baseline.compute_weighted_residency);
      fingerprint_field(text, "hw.dbuf", spec.baseline.double_buffered);
      break;
    case HardwareKind::kTpuNpu:
      fingerprint_field(text, "hw.dim", std::uint64_t{spec.npu.array_dim});
      fingerprint_field(text, "hw.fifo", std::uint64_t{spec.npu.fifo_tiles});
      fingerprint_field(text, "hw.amem", spec.npu.activation_memory_bytes);
      break;
  }
}

}  // namespace

std::vector<std::string> stream_keys(const ScenarioSpec& spec) {
  // The fingerprint's stream-config block plus what it leaves out on
  // purpose: cache_encoded_rows decides whether the pooled stream holds
  // its payloads, so streams that differ in it must not share an entry.
  std::string config;
  append_stream_config(config, spec);
  fingerprint_field(config, "hw.cache",
                    spec.hardware == HardwareKind::kBaseline
                        ? spec.baseline.cache_encoded_rows
                        : spec.npu.cache_encoded_rows);
  std::vector<std::string> keys;
  std::vector<std::string_view> networks;
  for (const ScenarioPhaseSpec& phase : spec.phases) {
    if (std::find(networks.begin(), networks.end(), phase.network) !=
        networks.end())
      continue;
    networks.push_back(phase.network);
    std::string key = config;
    fingerprint_field(key, "net", phase.network);
    keys.push_back(std::move(key));
  }
  return keys;
}

std::string simulation_fingerprint(const ScenarioSpec& spec) {
  // Canonical text over the stream-affecting fields. Every ScenarioSpec
  // member is either serialized here or listed as evaluation-only in the
  // header comment; the field-inventory test pins the struct sizes so an
  // unclassified addition fails loudly.
  std::string text;
  text.reserve(256);
  fingerprint_field(text, "v", std::uint64_t{1});
  append_stream_config(text, spec);
  fingerprint_field(text, "refsim", spec.use_reference_simulator);
  // Phases: network and inference count of every phase in order — dormant
  // phases included, because per-phase policy randomness derives from the
  // *original* phase index (see simulate_workload_phased), so a dormant
  // phase shifts its successors' seeds by occupying an index. The
  // environment-coalescing partition (which active phases share a duty
  // segment) is structural: it decides how many trackers exist and which
  // phases merge. The environment *values* are evaluation-time inputs and
  // stay out — that exclusion is the whole point of the cache.
  fingerprint_field(text, "phases", std::uint64_t{spec.phases.size()});
  int segment = -1;
  const aging::EnvironmentSpec* last_environment = nullptr;
  for (const ScenarioPhaseSpec& phase : spec.phases) {
    fingerprint_field(text, "p.net", phase.network);
    fingerprint_field(text, "p.inf", std::uint64_t{phase.inferences});
    if (phase.inferences == 0) {
      fingerprint_field(text, "p.seg", std::string_view("-"));
      continue;
    }
    if (last_environment == nullptr ||
        !(*last_environment == phase.environment))
      ++segment;
    last_environment = &phase.environment;
    fingerprint_field(text, "p.seg", std::uint64_t(segment));
  }
  // Regions and their policies, with the empty-list default resolved.
  // PolicyConfig::weight_bits is excluded: run_scenario overwrites it
  // with the codec's width, which the format field already pins.
  const std::vector<ScenarioRegionSpec> regions = resolved_regions(spec);
  fingerprint_field(text, "regions", std::uint64_t{regions.size()});
  for (const ScenarioRegionSpec& region : regions) {
    fingerprint_field(text, "r.name", region.name);
    fingerprint_field_f64(text, "r.rows", region.row_fraction);
    fingerprint_field(text, "r.policy",
                      region.policy.engine.empty()
                          ? to_string(region.policy.kind)
                          : region.policy.engine);
    fingerprint_field(text, "r.reset", region.policy.reset_each_inference);
    fingerprint_field_f64(text, "r.trbg", region.policy.trbg_bias);
    fingerprint_field(text, "r.bal", region.policy.bias_balancing);
    fingerprint_field(text, "r.balbits",
                      std::uint64_t{region.policy.balancer_bits});
    fingerprint_field(text, "r.seed", region.policy.seed);
  }
  // Two independently-seeded FNV-1a streams (distinct offset bases) over
  // the same text, each finished with a splitmix64 avalanche: a 128-bit
  // content address, so birthday collisions are out of reach for any
  // realistic sweep size. evaluate_scenario still cross-checks the
  // segment-partition shape against the cached state as a backstop.
  const std::uint64_t lo = util::splitmix64(fnv1a64(text, 0xcbf29ce484222325ULL));
  const std::uint64_t hi = util::splitmix64(fnv1a64(text, 0x6c62272e07bb0142ULL));
  char digest[33];
  std::snprintf(digest, sizeof digest, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(digest, 32);
}

namespace {

/// Build one network's stream pipeline for the spec's format and hardware
/// config. Touches no executor (see StreamPool::acquire).
StreamPool::ValuePtr build_stream_pipeline(const ScenarioSpec& spec,
                                              const std::string& network) {
  auto pipeline = std::make_shared<StreamPipeline>();
  pipeline->network =
      std::make_unique<dnn::Network>(dnn::make_network(network));
  pipeline->streamer = std::make_unique<dnn::WeightStreamer>(*pipeline->network);
  pipeline->codec = std::make_unique<quant::WeightWordCodec>(
      *pipeline->streamer, spec.format);
  switch (spec.hardware) {
    case HardwareKind::kBaseline:
      pipeline->stream = std::make_unique<sim::BaselineWeightStream>(
          *pipeline->codec, spec.baseline);
      break;
    case HardwareKind::kTpuNpu:
      pipeline->stream =
          std::make_unique<sim::NpuWeightStream>(*pipeline->codec, spec.npu);
      break;
  }
  return pipeline;
}

/// Simulate the spec's write stream end-to-end and commit the duty state:
/// take the per-network pipelines from `pool` (hardware config shared, so
/// all phases target the same physical memory), resolve the region →
/// policy table, run the phased simulation and strip the result down to
/// what evaluation needs — geometry, region tags and the per-segment
/// trackers. This is the expensive half of run_scenario and the unit the
/// duty-state tiers share across points.
std::shared_ptr<const SimulationState> simulate_scenario(
    const ScenarioSpec& spec, StreamPool& pool) {
  // One pipeline per distinct network, in first-appearance order (the
  // order of stream_keys); phases referencing the same network share it.
  std::vector<std::string> keys = stream_keys(spec);
  const StreamPool::Lease lease = pool.lease(keys);
  std::map<std::string, StreamPool::ValuePtr> pipelines;
  unsigned weight_bits = 0;
  for (const ScenarioPhaseSpec& phase : spec.phases) {
    if (pipelines.contains(phase.network)) continue;
    StreamPool::ValuePtr pipeline =
        pool.acquire(keys[pipelines.size()], [&spec, &phase] {
          return build_stream_pipeline(spec, phase.network);
        });
    weight_bits = pipeline->codec->bits();
    pipelines.emplace(phase.network, std::move(pipeline));
  }

  const sim::MemoryGeometry geometry =
      pipelines.at(spec.phases.front().network)->stream->geometry();
  for (const auto& [name, pipeline] : pipelines) {
    const sim::MemoryGeometry other = pipeline->stream->geometry();
    DNNLIFE_EXPECTS(other.rows == geometry.rows &&
                        other.row_bits == geometry.row_bits,
                    "scenario phases disagree on the memory geometry "
                    "(network '" + name + "')");
  }

  // Resolve the region → policy table; the barrel shifter rotates at
  // weight-word granularity, so every policy inherits the codec's width.
  std::vector<std::pair<std::string, double>> fractions;
  std::vector<PolicyConfig> policies;
  for (const ScenarioRegionSpec& region : resolved_regions(spec)) {
    fractions.emplace_back(region.name, region.row_fraction);
    policies.push_back(region.policy);
  }
  for (PolicyConfig& policy : policies) policy.weight_bits = weight_bits;
  const RegionPolicyTable table(
      sim::MemoryRegionMap::from_fractions(geometry, fractions),
      std::move(policies));

  std::vector<WorkloadPhase> phases;
  phases.reserve(spec.phases.size());
  for (const ScenarioPhaseSpec& phase : spec.phases)
    phases.push_back(WorkloadPhase{pipelines.at(phase.network)->stream.get(),
                                   phase.inferences, phase.environment});

  WorkloadOptions options;
  options.threads = spec.threads;
  options.use_reference_simulator = spec.use_reference_simulator;
  PhasedWorkloadResult phased = simulate_workload_phased(phases, table, options);
  auto state = std::make_shared<SimulationState>();
  state->geometry = geometry;
  state->regions = phased.combined.regions();
  state->segment_trackers.reserve(phased.segments.size());
  for (aging::EnvironmentSegment& segment : phased.segments)
    state->segment_trackers.push_back(std::move(segment.tracker));
  return state;
}

/// The evaluation half of run_scenario: re-attach the spec's environment
/// timeline to the committed duty state (owned or cache-shared — the
/// aging fold consumes the same tracker bits either way, so the report is
/// byte-identical) and run the aging/lifetime pipeline.
ScenarioResult evaluate_scenario(const ScenarioSpec& spec,
                                 const SimulationState& state) {
  // The simulation validates phase environments; a cache hit skips it, so
  // keep the rejection behaviour identical here (idempotent on a miss).
  for (const ScenarioPhaseSpec& phase : spec.phases)
    aging::validate_environment(phase.environment);
  ScenarioResult result{state.geometry, {},
                        aging::AgingReport{{0.0, 1.0, 1}, {}, {}, 0, 0, 0.0,
                                           {}},
                        std::nullopt};
  result.phase_labels.reserve(spec.phases.size());
  for (const ScenarioPhaseSpec& phase : spec.phases) {
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

  const std::shared_ptr<const aging::DeviceAgingModel> model =
      aging::make_aging_model(spec.aging_model, spec.snm,
                              spec.aging_model_params);
  // The scenario's thread budget covers report evaluation too: the
  // per-cell model solves shard across the same worker count the
  // simulation used (bit-identical for any value).
  aging::AgingReportOptions report = spec.report;
  report.threads = spec.threads;
  if (state.segment_trackers.empty()) {
    // Every phase dormant: an all-unused report, no lifetime to solve.
    // The zero tracker is not cached — it rebuilds from the shape.
    aging::DutyCycleTracker combined(state.geometry.cells());
    combined.set_regions(state.regions);
    result.report = make_aging_report(combined, *model, report);
    return result;
  }
  const std::vector<aging::EnvironmentSpec> environments =
      segment_environments(spec);
  // Backstop against a (astronomically unlikely) fingerprint collision or
  // a stale cache: equal fingerprints guarantee an equal partition shape.
  DNNLIFE_EXPECTS(environments.size() == state.segment_trackers.size(),
                  "cached simulation state disagrees with the spec's "
                  "segment partition");
  std::vector<aging::EnvironmentSegmentView> views;
  views.reserve(environments.size());
  for (std::size_t i = 0; i < environments.size(); ++i)
    views.push_back(aging::EnvironmentSegmentView{&state.segment_trackers[i],
                                                  environments[i]});
  result.report = make_aging_report(
      std::span<const aging::EnvironmentSegmentView>(views), *model, report);
  const aging::LifetimeModel lifetime(model, spec.lifetime);
  result.lifetime = make_lifetime_report(
      std::span<const aging::EnvironmentSegmentView>(views), lifetime,
      spec.threads);
  return result;
}

}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  return run_scenario(spec, RunScenarioOptions{});
}

ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const RunScenarioOptions& options) {
  DNNLIFE_EXPECTS(!spec.phases.empty(), "scenario needs at least one phase");
  // Without a sweep's pool the scenario builds its streams in its own:
  // one code path, each distinct network still built once.
  StreamPool local_pool;
  StreamPool& pool = options.stream_pool ? *options.stream_pool : local_pool;
  if (!options.sim_cache && !options.sim_store && !options.sim_pool)
    return evaluate_scenario(spec, *simulate_scenario(spec, pool));
  const std::string fingerprint = simulation_fingerprint(spec);
  SimCache::StatePtr state =
      options.sim_cache ? options.sim_cache->lookup(fingerprint) : nullptr;
  if (!state && options.sim_store) {
    // Memory miss: probe the disk tier. Invalid entries come back as
    // misses (quarantined inside the store), never as errors.
    state = options.sim_store->lookup(fingerprint);
  }
  if (!state && options.sim_pool) state = options.sim_pool->find(fingerprint);
  const bool simulated = state == nullptr;
  if (simulated) {
    // Every tier missed: simulate, then publish to disk *before* the
    // memory inserts — the SweepScheduler releases parked same-fingerprint
    // siblings only after this call returns, so by then the entry is
    // durable and visible to sibling shards sharing the directory.
    state = simulate_scenario(spec, pool);
    if (options.sim_store) options.sim_store->publish(fingerprint, *state);
  }
  // Write-through: whatever the cache did not serve lands in it. Both
  // inserts are first-wins, so a concurrent racer of the same fingerprint
  // converges on one canonical state (the SweepScheduler's single-flight
  // parking avoids the redundant compute in the first place; this is the
  // correctness backstop).
  if (options.sim_cache)
    state = options.sim_cache->insert(fingerprint, std::move(state));
  if (simulated && options.sim_pool)
    state = options.sim_pool->insert(fingerprint, std::move(state));
  return evaluate_scenario(spec, *state);
}

}  // namespace dnnlife::core
