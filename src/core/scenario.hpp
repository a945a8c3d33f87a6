// Declarative scenario layer: one description drives a whole experiment.
//
// A ScenarioSpec names everything the lower layers need — the network
// phases of the device lifetime, the representation format, the hardware
// model, the region → policy assignments and the run parameters — so a
// production sweep is a list of specs (or JSON files) instead of bespoke
// driver code wiring networks, codecs, streams and simulators by hand.
//
// Layering: scenario → workbench/workload → policy engine → simulators.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "aging/lifetime.hpp"
#include "aging/model_registry.hpp"
#include "aging/snm_histogram.hpp"
#include "core/experiment.hpp"
#include "core/region_policy.hpp"

namespace dnnlife::core {

/// One lifetime phase: a network run for a number of inferences on the
/// scenario's hardware, in an operating environment. Zero inferences
/// describe a provisioned-but-dormant model (the phase is skipped).
struct ScenarioPhaseSpec {
  std::string network = "custom_mnist";
  unsigned inferences = 100;
  /// Temperature / vdd / activity during the phase; default = nominal.
  /// Distinct environments keep their own duty-cycle accumulators and the
  /// aging layer integrates degradation across the resulting timeline.
  aging::EnvironmentSpec environment;
};

/// One memory region and its policy. `row_fraction`s of all regions must
/// sum to 1; row counts are rounded with the last region absorbing the
/// remainder (see sim::MemoryRegionMap::from_fractions).
struct ScenarioRegionSpec {
  std::string name = "memory";
  double row_fraction = 1.0;
  PolicyConfig policy;
};

/// Upper bound of a scenario's "threads" budget, in documents and on the
/// runners' command lines.
inline constexpr unsigned kMaxScenarioThreads = 1u << 10;

struct ScenarioSpec {
  std::string name = "scenario";
  quant::WeightFormat format = quant::WeightFormat::kInt8Symmetric;
  HardwareKind hardware = HardwareKind::kBaseline;
  sim::BaselineAcceleratorConfig baseline;
  sim::TpuNpuConfig npu;
  /// Lifetime phases, in order. At least one is required to run.
  std::vector<ScenarioPhaseSpec> phases;
  /// Region → policy assignments; empty means one whole-memory region
  /// with the default (no-mitigation) policy.
  std::vector<ScenarioRegionSpec> regions;
  /// Concurrency budget, at most kMaxScenarioThreads.
  unsigned threads = 1;
  bool use_reference_simulator = false;
  aging::AgingReportOptions report;
  aging::SnmParams snm;
  /// Device-aging model, by AgingModelRegistry name. The default engine
  /// is temperature-agnostic (pinned to the paper's calibration); pick
  /// "arrhenius-nbti" to make per-phase temperatures matter.
  std::string aging_model = aging::kDefaultAgingModel;
  /// Optional per-model knobs (the scenario's "aging_model_params" JSON
  /// object, e.g. activation_energy_ev / recovery_floor), routed through
  /// the model's registry factory. Unknown keys are rejected strictly.
  aging::AgingModelParams aging_model_params;
  /// Failure threshold of the lifetime solve.
  aging::LifetimeParams lifetime;
};

/// Largest weight memory a scenario may describe, in 6T cells (bits):
/// 64 Mi cells, i.e. 8 MiB of SRAM — 8x the largest geometry any shipped
/// bench or example uses (a 256 x 256 NPU with a 4-tile FIFO of float32
/// weights, 8 Mi cells). Every environment segment keeps two 32-bit
/// counters per cell, so the cap also bounds a simulation's duty state
/// at 512 MiB per segment. parse_scenario enforces it on both hardware
/// configs before anything is allocated.
inline constexpr std::uint64_t kMaxWeightMemoryCells = std::uint64_t{1} << 26;

/// Parse a scenario from its JSON description. Strict: unknown members,
/// wrong types and out-of-range values throw std::invalid_argument with
/// an explanatory message. See README.md ("Declarative scenarios") for
/// the schema.
ScenarioSpec parse_scenario(const std::string& json_text);

struct ScenarioResult {
  sim::MemoryGeometry geometry;          ///< resolved weight-memory shape
  /// "network x inferences" per phase, with the environment appended when
  /// it deviates from nominal.
  std::vector<std::string> phase_labels;
  aging::AgingReport report;             ///< includes the per-region breakdown
  /// Years-to-failure over the phase-conditioned environment timeline
  /// (per-region breakdown included); absent when every phase is dormant.
  std::optional<aging::LifetimeReport> lifetime;
};

/// Run the scenario end-to-end: build the per-network streams (hardware
/// config shared, so all phases target the same physical memory), resolve
/// the region table, simulate the phased workload and report aging per
/// region.
ScenarioResult run_scenario(const ScenarioSpec& spec);

class SimCache;  // core/sim_cache.hpp

/// The canonical simulation fingerprint of a spec: a stable 32-hex-char
/// content hash over exactly the fields that influence the simulated
/// write stream and duty accumulation — every phase's (network,
/// inferences) in order, the environment-coalescing partition structure
/// (which consecutive active phases share a duty segment; the environment
/// *values* are evaluation-time inputs and deliberately excluded), the
/// quantisation format, the active hardware config, and the resolved
/// region → policy table (fractions, policy kinds/engines and their
/// stream-affecting knobs, seeds). Evaluation-only fields — name,
/// threads, environment values, report/snm options, aging model
/// selection/params, lifetime thresholds — never perturb the hash, so
/// sweep points differing only along those axes share one fingerprint
/// and can share one simulation (see core/sim_cache.hpp).
///
/// Adding a ScenarioSpec field requires classifying it here (or in the
/// documented exclusion list); the field-inventory test pins the struct
/// sizes so an unclassified addition fails the build's test suite.
std::string simulation_fingerprint(const ScenarioSpec& spec);

/// The stream keys of a spec: one per distinct phase network, in order of
/// first appearance. A key is the simulation fingerprint's stream-config
/// block (format, hardware kind, active hardware config) plus the active
/// config's cache_encoded_rows and the network name — everything the
/// built write stream depends on (see core/stream_pool.hpp). Plain text,
/// not a hash, so equal keys mean equal streams exactly.
std::vector<std::string> stream_keys(const ScenarioSpec& spec);

class SimStore;    // core/sim_store.hpp
struct SimulationState;
template <class Value>
class LeasePool;  // core/lease_pool.hpp
struct StreamPipeline;

/// Where run_scenario may find or leave duty state and streams. Lookups go
/// sim_cache → sim_store → sim_pool → simulate; a fresh simulation is then
/// published to the store, inserted into the cache, and inserted into the
/// pool, in that order. The explicit tiers come first so that their hit
/// and miss counters mean exactly "served" and "simulated". Results are
/// byte-identical with any combination of them, all null included.
struct RunScenarioOptions {
  /// Shared duty-state LRU (core/sim_cache.hpp). Non-null: look up the
  /// spec's fingerprint first and skip simulation on a hit, inserting on
  /// a miss.
  std::shared_ptr<SimCache> sim_cache;
  /// Disk tier (see core/sim_store.hpp). Non-null: a memory miss probes
  /// the store before simulating, and fresh simulations are durably
  /// published to it before the cache insert — so re-runs, resumed
  /// crashes and sibling shards sharing the directory reuse committed
  /// duty state across processes.
  std::shared_ptr<SimStore> sim_store;
  /// The sweep's duty-state pool (SweepScheduler owns it): a state is
  /// found here only while some point leases its fingerprint. Shared, so
  /// an abandoned soft-deadline attempt can still publish into it after
  /// the scheduler is gone.
  std::shared_ptr<LeasePool<SimulationState>> sim_pool;
  /// Stream pool shared across a sweep's points (core/stream_pool.hpp):
  /// points with equal stream keys simulate against one built stream.
  /// Null: a pool local to this call, so each distinct network is still
  /// built once per scenario.
  std::shared_ptr<LeasePool<StreamPipeline>> stream_pool;
};

/// Reuse-aware run_scenario. With every member null this is exactly the
/// plain overload: the point simulates its own stream.
ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const RunScenarioOptions& options);

}  // namespace dnnlife::core
