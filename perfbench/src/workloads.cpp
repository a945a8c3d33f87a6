#include "workloads.hpp"

#include <stdexcept>

namespace perfbench {

namespace {

std::string seeded(std::string text, std::uint64_t seed) {
  const std::string token = "@SEED@";
  for (std::size_t at = text.find(token); at != std::string::npos;
       at = text.find(token, at))
    text.replace(at, token.size(), std::to_string(seed));
  return text;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload workload;
  workload.name = name;
  if (name == "cold-grid") {
    // The default example_sweep_runner path (reuse off) on the CI grid:
    // every point builds its own weight stream, so stream construction
    // (weight synthesis, quantisation, row packing) dominates each point.
    // The seed drives the temperature jitter.
    workload.spec_json = seeded(R"({
      "name": "cold-grid",
      "base": {
        "hardware": "tpu-like-npu",
        "npu": {"array_dim": 32, "fifo_tiles": 2},
        "aging_model": "arrhenius-nbti",
        "phases": [{"network": "custom_mnist", "inferences": 2}]
      },
      "axes": [
        {"parameter": "temperature_c", "values": [25, 55, 85]},
        {"parameter": "vdd", "values": [0.95, 1.0]},
        {"parameter": "activity_scale", "values": [0.0, 1.0]},
        {"parameter": "policy", "values": ["no-mitigation", "inversion"]}
      ],
      "jitter": {"seed": @SEED@, "samples": 5, "temperature_c": 3.0}
    })", seed);
    workload.jobs = 2;
    workload.threads = 1;
    workload.points = 120;
    workload.simulations = 120;
  } else if (name == "timeline-eval") {
    // Report evaluation under a multi-phase, multi-region timeline: every
    // axis is an aging-model knob, so the memory cache serves 99 of the 100
    // points and per-cell lifetime solves over 3 environment segments are
    // nearly all of the work. No environment axes or jitter: they would
    // collapse the 3 segments into one. threads=2 makes each report fan
    // out on the shared executor from inside a job. The seed drives the
    // dnn-life region's policy randomness.
    workload.spec_json = seeded(R"({
      "name": "timeline-eval",
      "base": {
        "hardware": "tpu-like-npu",
        "npu": {"array_dim": 16, "fifo_tiles": 2},
        "aging_model": "pbti-hci",
        "phases": [
          {"network": "custom_mnist", "inferences": 20,
           "environment": {"temperature_c": 25}},
          {"network": "custom_mnist", "inferences": 5,
           "environment": {"temperature_c": 85, "vdd": 1.05}},
          {"network": "custom_mnist", "inferences": 20,
           "environment": {"temperature_c": 55, "activity_scale": 0.5}}
        ],
        "regions": [
          {"name": "hot", "rows": 0.25,
           "policy": {"kind": "dnn-life", "trbg_bias": 0.7,
                      "bias_balancing": true, "balancer_bits": 4,
                      "seed": @SEED@}},
          {"name": "cold", "rows": 0.75, "policy": {"kind": "no-mitigation"}}
        ]
      },
      "axes": [
        {"parameter": "aging_model_params.recovery_floor",
         "values": [0.1, 0.15, 0.2, 0.25, 0.3]},
        {"parameter": "aging_model_params.hci_amplitude",
         "values": [1, 2, 3, 4]},
        {"parameter": "aging_model_params.activation_energy_ev",
         "values": [0.04, 0.05, 0.06, 0.07, 0.08]}
      ]
    })", seed);
    workload.jobs = 1;
    workload.threads = 2;
    workload.sim_cache = true;
    workload.points = 100;
    workload.simulations = 1;
  } else if (name == "store-grid") {
    // The disk tier serving reads beside durable writes: 4 policies give 4
    // distinct streams. Each is simulated and published once; the other
    // 236 points load their duty state from disk, and jobs=2 parks
    // siblings behind each leader (single flight). The NPU is 32 wide with
    // 2 tiles (16k cells, ~128 KB entries) so a point's working set fits
    // in a core's L2: with a 64-wide, 4-tile NPU (1 MB entries) the
    // figures swung by 15-27% between runs with the memory traffic of
    // other tenants of a shared host. The seed drives the jitter.
    workload.spec_json = seeded(R"({
      "name": "store-grid",
      "base": {
        "hardware": "tpu-like-npu",
        "npu": {"array_dim": 32, "fifo_tiles": 2},
        "aging_model": "arrhenius-nbti",
        "phases": [{"network": "custom_mnist", "inferences": 2}]
      },
      "axes": [
        {"parameter": "policy",
         "values": ["no-mitigation", "inversion", "barrel-shifter",
                    "dnn-life"]},
        {"parameter": "temperature_c", "values": [25, 55, 85]},
        {"parameter": "vdd", "values": [0.95, 1.0]},
        {"parameter": "activity_scale", "values": [0.0, 1.0]}
      ],
      "jitter": {"seed": @SEED@, "samples": 5, "temperature_c": 3.0}
    })", seed);
    workload.jobs = 2;
    workload.threads = 1;
    workload.sim_store = true;
    workload.points = 240;
    workload.simulations = 4;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return workload;
}

}  // namespace perfbench
