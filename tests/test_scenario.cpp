// Tests for the declarative scenario layer: the JSON reader, strict spec
// parsing and end-to-end scenario runs (hybrid regions, multi-phase).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/scenario.hpp"
#include "core/workload.hpp"
#include "util/json.hpp"

namespace dnnlife::core {
namespace {

// ---- JSON reader -------------------------------------------------------------

TEST(Json, ParsesScalarsArraysObjects) {
  const auto root = util::JsonValue::parse(
      R"({"a": 1.5, "b": "text", "c": [1, 2, 3], "d": {"x": true}, "e": null})");
  EXPECT_DOUBLE_EQ(root.at("a").as_number(), 1.5);
  EXPECT_EQ(root.at("b").as_string(), "text");
  ASSERT_EQ(root.at("c").items().size(), 3u);
  EXPECT_EQ(root.at("c").items()[2].as_uint(), 3u);
  EXPECT_TRUE(root.at("d").at("x").as_bool());
  EXPECT_TRUE(root.at("e").is_null());
  EXPECT_EQ(root.find("missing"), nullptr);
  EXPECT_THROW(root.at("missing"), std::invalid_argument);
}

TEST(Json, ParsesEscapesAndNegativeExponents) {
  const auto root =
      util::JsonValue::parse(R"({"s": "a\"b\nA", "n": -2.5e-2})");
  EXPECT_EQ(root.at("s").as_string(), "a\"b\nA");
  EXPECT_DOUBLE_EQ(root.at("n").as_number(), -0.025);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(util::JsonValue::parse("{"), std::invalid_argument);
  EXPECT_THROW(util::JsonValue::parse("{} trailing"), std::invalid_argument);
  EXPECT_THROW(util::JsonValue::parse(R"({"a": })"), std::invalid_argument);
  EXPECT_THROW(util::JsonValue::parse(R"({"a": 1, "a": 2})"),
               std::invalid_argument);
  EXPECT_THROW(util::JsonValue::parse(R"("unterminated)"),
               std::invalid_argument);
  EXPECT_THROW(util::JsonValue::parse("01a"), std::invalid_argument);
  EXPECT_THROW(util::JsonValue::parse(""), std::invalid_argument);
}

TEST(Json, TypedAccessorsCheckTypes) {
  const auto root = util::JsonValue::parse(R"({"n": 3, "neg": -1, "f": 1.25})");
  EXPECT_THROW(root.at("n").as_string(), std::invalid_argument);
  EXPECT_THROW(root.at("n").as_bool(), std::invalid_argument);
  EXPECT_THROW(root.at("n").items(), std::invalid_argument);
  EXPECT_EQ(root.at("n").as_uint(), 3u);
  EXPECT_THROW(root.at("neg").as_uint(), std::invalid_argument);
  EXPECT_THROW(root.at("f").as_uint(), std::invalid_argument);
}

// ---- scenario parsing --------------------------------------------------------

constexpr const char* kHybridScenario = R"json({
  "name": "hybrid",
  "hardware": "tpu-like-npu",
  "format": "int8-symmetric",
  "npu": {"array_dim": 64, "fifo_tiles": 2},
  "phases": [
    {"network": "custom_mnist", "inferences": 8},
    {"network": "custom_mnist", "inferences": 4}
  ],
  "regions": [
    {"name": "hot", "rows": 0.25,
     "policy": {"kind": "dnn-life", "trbg_bias": 0.7, "balancer_bits": 4}},
    {"name": "cold", "rows": 0.75, "policy": {"kind": "no-mitigation"}}
  ],
  "threads": 2
})json";

TEST(ScenarioParse, ReadsTheFullSchema) {
  const ScenarioSpec spec = parse_scenario(kHybridScenario);
  EXPECT_EQ(spec.name, "hybrid");
  EXPECT_EQ(spec.hardware, HardwareKind::kTpuNpu);
  EXPECT_EQ(spec.format, quant::WeightFormat::kInt8Symmetric);
  EXPECT_EQ(spec.npu.array_dim, 64u);
  EXPECT_EQ(spec.npu.fifo_tiles, 2u);
  ASSERT_EQ(spec.phases.size(), 2u);
  EXPECT_EQ(spec.phases[0].network, "custom_mnist");
  EXPECT_EQ(spec.phases[1].inferences, 4u);
  ASSERT_EQ(spec.regions.size(), 2u);
  EXPECT_EQ(spec.regions[0].name, "hot");
  EXPECT_DOUBLE_EQ(spec.regions[0].row_fraction, 0.25);
  EXPECT_EQ(spec.regions[0].policy.kind, PolicyKind::kDnnLife);
  EXPECT_DOUBLE_EQ(spec.regions[0].policy.trbg_bias, 0.7);
  EXPECT_EQ(spec.regions[1].policy.kind, PolicyKind::kNone);
  EXPECT_EQ(spec.threads, 2u);
}

TEST(ScenarioParse, RejectsUnknownMembersAndBadValues) {
  EXPECT_THROW(parse_scenario(R"({"phases": [], "typo_key": 1})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario(R"({"phases": []})"), std::invalid_argument);
  EXPECT_THROW(
      parse_scenario(
          R"({"phases": [{"network": "custom_mnist", "inferencez": 1}]})"),
      std::invalid_argument);
  EXPECT_THROW(
      parse_scenario(R"({"hardware": "abacus",
                         "phases": [{"network": "custom_mnist"}]})"),
      std::invalid_argument);
  EXPECT_THROW(
      parse_scenario(R"({"format": "int4",
                         "phases": [{"network": "custom_mnist"}]})"),
      std::invalid_argument);
  // Policy validation runs during parsing (fail at the spec, not mid-run).
  EXPECT_THROW(
      parse_scenario(R"({"phases": [{"network": "custom_mnist"}],
                         "regions": [{"name": "all", "rows": 1.0,
                                      "policy": {"kind": "dnn-life",
                                                 "trbg_bias": 1.5}}]})"),
      std::invalid_argument);
  // weight_bits is always the codec's width: a spec cannot override it,
  // and pretending to accept one would silently misconfigure the run.
  EXPECT_THROW(
      parse_scenario(R"({"phases": [{"network": "custom_mnist"}],
                         "regions": [{"name": "all", "rows": 1.0,
                                      "policy": {"kind": "barrel-shifter",
                                                 "weight_bits": 16}}]})"),
      std::invalid_argument);
  // Unregistered custom policy names are rejected at the "kind" member.
  EXPECT_THROW(
      parse_scenario(R"({"phases": [{"network": "custom_mnist"}],
                         "regions": [{"name": "all", "rows": 1.0,
                                      "policy": {"kind": "martian"}}]})"),
      std::invalid_argument);
  // A region must state its policy — silently defaulting to no-mitigation
  // would hide a forgotten member.
  EXPECT_THROW(
      parse_scenario(R"({"phases": [{"network": "custom_mnist"}],
                         "regions": [{"name": "hot", "rows": 1.0}]})"),
      std::invalid_argument);
}

TEST(ScenarioParse, ReadsReportAndSnmCalibration) {
  const ScenarioSpec spec = parse_scenario(R"json({
    "phases": [{"network": "custom_mnist", "inferences": 2}],
    "report": {"years": 3.0, "optimal_tolerance": 1.5},
    "snm": {"snm_at_balanced": 10.0, "snm_at_full_stress": 25.0,
            "t_ref_years": 5.0, "time_exponent": 0.2}
  })json");
  EXPECT_DOUBLE_EQ(spec.report.years, 3.0);
  EXPECT_DOUBLE_EQ(spec.report.optimal_tolerance, 1.5);
  EXPECT_DOUBLE_EQ(spec.snm.snm_at_balanced, 10.0);
  EXPECT_DOUBLE_EQ(spec.snm.snm_at_full_stress, 25.0);
  EXPECT_DOUBLE_EQ(spec.snm.t_ref_years, 5.0);
  EXPECT_DOUBLE_EQ(spec.snm.time_exponent, 0.2);
  EXPECT_THROW(parse_scenario(
                   R"({"phases": [{"network": "custom_mnist"}],
                       "snm": {"snm_at_balanced": 10.0, "typo": 1}})"),
               std::invalid_argument);
}

TEST(ScenarioParse, InvalidSnmAnchorsAreDocumentErrors) {
  // The model is built while parsing, so a bad anchor throws before a
  // spec exists that could start a simulation.
  const auto parse_with_snm = [](const std::string& snm) {
    return parse_scenario(R"({"aging_model": "dual-bti",
                              "phases": [{"network": "custom_mnist"}],
                              "snm": )" + snm + "}");
  };
  try {
    parse_with_snm(R"({"snm_at_balanced": 0})");
    ADD_FAILURE() << "a zero balanced anchor parsed";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("balanced anchor"),
              std::string::npos)
        << error.what();
  }
  EXPECT_THROW(parse_with_snm(R"({"snm_at_balanced": 30,
                                  "snm_at_full_stress": 20})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario(R"({"phases": [{"network": "custom_mnist"}],
                                  "snm": {"snm_at_balanced": -1}})"),
               std::invalid_argument);
  // Valid anchors and an empty snm block still parse.
  EXPECT_NO_THROW(parse_with_snm(R"({"snm_at_balanced": 9.5})"));
  EXPECT_NO_THROW(parse_with_snm("{}"));
}

TEST(ScenarioParse, WeightMemoryGeometryIsBoundedBeforeAllocation) {
  // Each field is in range on its own; the products are not. Parsing
  // rejects them with a typed error before any stream or tracker exists.
  const auto npu = [](unsigned dim, unsigned tiles, const char* format) {
    return parse_scenario(
        R"({"hardware": "tpu-like-npu", "format": ")" + std::string(format) +
        R"(", "npu": {"array_dim": )" + std::to_string(dim) +
        R"(, "fifo_tiles": )" + std::to_string(tiles) +
        R"(}, "phases": [{"network": "custom_mnist"}]})");
  };
  try {
    npu(65536, 65536, "int8-symmetric");  // 2^32 rows wrapped to 0
    ADD_FAILURE() << "a 2^32-row FIFO parsed";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("32-bit row count"),
              std::string::npos)
        << error.what();
  }
  EXPECT_THROW(npu(4096, 4096, "int8-symmetric"), std::invalid_argument);
  EXPECT_THROW(npu(65536, 3, "int8-symmetric"), std::invalid_argument);
  // The dormant config is part of the document too.
  EXPECT_THROW(parse_scenario(R"({"hardware": "baseline-accelerator",
                                  "npu": {"array_dim": 4096,
                                          "fifo_tiles": 4096},
                                  "phases": [{"network": "custom_mnist"}]})"),
               std::invalid_argument);
  const auto baseline = [](std::uint64_t bytes) {
    return parse_scenario(
        R"({"baseline": {"weight_memory_bytes": )" + std::to_string(bytes) +
        R"(}, "phases": [{"network": "custom_mnist"}]})");
  };
  EXPECT_THROW(baseline(std::uint64_t{1} << 40), std::invalid_argument);
  EXPECT_THROW(baseline(kMaxWeightMemoryCells / 8 + 1), std::invalid_argument);
  EXPECT_EQ(baseline(kMaxWeightMemoryCells / 8).baseline.weight_memory_bytes,
            kMaxWeightMemoryCells / 8);
  // The largest shipped geometry (a 256 x 256 NPU, 4-tile FIFO, float32)
  // clears the cap, and so does the cap itself.
  EXPECT_EQ(npu(256, 4, "float32").npu.array_dim, 256u);
  EXPECT_LE(std::uint64_t{256} * 4 * 256 * 32, kMaxWeightMemoryCells);
  // 128 tiles x 256 rows x 256 x 8 bits = 2^26 cells: exactly the cap.
  EXPECT_EQ(npu(256, 128, "int8-symmetric").npu.fifo_tiles, 128u);
  EXPECT_THROW(npu(256, 129, "int8-symmetric"), std::invalid_argument);
}

TEST(ScenarioParse, HardwareAndFormatNamesRoundTrip) {
  for (const HardwareKind kind : {HardwareKind::kBaseline, HardwareKind::kTpuNpu})
    EXPECT_EQ(hardware_kind_from_string(to_string(kind)), kind);
  EXPECT_THROW(hardware_kind_from_string("gpu"), std::invalid_argument);
  for (const quant::WeightFormat format :
       {quant::WeightFormat::kFloat32, quant::WeightFormat::kInt8Symmetric,
        quant::WeightFormat::kInt8Asymmetric})
    EXPECT_EQ(quant::weight_format_from_string(quant::to_string(format)),
              format);
  EXPECT_THROW(quant::weight_format_from_string("int4"),
               std::invalid_argument);
}

// ---- end-to-end scenario runs ------------------------------------------------

TEST(ScenarioRun, HybridRegionsEndToEnd) {
  const ScenarioSpec spec = parse_scenario(kHybridScenario);
  const ScenarioResult result = run_scenario(spec);
  ASSERT_EQ(result.phase_labels.size(), 2u);
  EXPECT_EQ(result.phase_labels[0], "custom_mnist x 8");
  ASSERT_EQ(result.report.regions.size(), 2u);
  EXPECT_EQ(result.report.regions[0].name, "hot");
  EXPECT_EQ(result.report.regions[1].name, "cold");
  EXPECT_EQ(result.report.regions[0].total_cells +
                result.report.regions[1].total_cells,
            result.report.total_cells);
  EXPECT_EQ(result.report.total_cells, result.geometry.cells());
  // The protected region must age no worse than the unprotected one on
  // the used cells (DNN-Life balances duty-cycles).
  const auto& hot = result.report.regions[0];
  const auto& cold = result.report.regions[1];
  if (hot.snm_stats.count() > 0 && cold.snm_stats.count() > 0) {
    EXPECT_LE(hot.snm_stats.mean(), cold.snm_stats.mean() + 1e-9);
  }
  // The lifetime solve rides along, with the same per-region breakdown.
  ASSERT_TRUE(result.lifetime.has_value());
  ASSERT_EQ(result.lifetime->regions.size(), 2u);
  EXPECT_EQ(result.lifetime->regions[0].name, "hot");
  EXPECT_GT(result.lifetime->device_lifetime_years, 0.0);
}

TEST(ScenarioRun, UniformScenarioMatchesDirectWorkload) {
  const char* json = R"json({
    "hardware": "baseline-accelerator",
    "baseline": {"weight_memory_bytes": 16384},
    "phases": [{"network": "custom_mnist", "inferences": 6}],
    "regions": [{"name": "memory", "rows": 1.0,
                 "policy": {"kind": "inversion"}}]
  })json";
  const ScenarioResult result = run_scenario(parse_scenario(json));
  // Same run assembled by hand through the workbench layer.
  ExperimentConfig config;
  config.network = "custom_mnist";
  config.baseline.weight_memory_bytes = 16384;
  config.inferences = 6;
  const Workbench bench(config);
  const std::vector<WorkloadPhase> phases = {
      WorkloadPhase{&bench.stream(), 6}};
  const auto tracker = simulate_workload(
      phases, RegionPolicyTable::uniform(bench.stream().geometry(),
                                         PolicyConfig::inversion()));
  const aging::CalibratedNbtiDeviceModel model;
  const auto direct = make_aging_report(tracker, model);
  EXPECT_EQ(result.report.total_cells, direct.total_cells);
  EXPECT_EQ(result.report.unused_cells, direct.unused_cells);
  EXPECT_DOUBLE_EQ(result.report.duty_stats.mean(), direct.duty_stats.mean());
  EXPECT_DOUBLE_EQ(result.report.snm_stats.mean(), direct.snm_stats.mean());
}

// ---- environment / aging-model schema ----------------------------------------

TEST(ScenarioParse, ReadsPhaseEnvironmentsAndAgingModel) {
  const ScenarioSpec spec = parse_scenario(R"json({
    "aging_model": "arrhenius-nbti",
    "lifetime": {"snm_failure_threshold": 22.5},
    "phases": [
      {"network": "custom_mnist", "inferences": 4,
       "environment": {"temperature_c": 85.0, "vdd": 1.1,
                       "activity_scale": 0.75}},
      {"network": "custom_mnist", "inferences": 2}
    ]
  })json");
  EXPECT_EQ(spec.aging_model, "arrhenius-nbti");
  EXPECT_DOUBLE_EQ(spec.lifetime.snm_failure_threshold, 22.5);
  ASSERT_EQ(spec.phases.size(), 2u);
  EXPECT_DOUBLE_EQ(spec.phases[0].environment.temperature_c, 85.0);
  EXPECT_DOUBLE_EQ(spec.phases[0].environment.vdd, 1.1);
  EXPECT_DOUBLE_EQ(spec.phases[0].environment.activity_scale, 0.75);
  EXPECT_TRUE(aging::is_nominal(spec.phases[1].environment));
}

TEST(ScenarioParse, RejectsMalformedEnvironmentBlocks) {
  // Unknown member.
  EXPECT_THROW(parse_scenario(
                   R"({"phases": [{"network": "custom_mnist",
                       "environment": {"temp": 85}}]})"),
               std::invalid_argument);
  // Wrong type.
  EXPECT_THROW(parse_scenario(
                   R"({"phases": [{"network": "custom_mnist",
                       "environment": {"temperature_c": "hot"}}]})"),
               std::invalid_argument);
  // Out-of-range values.
  EXPECT_THROW(parse_scenario(
                   R"({"phases": [{"network": "custom_mnist",
                       "environment": {"temperature_c": -400}}]})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario(
                   R"({"phases": [{"network": "custom_mnist",
                       "environment": {"vdd": 0}}]})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario(
                   R"({"phases": [{"network": "custom_mnist",
                       "environment": {"activity_scale": 1.5}}]})"),
               std::invalid_argument);
  // Environment must be an object, not a scalar.
  EXPECT_THROW(parse_scenario(
                   R"({"phases": [{"network": "custom_mnist",
                       "environment": 85}]})"),
               std::invalid_argument);
}

TEST(ScenarioParse, RejectsUnknownAgingModelListingRegistered) {
  try {
    parse_scenario(R"({"aging_model": "martian-model",
                       "phases": [{"network": "custom_mnist"}]})");
    FAIL() << "unknown aging model accepted";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("martian-model"), std::string::npos);
    EXPECT_NE(message.find("calibrated-nbti"), std::string::npos);
    EXPECT_NE(message.find("arrhenius-nbti"), std::string::npos);
  }
  // An unreachable lifetime threshold is rejected at the document too.
  EXPECT_THROW(parse_scenario(R"({"lifetime": {"snm_failure_threshold": -1},
                                  "phases": [{"network": "custom_mnist"}]})"),
               std::invalid_argument);
}

TEST(ScenarioRun, PerPhaseTemperaturesShortenLifetimeEndToEnd) {
  const char* base = R"json({
    "hardware": "tpu-like-npu",
    "npu": {"array_dim": 64, "fifo_tiles": 2},
    "aging_model": "arrhenius-nbti",
    "phases": [
      {"network": "custom_mnist", "inferences": 6},
      {"network": "custom_mnist", "inferences": 6%ENV%}
    ]
  })json";
  const auto run_with = [&](const std::string& env_suffix) {
    std::string json = base;
    json.replace(json.find("%ENV%"), 5, env_suffix);
    return run_scenario(parse_scenario(json));
  };
  const ScenarioResult cool = run_with("");
  const ScenarioResult heated = run_with(
      R"(, "environment": {"temperature_c": 95.0})");
  ASSERT_TRUE(cool.lifetime.has_value());
  ASSERT_TRUE(heated.lifetime.has_value());
  EXPECT_LT(heated.lifetime->device_lifetime_years,
            cool.lifetime->device_lifetime_years);
  EXPECT_GT(heated.report.snm_stats.mean(), cool.report.snm_stats.mean());
  // The phase label names the non-nominal environment.
  EXPECT_NE(heated.phase_labels[1].find("95"), std::string::npos);
  EXPECT_EQ(heated.phase_labels[0], "custom_mnist x 6");
}

TEST(ScenarioRun, DefaultModelNominalEnvironmentsMatchLegacyNumbers) {
  // A multi-phase all-nominal scenario must produce the same aging report
  // the legacy merged-tracker path computes (single-segment collapse).
  const char* json = R"json({
    "hardware": "baseline-accelerator",
    "baseline": {"weight_memory_bytes": 16384},
    "phases": [
      {"network": "custom_mnist", "inferences": 3},
      {"network": "custom_mnist", "inferences": 3}
    ]
  })json";
  const ScenarioResult result = run_scenario(parse_scenario(json));
  ExperimentConfig config;
  config.network = "custom_mnist";
  config.baseline.weight_memory_bytes = 16384;
  const Workbench bench(config);
  const std::vector<WorkloadPhase> phases = {
      WorkloadPhase{&bench.stream(), 3}, WorkloadPhase{&bench.stream(), 3}};
  const auto tracker = simulate_workload(
      phases, RegionPolicyTable::uniform(bench.stream().geometry(),
                                         PolicyConfig{}));
  const aging::CalibratedNbtiDeviceModel model;
  const auto direct = make_aging_report(tracker, model);
  EXPECT_EQ(result.report.snm_stats.mean(), direct.snm_stats.mean());
  EXPECT_EQ(result.report.snm_stats.max(), direct.snm_stats.max());
  EXPECT_EQ(result.report.fraction_optimal, direct.fraction_optimal);
  ASSERT_TRUE(result.lifetime.has_value());
  const auto direct_lifetime =
      make_lifetime_report(tracker, aging::LifetimeModel{});
  EXPECT_EQ(result.lifetime->device_lifetime_years,
            direct_lifetime.device_lifetime_years);
  EXPECT_EQ(result.lifetime->cell_lifetime.mean(),
            direct_lifetime.cell_lifetime.mean());
}

TEST(ScenarioRun, ZeroInferencePhaseIsSkipped) {
  const char* json = R"json({
    "hardware": "baseline-accelerator",
    "baseline": {"weight_memory_bytes": 16384},
    "phases": [
      {"network": "custom_mnist", "inferences": 0},
      {"network": "custom_mnist", "inferences": 5}
    ]
  })json";
  const ScenarioResult result = run_scenario(parse_scenario(json));
  EXPECT_EQ(result.phase_labels.front(), "custom_mnist x 0");
  EXPECT_GT(result.report.total_cells, result.report.unused_cells);
}

}  // namespace
}  // namespace dnnlife::core
