// Differential oracle for the deduplicated multi-segment report path
// (ReportEvaluator::run_timeline behind the EnvironmentSegmentView
// overloads of make_aging_report / make_lifetime_report).
//
// Seeded generated segment trackers — 2 to 4 segments, more cells than one
// dedupe chunk, cells drawn from a small pool of counter tuples plus
// unique ones, cells unused in some or all segments, tuples that differ
// only in `ones` or only in their high bits, region tags — are evaluated
// for all four built-in models at 1, 2 and 8 threads and compared bitwise
// against a per-cell loop (gather, model call, in-order fold) that lives
// here and shares no code with the driver. A counting decorator pins the
// solve budget: one timeline solve per distinct tuple per chunk.
//
// The multi-segment lifetime solve itself (exact chain-rule slope,
// warm-started equivalent-time inversions) is checked against a test-local
// copy of the finite-difference solver it replaced, on the generated
// timelines and on seeded random pbti-hci timelines, and its work per
// solve is pinned in exact curve/slope/inversion counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "aging/lifetime.hpp"
#include "aging/model_registry.hpp"
#include "aging/report_evaluator.hpp"
#include "aging/snm_histogram.hpp"
#include "util/root_find.hpp"

namespace dnnlife::aging {
namespace {

/// Forwards every hook to `inner` and counts the two timeline solves.
class CountingModel final : public DeviceAgingModel {
 public:
  explicit CountingModel(std::shared_ptr<const DeviceAgingModel> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const noexcept override { return inner_->name(); }
  double reference_years() const noexcept override {
    return inner_->reference_years();
  }
  double degradation(double duty, double years,
                     const EnvironmentSpec& env) const override {
    return inner_->degradation(duty, years, env);
  }
  double degradation_slope(double duty, double years,
                           const EnvironmentSpec& env) const override {
    return inner_->degradation_slope(duty, years, env);
  }
  double years_to_reach(double duty, double target,
                        const EnvironmentSpec& env) const override {
    return inner_->years_to_reach(duty, target, env);
  }
  void years_to_reach_batch(std::span<const double> duties, double target,
                            const EnvironmentSpec& env, std::span<double> out,
                            BatchSolveStats* stats) const override {
    inner_->years_to_reach_batch(duties, target, env, out, stats);
  }
  void degradation_batch(std::span<const double> duties, double years,
                         const EnvironmentSpec& env, std::span<double> out,
                         BatchSolveStats* stats) const override {
    inner_->degradation_batch(duties, years, env, out, stats);
  }
  double degradation_on_timeline(std::span<const StressSegment> timeline,
                                 double years) const override {
    timeline_calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_->degradation_on_timeline(timeline, years);
  }
  double years_to_failure(std::span<const StressSegment> timeline,
                          double threshold) const override {
    failure_calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_->years_to_failure(timeline, threshold);
  }

  std::uint64_t timeline_calls() const { return timeline_calls_.load(); }
  std::uint64_t failure_calls() const { return failure_calls_.load(); }
  void reset() {
    timeline_calls_.store(0);
    failure_calls_.store(0);
  }

 private:
  std::shared_ptr<const DeviceAgingModel> inner_;
  mutable std::atomic<std::uint64_t> timeline_calls_{0};
  mutable std::atomic<std::uint64_t> failure_calls_{0};
};

/// One cell's residency counters in every segment.
struct CounterTuple {
  std::vector<std::uint32_t> ones;
  std::vector<std::uint32_t> total;
};

/// Seeded segment trackers over `cells` cells with `segment_count`
/// distinct environments and three region tags.
std::vector<EnvironmentSegment> generate_segments(std::uint64_t seed,
                                                  std::size_t segment_count,
                                                  std::size_t cells) {
  std::mt19937_64 rng(seed);
  const auto uniform = [&](std::uint32_t lo, std::uint32_t hi) {
    return std::uniform_int_distribution<std::uint32_t>(lo, hi)(rng);
  };
  const auto random_tuple = [&] {
    CounterTuple tuple{std::vector<std::uint32_t>(segment_count),
                       std::vector<std::uint32_t>(segment_count)};
    for (std::size_t s = 0; s < segment_count; ++s) {
      if (uniform(0, 3) == 0) continue;  // unused in this segment
      tuple.total[s] = uniform(1, 64);
      tuple.ones[s] = uniform(0, tuple.total[s]);
    }
    return tuple;
  };

  std::vector<CounterTuple> pool;
  for (int i = 0; i < 10; ++i) pool.push_back(random_tuple());
  // Unused in every segment.
  pool.push_back({std::vector<std::uint32_t>(segment_count),
                  std::vector<std::uint32_t>(segment_count)});
  // Siblings of the first tuples: equal totals with a different `ones`
  // (one totals key, two counter keys), and variants that differ only in
  // the high bits of one segment's counters.
  for (std::size_t i = 0; i < 4; ++i) {
    CounterTuple ones_only = pool[i];
    CounterTuple high_total = pool[i];
    CounterTuple high_ones = pool[i];
    const std::size_t s = i % segment_count;
    ones_only.total[s] = std::max<std::uint32_t>(ones_only.total[s], 2);
    ones_only.ones[s] = ones_only.ones[s] == 0 ? 1 : ones_only.ones[s] - 1;
    high_total.total[s] |= 1u << 31;
    high_ones.total[s] = 1u << 31;
    high_ones.ones[s] = (1u << 30) | (high_ones.ones[s] << 20);
    pool.push_back(ones_only);
    pool.push_back(high_total);
    pool.push_back(high_ones);
  }

  const std::vector<EnvironmentSpec> environments = {
      EnvironmentSpec{}, EnvironmentSpec{85.0, 1.0, 1.0},
      EnvironmentSpec{70.0, 1.05, 1.0}, EnvironmentSpec{40.0, 1.0, 0.5}};
  std::vector<EnvironmentSegment> segments;
  for (std::size_t s = 0; s < segment_count; ++s)
    segments.push_back(
        EnvironmentSegment{DutyCycleTracker(cells), environments[s]});
  for (std::size_t cell = 0; cell < cells; ++cell) {
    // ~1 cell in 256 gets a fresh tuple, the rest reuse the pool.
    const CounterTuple tuple =
        uniform(0, 255) == 0
            ? random_tuple()
            : pool[uniform(0, static_cast<std::uint32_t>(pool.size() - 1))];
    for (std::size_t s = 0; s < segment_count; ++s) {
      segments[s].tracker.add_ones_time(cell, tuple.ones[s]);
      segments[s].tracker.add_total_time(cell, tuple.total[s]);
    }
  }
  const std::uint64_t cut_a = uniform(1, static_cast<std::uint32_t>(cells / 3));
  const std::uint64_t cut_b =
      uniform(static_cast<std::uint32_t>(cells / 2),
              static_cast<std::uint32_t>(cells - 1));
  const std::vector<CellRegion> regions = {CellRegion{"a", 0, cut_a},
                                           CellRegion{"b", cut_a, cut_b},
                                           CellRegion{"c", cut_b, cells}};
  for (EnvironmentSegment& segment : segments)
    segment.tracker.set_regions(regions);
  return segments;
}

/// Number of distinct tuples among the used cells of each dedupe chunk,
/// summed over chunks — the solve budget of one keyed evaluation.
std::uint64_t distinct_used_tuples(
    const std::vector<EnvironmentSegment>& segments, bool with_ones) {
  const std::size_t cells = segments.front().tracker.cell_count();
  std::uint64_t distinct = 0;
  for (std::size_t begin = 0; begin < cells;
       begin += ReportEvaluator::kTimelineChunkCells) {
    const std::size_t end =
        std::min(cells, begin + ReportEvaluator::kTimelineChunkCells);
    std::set<std::vector<std::uint32_t>> seen;
    for (std::size_t cell = begin; cell < end; ++cell) {
      std::vector<std::uint32_t> key;
      std::uint32_t merged_total = 0;
      for (const EnvironmentSegment& segment : segments) {
        key.push_back(with_ones ? segment.tracker.ones_time()[cell] : 0);
        key.push_back(segment.tracker.total_time()[cell]);
        merged_total += segment.tracker.total_time()[cell];
      }
      if (merged_total != 0) seen.insert(key);
    }
    distinct += seen.size();
  }
  return distinct;
}

void append_stats(std::vector<std::uint64_t>& out,
                  const util::RunningStats& stats) {
  for (const double value :
       {stats.mean(), stats.min(), stats.max(), stats.variance()})
    out.push_back(std::bit_cast<std::uint64_t>(value));
  out.push_back(stats.count());
}

std::vector<std::uint64_t> aging_bits(const AgingReport& report) {
  std::vector<std::uint64_t> out;
  append_stats(out, report.snm_stats);
  append_stats(out, report.duty_stats);
  out.push_back(std::bit_cast<std::uint64_t>(report.fraction_optimal));
  out.push_back(report.total_cells);
  out.push_back(report.unused_cells);
  for (std::size_t b = 0; b < report.snm_histogram.bin_count(); ++b)
    out.push_back(report.snm_histogram.count_in_bin(b));
  for (const RegionAging& region : report.regions) {
    out.push_back(region.total_cells);
    out.push_back(region.unused_cells);
    append_stats(out, region.snm_stats);
    append_stats(out, region.duty_stats);
    out.push_back(std::bit_cast<std::uint64_t>(region.fraction_optimal));
  }
  return out;
}

std::vector<std::uint64_t> lifetime_bits(const LifetimeReport& report) {
  std::vector<std::uint64_t> out;
  for (const double value :
       {report.device_lifetime_years, report.improvement_over_worst_case,
        report.fraction_of_ideal})
    out.push_back(std::bit_cast<std::uint64_t>(value));
  append_stats(out, report.cell_lifetime);
  for (const RegionLifetime& region : report.regions) {
    out.push_back(std::bit_cast<std::uint64_t>(region.device_lifetime_years));
    append_stats(out, region.cell_lifetime);
  }
  return out;
}

/// The per-cell reference: every cell gathered and evaluated on its own,
/// folded in cell order with the reports' documented semantics.
struct Reference {
  AgingReport aging;
  LifetimeReport lifetime;
};

Reference reference_reports(const std::vector<EnvironmentSegment>& segments,
                            const LifetimeModel& lifetime_model,
                            const AgingReportOptions& options) {
  const DeviceAgingModel& model = lifetime_model.model();
  const std::vector<EnvironmentSegmentView> views = segment_views(segments);
  const DutyCycleTracker& first = segments.front().tracker;
  const std::vector<CellRegion>& tags = first.regions();
  Reference ref{AgingReport{util::Histogram(options.hist_lo, options.hist_hi,
                                            options.hist_bins),
                            {}, {}, first.cell_count(), 0, 0.0, {}},
                {}};
  for (const CellRegion& tag : tags) {
    ref.aging.regions.push_back(RegionAging{
        tag.name, static_cast<std::size_t>(tag.cell_end - tag.cell_begin), 0,
        {}, {}, 0.0});
    ref.lifetime.regions.push_back(RegionLifetime{tag.name, 0.0, {}});
  }
  std::vector<std::uint64_t> optimal(tags.size() + 1, 0);
  std::vector<std::uint64_t> used(tags.size() + 1, 0);
  bool first_used = true;
  std::vector<StressSegment> history;
  for (std::size_t cell = 0; cell < first.cell_count(); ++cell) {
    std::size_t region = 0;
    while (cell >= tags[region].cell_end) ++region;
    RegionAging& region_aging = ref.aging.regions[region];
    const CellResidency residency =
        gather_cell_segments(views, cell, history);
    if (residency.total == 0) {
      ++ref.aging.unused_cells;
      ++region_aging.unused_cells;
      continue;
    }
    const double duty = static_cast<double>(residency.ones) /
                        static_cast<double>(residency.total);
    const double snm = model.degradation_on_timeline(history, options.years);
    const double years = lifetime_model.years_to_failure(history);
    std::vector<StressSegment> balanced = history;
    for (StressSegment& segment : balanced) segment.duty = 0.5;
    const double reference =
        model.degradation_on_timeline(balanced, options.years);
    const bool is_optimal = snm <= reference + options.optimal_tolerance;

    ref.aging.snm_histogram.add(snm);
    ref.aging.snm_stats.add(snm);
    ref.aging.duty_stats.add(duty);
    region_aging.snm_stats.add(snm);
    region_aging.duty_stats.add(duty);
    for (const std::size_t slot : {tags.size(), region}) {
      ++used[slot];
      if (is_optimal) ++optimal[slot];
    }

    RegionLifetime& region_life = ref.lifetime.regions[region];
    ref.lifetime.cell_lifetime.add(years);
    if (first_used || years < ref.lifetime.device_lifetime_years)
      ref.lifetime.device_lifetime_years = years;
    first_used = false;
    if (region_life.cell_lifetime.count() == 0 ||
        years < region_life.device_lifetime_years)
      region_life.device_lifetime_years = years;
    region_life.cell_lifetime.add(years);
  }
  const auto fraction = [&](std::size_t slot) {
    return used[slot] == 0 ? 0.0
                           : static_cast<double>(optimal[slot]) /
                                 static_cast<double>(used[slot]);
  };
  ref.aging.fraction_optimal = fraction(tags.size());
  for (std::size_t r = 0; r < tags.size(); ++r)
    ref.aging.regions[r].fraction_optimal = fraction(r);
  ref.lifetime.improvement_over_worst_case =
      ref.lifetime.device_lifetime_years / lifetime_model.worst_case_years();
  ref.lifetime.fraction_of_ideal =
      ref.lifetime.device_lifetime_years / lifetime_model.best_case_years();
  return ref;
}

TEST(ReportEvaluatorTimeline, GeneratedTimelinesMatchPerCellLoopBitwise) {
  const std::size_t cells = ReportEvaluator::kTimelineChunkCells + 613;
  for (const std::size_t segment_count : {2u, 3u, 4u}) {
    const std::vector<EnvironmentSegment> segments =
        generate_segments(0x5eed0000 + segment_count, segment_count, cells);
    const std::vector<EnvironmentSegmentView> views = segment_views(segments);
    const std::uint64_t counter_tuples = distinct_used_tuples(segments, true);
    const std::uint64_t total_tuples = distinct_used_tuples(segments, false);
    // The generator must actually exercise deduplication and both keys.
    ASSERT_LT(counter_tuples, cells / 16);
    ASSERT_LT(total_tuples, counter_tuples);
    for (const std::string name :
         {"calibrated-nbti", "arrhenius-nbti", "pbti-hci", "dual-bti"}) {
      const auto counting =
          std::make_shared<CountingModel>(make_aging_model(name));
      const LifetimeModel lifetime_model(counting);
      AgingReportOptions options;
      const Reference ref =
          reference_reports(segments, lifetime_model, options);
      ASSERT_GT(ref.aging.unused_cells, 0u);
      const std::vector<std::uint64_t> ref_aging = aging_bits(ref.aging);
      const std::vector<std::uint64_t> ref_lifetime =
          lifetime_bits(ref.lifetime);
      for (const unsigned threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(name + ", " + std::to_string(segment_count) +
                     " segments, " + std::to_string(threads) + " threads");
        options.threads = threads;
        counting->reset();
        EXPECT_EQ(aging_bits(make_aging_report(views, *counting, options)),
                  ref_aging);
        // One composition per distinct counter tuple (the cell's own
        // degradation) plus one per distinct totals tuple (its balanced
        // reference), per chunk.
        EXPECT_EQ(counting->timeline_calls(), counter_tuples + total_tuples);
        EXPECT_EQ(counting->failure_calls(), 0u);
        counting->reset();
        EXPECT_EQ(lifetime_bits(
                      make_lifetime_report(views, lifetime_model, threads)),
                  ref_lifetime);
        EXPECT_EQ(counting->failure_calls(), counter_tuples);
        EXPECT_EQ(counting->timeline_calls(), 0u);
      }
    }
  }
}

TEST(ReportEvaluatorTimeline, IndexSeparatesOnesOnlyAndHighBitOnlyTuples) {
  // Cells 0 and 1 differ only in `ones`, cells 2 and 3 only in the high
  // bit of `ones`, cells 0 and 3 only in the high bit of `total`: four
  // counter tuples and two totals tuples, numbered in first-occurrence
  // order.
  DutyCycleTracker a(6);
  DutyCycleTracker b(6);
  const std::uint32_t ones[] = {3, 4, 3 | (1u << 30), 3, 3, 4};
  const std::uint32_t totals[] = {8, 8, 8 | (1u << 31), 8 | (1u << 31), 8, 8};
  for (std::size_t cell = 0; cell < 6; ++cell) {
    a.add_ones_time(cell, ones[cell]);
    a.add_total_time(cell, totals[cell]);
    b.add_total_time(cell, 5);
  }
  const std::vector<EnvironmentSegmentView> segments = {{&a, {}}, {&b, {}}};
  TimelineIndex index;
  index.build(segments, 0, 6, TimelineKey::kCounters);
  EXPECT_EQ(index.distinct(), 4u);
  const std::vector<std::uint32_t> expected_counters = {0, 1, 2, 3, 0, 1};
  for (std::size_t cell = 0; cell < 6; ++cell)
    EXPECT_EQ(index.id(cell), expected_counters[cell]) << "cell " << cell;
  EXPECT_EQ(index.representative(3), 3u);

  index.build(segments, 0, 6, TimelineKey::kTotals);
  EXPECT_EQ(index.distinct(), 2u);
  const std::vector<std::uint32_t> expected_totals = {0, 0, 1, 1, 0, 0};
  for (std::size_t cell = 0; cell < 6; ++cell)
    EXPECT_EQ(index.id(cell), expected_totals[cell]) << "cell " << cell;

  // A chunk that starts mid-tracker numbers its own cells from zero.
  index.build(segments, 3, 6, TimelineKey::kCounters);
  EXPECT_EQ(index.distinct(), 3u);
  EXPECT_EQ(index.representative(0), 3u);
  EXPECT_EQ(index.id(5), 2u);
}

// ---- the multi-segment lifetime solve -----------------------------------------

/// The multi-segment lifetime solve as it stood before the exact-slope
/// rewrite, kept as the differential oracle: equivalent-time composition
/// through the model's virtual degradation()/years_to_reach() with cold
/// inversions, and a central finite-difference slope of the composition
/// (three compositions per Newton step). For pbti-hci this reproduces the
/// old hoisted-curve solver bit for bit (its curves evaluate the same
/// expressions as the virtual calls).
double reference_years_to_failure(const DeviceAgingModel& model,
                                  std::span<const StressSegment> timeline,
                                  double threshold) {
  double total_weight = 0.0;
  std::size_t positive = 0;
  const StressSegment* single = nullptr;
  for (const StressSegment& segment : timeline) {
    if (segment.weight <= 0.0) continue;
    total_weight += segment.weight;
    single = ++positive == 1 ? &segment : nullptr;
  }
  if (single != nullptr)
    return model.years_to_reach(single->duty, threshold, single->environment);
  if (threshold <= 0.0) return 0.0;
  const auto composed = [&](double years) {
    double total = 0.0;
    for (const StressSegment& segment : timeline) {
      if (segment.weight <= 0.0) continue;
      const double share = years * (segment.weight / total_weight);
      double equivalent = 0.0;
      if (total > 0.0) {
        equivalent =
            model.years_to_reach(segment.duty, total, segment.environment);
        if (!std::isfinite(equivalent)) continue;
      }
      total = model.degradation(segment.duty, equivalent + share,
                                segment.environment);
    }
    return total;
  };
  const auto slope = [&](double years) {
    const double scale = years > 0.0 ? years : 1.0;
    const double h = scale * 6e-6;
    const double below = years > h ? years - h : 0.0;
    return (composed(years + h) - composed(below)) / (years + h - below);
  };
  return util::invert_monotone(composed, slope, threshold,
                               model.reference_years());
}

/// Relative bound of the oracle comparison (the largest difference
/// measured on these timelines is ~1e-14: both solvers stop within a few
/// ulps of the crossing, from different iterates).
constexpr double kOracleRelTol = 1e-12;

/// Compare one solve against the oracle: +inf exactly where the oracle is
/// +inf, otherwise within kOracleRelTol. Returns the relative difference.
double expect_matches_oracle(const DeviceAgingModel& model,
                             std::span<const StressSegment> timeline,
                             double threshold) {
  const double reference =
      reference_years_to_failure(model, timeline, threshold);
  const double solved = model.years_to_failure(timeline, threshold);
  EXPECT_EQ(std::isinf(solved), std::isinf(reference));
  if (std::isinf(reference)) {
    EXPECT_EQ(solved, reference);
    return 0.0;
  }
  const double error = std::abs(solved - reference) / reference;
  EXPECT_LE(error, kOracleRelTol)
      << "solved " << solved << " reference " << reference;
  return error;
}

std::string format_error(double error) {
  char text[32];
  std::snprintf(text, sizeof text, "%.3g", error);
  return text;
}

/// Seeded random pbti-hci-style timelines: 2-4 segments with random duty,
/// temperature and vdd; about one segment in six has zero weight and one
/// in six is power-gated (activity_scale 0, so its curve never reaches a
/// positive target); every eighth timeline is gated throughout, so its
/// lifetime is unreachable.
std::vector<std::vector<StressSegment>> random_timelines(std::uint64_t seed,
                                                         std::size_t count) {
  std::mt19937_64 rng(seed);
  const auto uniform = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  const auto one_in = [&](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng) == 0;
  };
  std::vector<std::vector<StressSegment>> timelines;
  for (std::size_t i = 0; i < count; ++i) {
    const int segments = std::uniform_int_distribution<int>(2, 4)(rng);
    const bool all_gated = i % 8 == 7;
    std::vector<StressSegment> timeline;
    for (int s = 0; s < segments; ++s) {
      StressSegment segment;
      segment.duty = uniform(0.0, 1.0);
      segment.weight = one_in(6) ? 0.0 : uniform(0.05, 3.0);
      segment.environment.temperature_c = uniform(25.0, 110.0);
      segment.environment.vdd = uniform(0.9, 1.1);
      segment.environment.activity_scale =
          all_gated || one_in(6) ? 0.0 : uniform(0.2, 1.0);
      timeline.push_back(segment);
    }
    if (timeline.front().weight <= 0.0) timeline.front().weight = 1.0;
    timelines.push_back(std::move(timeline));
  }
  return timelines;
}

TEST(TimelineSolve, MatchesFiniteDifferenceOracleOnGeneratedTimelines) {
  const std::shared_ptr<const DeviceAgingModel> model =
      make_aging_model("pbti-hci");
  const double threshold = LifetimeParams{}.snm_failure_threshold;
  double max_error = 0.0;
  std::size_t solves = 0;
  for (const std::size_t segment_count : {2u, 3u, 4u}) {
    const std::vector<EnvironmentSegment> segments =
        generate_segments(0x5eed0000 + segment_count, segment_count,
                          ReportEvaluator::kTimelineChunkCells + 613);
    const std::vector<EnvironmentSegmentView> views = segment_views(segments);
    std::set<std::vector<std::uint32_t>> seen;
    std::vector<StressSegment> history;
    for (std::size_t cell = 0; cell < segments.front().tracker.cell_count();
         ++cell) {
      std::vector<std::uint32_t> key;
      for (const EnvironmentSegment& segment : segments) {
        key.push_back(segment.tracker.ones_time()[cell]);
        key.push_back(segment.tracker.total_time()[cell]);
      }
      if (!seen.insert(key).second) continue;
      if (gather_cell_segments(views, cell, history).total == 0) continue;
      SCOPED_TRACE("cell " + std::to_string(cell));
      max_error = std::max(max_error,
                           expect_matches_oracle(*model, history, threshold));
      ++solves;
    }
  }
  EXPECT_GT(solves, 100u);
  RecordProperty("max_relative_error", format_error(max_error));
}

TEST(TimelineSolve, MatchesFiniteDifferenceOracleOnRandomTimelines) {
  const PbtiHciDeviceModel model;
  double max_error = 0.0;
  std::size_t unreachable = 0;
  const auto timelines = random_timelines(0x7157a11e, 400);
  for (std::size_t i = 0; i < timelines.size(); ++i) {
    for (const double threshold : {2.0, 12.0, 20.0, 40.0}) {
      SCOPED_TRACE("timeline " + std::to_string(i) + ", threshold " +
                   std::to_string(threshold));
      max_error = std::max(
          max_error, expect_matches_oracle(model, timelines[i], threshold));
      if (std::isinf(model.years_to_failure(timelines[i], threshold)))
        ++unreachable;
    }
  }
  // The generator must exercise the unreachable branch.
  EXPECT_GE(unreachable, 4u * (timelines.size() / 8));
  RecordProperty("max_relative_error", format_error(max_error));
}

/// pbti-hci through the generic base-class paths: forwards degradation()
/// and degradation_slope(), leaves years_to_reach() and the timeline
/// hooks to DeviceAgingModel (so the composition runs on virtual-call
/// curves), and counts the three per-curve calls.
class CountingCurveModel final : public DeviceAgingModel {
 public:
  std::string_view name() const noexcept override { return "counting"; }
  double reference_years() const noexcept override {
    return inner_.reference_years();
  }
  double degradation(double duty, double years,
                     const EnvironmentSpec& env) const override {
    ++degradations;
    return inner_.degradation(duty, years, env);
  }
  double degradation_slope(double duty, double years,
                           const EnvironmentSpec& env) const override {
    ++slopes;
    return inner_.degradation_slope(duty, years, env);
  }
  double years_to_reach(double duty, double target,
                        const EnvironmentSpec& env) const override {
    ++inversions;
    return DeviceAgingModel::years_to_reach(duty, target, env);
  }

  mutable int degradations = 0;
  mutable int slopes = 0;
  mutable int inversions = 0;

 private:
  PbtiHciDeviceModel inner_;
};

TEST(TimelineSolve, PinsTheWorkOfOneThreeSegmentSolve) {
  const auto env = [](double temperature_c, double activity_scale) {
    return EnvironmentSpec{temperature_c, 1.0, activity_scale};
  };
  struct Case {
    std::vector<StressSegment> timeline;
    int degradations, slopes, inversions;  // exact-slope solve
    int reference_degradations, reference_slopes, reference_inversions;
  };
  // Per solve: ~5 Newton iterates at one composition each, against ~5
  // iterates at three compositions for the finite-difference oracle. The
  // last case's power-gated middle phase never reaches a positive target,
  // so each of its inversions pays the full failed bracket (201 curve
  // evaluations) in both solvers.
  const std::vector<Case> cases = {
      {{{0.8, 2.0, env(55.0, 1.0)}, {0.6, 1.0, env(95.0, 1.0)},
        {0.9, 1.0, env(85.0, 1.0)}}, 65, 65, 10, 169, 104, 26},
      {{{0.5, 1.0, env(40.0, 1.0)}, {0.1, 1.0, env(70.0, 0.5)},
        {0.97, 3.0, env(105.0, 1.0)}}, 65, 65, 10, 169, 104, 26},
      {{{0.3, 1.0, env(85.0, 1.0)}, {0.7, 2.0, env(55.0, 0.0)},
        {0.5, 1.0, env(55.0, 1.0)}}, 1048, 32, 10, 2306, 37, 22},
  };
  const double threshold = LifetimeParams{}.snm_failure_threshold;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    const Case& c = cases[i];
    CountingCurveModel model;
    const double solved = model.years_to_failure(c.timeline, threshold);
    EXPECT_EQ(model.degradations, c.degradations);
    EXPECT_EQ(model.slopes, c.slopes);
    EXPECT_EQ(model.inversions, c.inversions);

    CountingCurveModel reference_model;
    const double reference =
        reference_years_to_failure(reference_model, c.timeline, threshold);
    EXPECT_EQ(reference_model.degradations, c.reference_degradations);
    EXPECT_EQ(reference_model.slopes, c.reference_slopes);
    EXPECT_EQ(reference_model.inversions, c.reference_inversions);
    EXPECT_NEAR(solved, reference, reference * kOracleRelTol);
  }
}

}  // namespace
}  // namespace dnnlife::aging
