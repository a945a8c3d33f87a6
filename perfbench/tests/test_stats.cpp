// Hand-built checks of the benchmark's summary helpers.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace {

using perfbench::Interval;

TEST(SelfTime, NoChildrenIsTheWholeSpan) {
  EXPECT_DOUBLE_EQ(perfbench::self_time({10.0, 25.0}, {}), 15.0);
}

TEST(SelfTime, DisjointChildrenAreSubtracted) {
  const std::vector<Interval> children = {{11.0, 13.0}, {20.0, 24.0}};
  EXPECT_DOUBLE_EQ(perfbench::self_time({10.0, 25.0}, children), 9.0);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // [2, 6) and [4, 9) cover [2, 9); [5, 7) lies inside that union.
  const std::vector<Interval> children = {{4.0, 9.0}, {2.0, 6.0}, {5.0, 7.0}};
  EXPECT_DOUBLE_EQ(perfbench::self_time({0.0, 10.0}, children), 3.0);
}

TEST(SelfTime, ChildrenAreClippedToTheSpan) {
  // A child straddling each edge and one entirely outside.
  const std::vector<Interval> children = {{-5.0, 2.0}, {8.0, 15.0},
                                          {20.0, 30.0}};
  EXPECT_DOUBLE_EQ(perfbench::self_time({0.0, 10.0}, children), 6.0);
}

TEST(SelfTime, FullyCoveredSpanHasNoSelfTime) {
  const std::vector<Interval> children = {{0.0, 6.0}, {6.0, 10.0}};
  EXPECT_DOUBLE_EQ(perfbench::self_time({0.0, 10.0}, children), 0.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::vector<double> values = {4.0, 1.0, 3.0, 2.0, 5.0};
  EXPECT_DOUBLE_EQ(perfbench::percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(perfbench::percentile(values, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(perfbench::percentile(values, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(perfbench::percentile(values, 90.0), 4.6);
  EXPECT_DOUBLE_EQ(perfbench::percentile({7.0}, 90.0), 7.0);
}

TEST(Percentile, RejectsEmptySamplesAndBadRanks) {
  EXPECT_THROW(perfbench::percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(perfbench::percentile({1.0}, 101.0), std::invalid_argument);
}

TEST(Percentile, HighestSupportedKeepsTenSamplesBeyond) {
  EXPECT_EQ(perfbench::highest_supported_percentile(19), std::nullopt);
  EXPECT_EQ(perfbench::highest_supported_percentile(20), 50.0);
  EXPECT_EQ(perfbench::highest_supported_percentile(99), 50.0);
  EXPECT_EQ(perfbench::highest_supported_percentile(100), 90.0);
  EXPECT_EQ(perfbench::highest_supported_percentile(240), 90.0);
  EXPECT_EQ(perfbench::highest_supported_percentile(999), 90.0);
  EXPECT_EQ(perfbench::highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(perfbench::highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(perfbench::highest_supported_percentile(50, 5), 90.0);
}

}  // namespace
