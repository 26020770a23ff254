#include "policies/iat_histogram.h"

#include <gtest/gtest.h>

namespace spes {
namespace {

TEST(IatHistogramTest, StartsEmpty) {
  IatHistogram hist(240);
  EXPECT_EQ(hist.TotalCount(), 0);
  EXPECT_EQ(hist.OutOfBoundsCount(), 0);
  EXPECT_DOUBLE_EQ(hist.OutOfBoundsFraction(), 0.0);
  EXPECT_EQ(hist.PercentileMinute(50.0), 0);
  EXPECT_FALSE(hist.Representative());
}

TEST(IatHistogramTest, IgnoresNonPositive) {
  IatHistogram hist(240);
  hist.Record(0);
  hist.Record(-3);
  EXPECT_EQ(hist.TotalCount(), 0);
}

TEST(IatHistogramTest, CountsOutOfBounds) {
  IatHistogram hist(10);
  hist.Record(5);
  hist.Record(11);
  hist.Record(100);
  EXPECT_EQ(hist.TotalCount(), 3);
  EXPECT_EQ(hist.OutOfBoundsCount(), 2);
  EXPECT_NEAR(hist.OutOfBoundsFraction(), 2.0 / 3.0, 1e-12);
}

TEST(IatHistogramTest, BoundaryValueIsInRange) {
  IatHistogram hist(10);
  hist.Record(10);
  EXPECT_EQ(hist.OutOfBoundsCount(), 0);
}

TEST(IatHistogramTest, PercentilesOfConstantStream) {
  IatHistogram hist(240);
  for (int i = 0; i < 100; ++i) hist.Record(30);
  EXPECT_EQ(hist.PercentileMinute(5.0), 30);
  EXPECT_EQ(hist.PercentileMinute(50.0), 30);
  EXPECT_EQ(hist.PercentileMinute(99.0), 30);
}

TEST(IatHistogramTest, PercentilesOfBimodalStream) {
  IatHistogram hist(240);
  for (int i = 0; i < 90; ++i) hist.Record(5);
  for (int i = 0; i < 10; ++i) hist.Record(200);
  EXPECT_EQ(hist.PercentileMinute(5.0), 5);
  EXPECT_EQ(hist.PercentileMinute(50.0), 5);
  EXPECT_EQ(hist.PercentileMinute(99.0), 200);
}

TEST(IatHistogramTest, RepresentativenessGates) {
  IatHistogram hist(240);
  for (int i = 0; i < 9; ++i) hist.Record(10);
  EXPECT_FALSE(hist.Representative());  // too few samples
  hist.Record(10);
  EXPECT_TRUE(hist.Representative());
  // Flood with out-of-bounds: representativeness lost.
  for (int i = 0; i < 20; ++i) hist.Record(999);
  EXPECT_FALSE(hist.Representative());
}

TEST(IatHistogramTest, PercentileExcludesOobMass) {
  IatHistogram hist(10);
  for (int i = 0; i < 10; ++i) hist.Record(3);
  for (int i = 0; i < 50; ++i) hist.Record(99);  // OOB
  // Percentiles are over in-range mass only.
  EXPECT_EQ(hist.PercentileMinute(99.0), 3);
}

TEST(IatHistogramTest, MinimumRangeClamped) {
  IatHistogram hist(0);
  EXPECT_EQ(hist.range_minutes(), 1);
}

}  // namespace
}  // namespace spes
