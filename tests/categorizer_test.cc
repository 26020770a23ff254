#include "core/categorizer.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "tests/make_trace.h"
#include "trace/trace.h"

namespace spes {
namespace {

/// Builds a horizon of `n` slots with an arrival every `period` slots.
std::vector<uint32_t> Periodic(int n, int period, int phase = 0) {
  std::vector<uint32_t> counts(static_cast<size_t>(n), 0);
  for (int t = phase; t < n; t += period) {
    counts[static_cast<size_t>(t)] = 1;
  }
  return counts;
}

TEST(CategorizerTest, NeverInvokedIsUnknown) {
  const std::vector<uint32_t> counts(2000, 0);
  EXPECT_EQ(CategorizeDeterministic(counts).type,
            FunctionType::kUnknown);
}

TEST(CategorizerTest, EverySlotInvokedIsAlwaysWarm) {
  const std::vector<uint32_t> counts(2000, 2);
  EXPECT_EQ(CategorizeDeterministic(counts).type,
            FunctionType::kAlwaysWarm);
}

TEST(CategorizerTest, TinyIdleShareIsStillAlwaysWarm) {
  // One idle slot in 2000 (< 1/1000 of the window).
  std::vector<uint32_t> counts(2000, 1);
  counts[777] = 0;
  EXPECT_EQ(CategorizeDeterministic(counts).type,
            FunctionType::kAlwaysWarm);
}

TEST(CategorizerTest, StrictPeriodIsRegularWithMedianValue) {
  const auto counts = Periodic(2000, 10);
  const PredictiveModel model =
      CategorizeDeterministic(counts);
  EXPECT_EQ(model.type, FunctionType::kRegular);
  ASSERT_EQ(model.values.size(), 1u);
  EXPECT_EQ(model.values[0], 9);  // WT between arrivals 10 apart is 9
}

TEST(CategorizerTest, FragmentedPeriodIsRegularAfterMerging) {
  // A daily timer whose gap is occasionally split by a stray event:
  // WTs look like (199, 150, 48, 199, ...) — merging restores 199.
  std::vector<uint32_t> counts(4000, 0);
  int t = 0;
  bool split = false;
  while (t < 4000) {
    counts[static_cast<size_t>(t)] = 1;
    if (split && t + 151 < 4000) {
      counts[static_cast<size_t>(t + 151)] = 1;  // stray mid-gap event
    }
    split = !split;
    t += 200;
  }
  const PredictiveModel model =
      CategorizeDeterministic(counts);
  EXPECT_EQ(model.type, FunctionType::kRegular);
}

TEST(CategorizerTest, QuasiPeriodicIsApproRegular) {
  // Gaps cycle 3-4-5: three modes cover 100% of WTs but the percentile
  // band is 2 and the CV is large, so it is appro-regular, not regular.
  std::vector<uint32_t> counts(3000, 0);
  int t = 0;
  int k = 0;
  const int gaps[3] = {4, 5, 6};
  while (t < 3000) {
    counts[static_cast<size_t>(t)] = 1;
    t += gaps[k % 3];
    ++k;
  }
  const PredictiveModel model =
      CategorizeDeterministic(counts);
  EXPECT_EQ(model.type, FunctionType::kApproRegular);
  EXPECT_FALSE(model.values.empty());
}

TEST(CategorizerTest, FrequentIrregularIsDense) {
  // Mostly 2-minute gaps with ~8% 6-minute lulls: P90(WT) = 1 <= 2 (dense)
  // but P95 - P5 = 4 and CV is large, so the regular rule does not fire.
  std::vector<uint32_t> counts(3000, 0);
  int t = 0;
  int k = 0;
  while (t < 3000) {
    counts[static_cast<size_t>(t)] = 1 + static_cast<uint32_t>(k % 3);
    t += (k % 12 == 11) ? 6 : 2;
    ++k;
  }
  const PredictiveModel model =
      CategorizeDeterministic(counts);
  EXPECT_EQ(model.type, FunctionType::kDense);
  EXPECT_TRUE(model.continuous);
  EXPECT_LE(model.range_lo, model.range_hi);
}

TEST(CategorizerTest, BurstyWavesAreSuccessive) {
  // Waves of 4 consecutive active slots with >= 8 arrivals, IRREGULARLY
  // spaced (regular spacing would satisfy the higher-priority regular
  // rule on the WT sequence).
  std::vector<uint32_t> counts(8000, 0);
  const int starts[8] = {200, 650, 1800, 2200, 3900, 4350, 6100, 7500};
  for (int start : starts) {
    for (int s = 0; s < 4; ++s) {
      counts[static_cast<size_t>(start + s)] = 3;
    }
  }
  const PredictiveModel model =
      CategorizeDeterministic(counts);
  EXPECT_EQ(model.type, FunctionType::kSuccessive);
}

TEST(CategorizerTest, ShortWavesAreNotSuccessive) {
  // 1-slot waves: min(AT) < gamma1.
  std::vector<uint32_t> counts(6000, 0);
  for (int wave = 0; wave < 8; ++wave) {
    counts[static_cast<size_t>(200 + wave * 700)] = 9;
  }
  EXPECT_NE(CategorizeDeterministic(counts).type,
            FunctionType::kSuccessive);
}

TEST(CategorizerTest, PriorityRegularBeatsDense) {
  // A strict 2-minute period also satisfies the dense test, but the
  // regular definition has priority.
  const auto counts = Periodic(2000, 2);
  EXPECT_EQ(CategorizeDeterministic(counts).type,
            FunctionType::kRegular);
}

TEST(CategorizerTest, SparseRandomIsUnknown) {
  std::vector<uint32_t> counts(20000, 0);
  counts[123] = 1;
  counts[7777] = 1;
  counts[15000] = 1;
  EXPECT_EQ(CategorizeDeterministic(counts).type,
            FunctionType::kUnknown);
}

TEST(CategorizerForgettingTest, RecoversPostShiftRegularity) {
  const std::vector<uint32_t> counts = ShiftedWorkload();
  EXPECT_EQ(CategorizeDeterministic(counts).type, FunctionType::kUnknown);
  const PredictiveModel model = CategorizeWithForgetting(counts);
  EXPECT_EQ(model.type, FunctionType::kRegular);
  EXPECT_GT(model.forgotten_prefix_minutes, 0);
}

TEST(FitPossibleModelTest, RepeatedWtsBecomePredictiveValues) {
  const std::vector<int64_t> wts = {360, 1440, 360, 77, 1440, 360};
  const PredictiveModel model = FitPossibleModel(wts);
  EXPECT_EQ(model.type, FunctionType::kPossible);
  ASSERT_EQ(model.values.size(), 2u);
  EXPECT_EQ(model.values[0], 360);
  EXPECT_EQ(model.values[1], 1440);
  EXPECT_FALSE(model.continuous);  // range 1080 > threshold
}

TEST(FitPossibleModelTest, NarrowRangeBecomesContinuous) {
  const std::vector<int64_t> wts = {30, 32, 30, 32, 31, 31};
  const PredictiveModel model = FitPossibleModel(wts);
  EXPECT_EQ(model.type, FunctionType::kPossible);
  EXPECT_TRUE(model.continuous);
  EXPECT_EQ(model.range_lo, 30);
  EXPECT_EQ(model.range_hi, 32);
}

TEST(FitPossibleModelTest, NoRepeatsMeansUnknown) {
  EXPECT_EQ(FitPossibleModel({5, 9, 100}).type,
            FunctionType::kUnknown);
}

// The one "predicted near" rule SpesPolicy's pre-load and the possible
// replay share: the window is closed at theta on both sides.
TEST(PredictsNearTest, DiscreteValuesWindowIsClosedAtTheta) {
  PredictiveModel model;
  model.values = {30, 300};
  const int64_t last = 1000;
  for (const int theta : {0, 2, 7}) {
    for (const int64_t v : model.values) {
      const int64_t predicted = last + v;
      EXPECT_TRUE(model.PredictsNear(last, predicted - theta, theta));
      EXPECT_TRUE(model.PredictsNear(last, predicted + theta, theta));
      EXPECT_FALSE(model.PredictsNear(last, predicted - theta - 1, theta));
      EXPECT_FALSE(model.PredictsNear(last, predicted + theta + 1, theta));
    }
  }
  // The widest pre-load window a spec can set does not overflow.
  const int theta = std::numeric_limits<int>::max();
  model.values = {30};
  EXPECT_TRUE(model.PredictsNear(last, last + 30 + theta, theta));
  EXPECT_FALSE(model.PredictsNear(last, last + 30 + theta + 1, theta));
  EXPECT_FALSE(PredictiveModel{}.PredictsNear(last, last, 5));  // no values
}

TEST(PredictsNearTest, ContinuousRangeWindowIsClosedAtTheta) {
  PredictiveModel model;
  model.continuous = true;
  model.range_lo = 28;
  model.range_hi = 32;
  model.values = {1};  // ignored by a continuous model
  const int64_t last = 1000;
  // INT_MAX: the widest pre-load window a spec can set does not overflow.
  for (const int theta : {0, 2, 7, std::numeric_limits<int>::max()}) {
    const int64_t lo = last + model.range_lo, hi = last + model.range_hi;
    EXPECT_TRUE(model.PredictsNear(last, lo - theta, theta));
    EXPECT_TRUE(model.PredictsNear(last, hi + theta, theta));
    EXPECT_FALSE(model.PredictsNear(last, lo - theta - 1, theta));
    EXPECT_FALSE(model.PredictsNear(last, hi + theta + 1, theta));
  }
}

TEST(WtsLookRegularTest, BandAndCvRules) {
  EXPECT_TRUE(WtsLookRegular({10, 10, 10, 11}));   // band <= 1
  EXPECT_FALSE(WtsLookRegular({10, 20, 30, 40}));  // wide band
  EXPECT_FALSE(WtsLookRegular({}));
  // CV rule: large but nearly constant values with band > 1 need CV small.
  std::vector<int64_t> wts(200, 1000);
  wts[0] = 1003;  // band 3 but tiny CV
  EXPECT_TRUE(WtsLookRegular(wts));
}

class PeriodSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(PeriodSweepTest, AnyStrictPeriodIsRegular) {
  const int period = GetParam();
  const auto counts = Periodic(8 * period + 1, period);
  const PredictiveModel model =
      CategorizeDeterministic(counts);
  EXPECT_EQ(model.type, FunctionType::kRegular) << "period " << period;
  ASSERT_FALSE(model.values.empty());
  EXPECT_EQ(model.values[0], period - 1);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PeriodSweepTest,
                         ::testing::Values(3, 5, 7, 15, 60, 240, 1440));

}  // namespace
}  // namespace spes
