#include "common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"

namespace spes {
namespace {

TEST(StatsTest, MeanBasics) {
  EXPECT_DOUBLE_EQ(Mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(Mean(std::vector<double>{2.0, 4.0}), 3.0);
  EXPECT_DOUBLE_EQ(Mean(std::vector<int64_t>{1, 2, 3}), 2.0);
}

TEST(StatsTest, StdDevBasics) {
  EXPECT_DOUBLE_EQ(StdDev(std::vector<int64_t>{5}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev(std::vector<int64_t>{3, 3, 3}), 0.0);
  // Population stddev of {2, 4} is 1.
  EXPECT_DOUBLE_EQ(StdDev(std::vector<int64_t>{2, 4}), 1.0);
}

TEST(StatsTest, CoefficientOfVariation) {
  EXPECT_DOUBLE_EQ(CoefficientOfVariation({10, 10, 10}), 0.0);
  const double cv = CoefficientOfVariation({8, 12});
  EXPECT_NEAR(cv, 2.0 / 10.0, 1e-12);
  EXPECT_DOUBLE_EQ(CoefficientOfVariation({}), 0.0);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<int64_t> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 25.0), 2.0);
  // numpy.percentile([1,2,3,4,5], 10) == 1.4
  EXPECT_NEAR(Percentile(xs, 10.0), 1.4, 1e-12);
}

TEST(StatsTest, PercentileUnsortedInput) {
  std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 50.0), 3.0);
}

TEST(StatsTest, PercentileEmpty) {
  EXPECT_DOUBLE_EQ(Percentile(std::vector<int64_t>{}, 50.0), 0.0);
}

TEST(StatsTest, MedianEvenCount) {
  EXPECT_DOUBLE_EQ(Median({1, 2, 3, 4}), 2.5);
}

TEST(StatsTest, TopModesOrderedByCountThenValue) {
  std::vector<int64_t> xs = {5, 5, 5, 2, 2, 9, 9, 1};
  const auto modes = TopModes(xs, 3);
  ASSERT_EQ(modes.size(), 3u);
  EXPECT_EQ(modes[0].value, 5);
  EXPECT_EQ(modes[0].count, 3);
  // 2 and 9 tie on count; smaller value first.
  EXPECT_EQ(modes[1].value, 2);
  EXPECT_EQ(modes[2].value, 9);
}

TEST(StatsTest, TopModesHandlesSmallInputs) {
  EXPECT_TRUE(TopModes({}, 3).empty());
  EXPECT_TRUE(TopModes({1, 2, 3}, 0).empty());
  const auto modes = TopModes({7}, 5);
  ASSERT_EQ(modes.size(), 1u);
  EXPECT_EQ(modes[0].value, 7);
}

TEST(StatsTest, RepeatedValuesFiltersSingletons) {
  const auto repeated = RepeatedValues({4, 4, 9, 1, 1, 1, 8});
  ASSERT_EQ(repeated.size(), 2u);
  EXPECT_EQ(repeated[0].value, 1);
  EXPECT_EQ(repeated[0].count, 3);
  EXPECT_EQ(repeated[1].value, 4);
}

TEST(StatsTest, RepeatedValuesEmptyWhenAllUnique) {
  EXPECT_TRUE(RepeatedValues({1, 2, 3}).empty());
}

TEST(StatsTest, FitLineRecoversExactLine) {
  std::vector<double> xs = {0, 1, 2, 3, 4};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(-0.5 * x + 2.0);
  const LinearFit fit = FitLine(xs, ys);
  EXPECT_NEAR(fit.slope, -0.5, 1e-12);
  EXPECT_NEAR(fit.intercept, 2.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(StatsTest, FitLineDegenerateInputs) {
  EXPECT_DOUBLE_EQ(FitLine({1.0}, {2.0}).slope, 0.0);
  // Vertical data: sxx == 0.
  EXPECT_DOUBLE_EQ(FitLine({2.0, 2.0}, {1.0, 3.0}).slope, 0.0);
}

TEST(HistogramTest, EmptyHistogram) {
  FixedBucketHistogram h;
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_EQ(h.Sum(), 0u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0u);
}

TEST(HistogramTest, SingleValueAllQuantiles) {
  FixedBucketHistogram h;
  h.Record(42);
  EXPECT_EQ(h.TotalCount(), 1u);
  EXPECT_EQ(h.Min(), 42u);
  EXPECT_EQ(h.Max(), 42u);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.ValueAtQuantile(q), 42u) << "q=" << q;
  }
}

TEST(HistogramTest, SmallValuesAreExact) {
  // Values below kSubBuckets land in unit buckets: quantiles are exact.
  FixedBucketHistogram h;
  for (uint64_t v = 0; v < FixedBucketHistogram::kSubBuckets; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.ValueAtQuantile(0.5), 15u);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 31u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Sum(), 31u * 32u / 2u);
}

TEST(HistogramTest, DuplicateValues) {
  FixedBucketHistogram h;
  h.RecordMany(1000, 99);
  h.Record(5000);
  EXPECT_EQ(h.TotalCount(), 100u);
  // 99% of mass sits at 1000: p50/p95 land in its bucket (relative error
  // bounded by the 1/32 sub-bucket width), p100 is the exact max.
  const uint64_t p50 = h.ValueAtQuantile(0.5);
  EXPECT_NEAR(static_cast<double>(p50), 1000.0, 1000.0 / 32.0 + 1.0);
  EXPECT_EQ(h.ValueAtQuantile(0.5), h.ValueAtQuantile(0.95));
  EXPECT_EQ(h.ValueAtQuantile(1.0), 5000u);
}

TEST(HistogramTest, QuantileRelativeErrorIsBounded) {
  FixedBucketHistogram h;
  for (uint64_t v = 1; v <= 100000; v += 7) h.Record(v);
  for (double q : {0.01, 0.25, 0.5, 0.75, 0.95, 0.99}) {
    const double exact = q * 100000.0;
    const double approx = static_cast<double>(h.ValueAtQuantile(q));
    // Bucket relative width is 1/32; the stride adds a little slack.
    EXPECT_NEAR(approx, exact, exact / 16.0 + 8.0) << "q=" << q;
  }
}

TEST(HistogramTest, MergeIsExact) {
  FixedBucketHistogram a;
  FixedBucketHistogram b;
  FixedBucketHistogram whole;
  for (uint64_t v = 0; v < 5000; ++v) {
    ((v % 3 == 0) ? a : b).Record(v * 13);
    whole.Record(v * 13);
  }
  a.Merge(b);
  EXPECT_EQ(a, whole);
}

TEST(HistogramTest, MergeWithEmpty) {
  FixedBucketHistogram a;
  a.Record(7);
  FixedBucketHistogram empty;
  FixedBucketHistogram merged = a;
  merged.Merge(empty);
  EXPECT_EQ(merged, a);
  empty.Merge(a);
  EXPECT_EQ(empty, a);
}

TEST(HistogramTest, SerializeRoundTrip) {
  FixedBucketHistogram h;
  h.RecordMany(3, 4);
  h.Record(123456789);
  h.Record(0);
  BinaryWriter w;
  h.SerializeTo(&w);
  const std::string bytes = w.Take();
  BinaryReader r(bytes);
  const Result<FixedBucketHistogram> parsed =
      FixedBucketHistogram::ParseFrom(&r);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.ValueOrDie(), h);
  EXPECT_TRUE(r.AtEnd());
}

TEST(HistogramTest, SerializeRoundTripEmpty) {
  FixedBucketHistogram h;
  BinaryWriter w;
  h.SerializeTo(&w);
  const std::string bytes = w.Take();
  BinaryReader r(bytes);
  const Result<FixedBucketHistogram> parsed =
      FixedBucketHistogram::ParseFrom(&r);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.ValueOrDie(), h);
}

TEST(HistogramTest, ParseRejectsCorruptBytes) {
  FixedBucketHistogram h;
  h.RecordMany(100, 10);
  BinaryWriter w;
  h.SerializeTo(&w);
  const std::string bytes = w.Take();
  // Truncations at every prefix must fail loudly, never crash.
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::string prefix = bytes.substr(0, len);
    BinaryReader r(prefix);
    const Result<FixedBucketHistogram> parsed =
        FixedBucketHistogram::ParseFrom(&r);
    if (parsed.ok()) {
      // A shorter prefix can only parse if it is not a strict prefix of
      // the canonical encoding — which varint framing rules out.
      ADD_FAILURE() << "truncated prefix of length " << len << " parsed";
    } else {
      EXPECT_FALSE(parsed.status().message().empty());
    }
  }
}

class PercentileMonotonicTest : public ::testing::TestWithParam<double> {};

TEST_P(PercentileMonotonicTest, PercentileIsMonotoneInP) {
  std::vector<int64_t> xs = {9, 1, 7, 3, 3, 8, 2, 10, 4};
  const double p = GetParam();
  EXPECT_LE(Percentile(xs, p), Percentile(xs, p + 5.0));
}

INSTANTIATE_TEST_SUITE_P(Sweep, PercentileMonotonicTest,
                         ::testing::Values(0.0, 5.0, 25.0, 50.0, 75.0, 90.0,
                                           95.0));

// The sort-based definition of Percentile(): numpy's linear interpolation
// over the fully sorted samples.
double SortedPercentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  if (p <= 0.0) return xs.front();
  if (p >= 100.0) return xs.back();
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= xs.size()) return xs.back();
  return xs[lo] + frac * (xs[lo + 1] - xs[lo]);
}

// Samples near +/-2^53 (where adjacent int64s share a double), small
// values with many duplicates, or the int64 extremes.
std::vector<int64_t> RandomSamples(Rng& rng, size_t size) {
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t shape = rng.UniformInt(0, 3);
  std::vector<int64_t> xs(size);
  for (int64_t& x : xs) {
    switch (shape) {
      case 0:
        x = rng.UniformInt(0, 4);  // heavy duplicates, count ties
        break;
      case 1:
        x = (rng.Bernoulli(0.5) ? kTwo53 : -kTwo53) + rng.UniformInt(-3, 3);
        break;
      case 2:
        x = rng.UniformInt(-1000, 1000);
        break;
      default:
        x = rng.Bernoulli(0.5) ? kMin + rng.UniformInt(0, 2)
                               : kMax - rng.UniformInt(0, 2);
        break;
    }
  }
  return xs;
}

TEST(StatsTest, PercentileSelectionMatchesTheSortDefinitionBitwise) {
  Rng rng(20261019);
  const double ps[] = {0.0, 5.0, 50.0, 90.0, 95.0, 100.0};
  for (int trial = 0; trial < 400; ++trial) {
    // Sizes 1-3 every trial, then a larger one.
    for (const size_t size : {size_t{1}, size_t{2}, size_t{3},
                              static_cast<size_t>(rng.UniformInt(4, 40))}) {
      const std::vector<int64_t> xs = RandomSamples(rng, size);
      const std::vector<double> ds(xs.begin(), xs.end());
      for (const double p : ps) {
        const double expected = SortedPercentile(ds, p);
        EXPECT_EQ(std::bit_cast<uint64_t>(Percentile(xs, p)),
                  std::bit_cast<uint64_t>(expected))
            << "int64 overload, size " << size << ", p " << p;
        EXPECT_EQ(std::bit_cast<uint64_t>(Percentile(ds, p)),
                  std::bit_cast<uint64_t>(expected))
            << "double overload, size " << size << ", p " << p;
      }
    }
  }
}

// ValueCounts must answer exactly as the vector functions SPES trains
// with, whether it was built one sample at a time or from a whole vector.
void ExpectSameAsVectorFunctions(const ValueCounts& counts,
                                 const std::vector<int64_t>& xs) {
  ASSERT_EQ(counts.size(), xs.size());
  EXPECT_EQ(std::bit_cast<uint64_t>(counts.Median()),
            std::bit_cast<uint64_t>(Median(xs)));
  for (const int n : {-1, 0, 1, 2, 3, 5, static_cast<int>(xs.size())}) {
    EXPECT_EQ(counts.TopModes(n), TopModes(xs, n)) << "n = " << n;
  }
  EXPECT_EQ(counts.Repeated(), RepeatedValues(xs));
}

TEST(ValueCountsTest, MatchesTheVectorFunctionsOnRandomMultisets) {
  Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    // Odd and even sizes, a single sample included.
    const size_t size = static_cast<size_t>(rng.UniformInt(1, 30));
    const std::vector<int64_t> xs = RandomSamples(rng, size);
    ValueCounts added;
    std::vector<int64_t> prefix;
    for (const int64_t x : xs) {
      added.Add(x);
      prefix.push_back(x);
      ExpectSameAsVectorFunctions(added, prefix);
    }
    const ValueCounts built = ValueCounts::FromValues(xs);
    ExpectSameAsVectorFunctions(built, xs);
    EXPECT_EQ(built.runs(), added.runs());
    if (HasFailure()) return;
  }
}

TEST(ValueCountsTest, EmptyAndSingleValue) {
  const ValueCounts empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_DOUBLE_EQ(empty.Median(), 0.0);
  EXPECT_TRUE(empty.TopModes(3).empty());
  EXPECT_TRUE(empty.Repeated().empty());
  EXPECT_TRUE(ValueCounts::FromValues({}).runs().empty());

  ValueCounts one;
  for (int i = 0; i < 4; ++i) one.Add(-9);
  EXPECT_EQ(one.runs(), (std::vector<ModeEntry>{{-9, 4}}));
  EXPECT_DOUBLE_EQ(one.Median(), -9.0);
  EXPECT_EQ(one.Repeated(), (std::vector<ModeEntry>{{-9, 4}}));
}

TEST(ValueCountsTest, CountTiesBreakByAscendingValue) {
  const ValueCounts counts = ValueCounts::FromValues({9, 9, 2, 2, 5, 5, 7});
  EXPECT_EQ(counts.TopModes(2), (std::vector<ModeEntry>{{2, 2}, {5, 2}}));
  EXPECT_EQ(counts.Repeated(),
            (std::vector<ModeEntry>{{2, 2}, {5, 2}, {9, 2}}));
  EXPECT_DOUBLE_EQ(counts.Median(), 5.0);
}

}  // namespace
}  // namespace spes
