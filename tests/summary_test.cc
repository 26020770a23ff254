#include "trace/summary.h"

#include <gtest/gtest.h>

#include "trace/generator.h"
#include "tests/make_trace.h"

namespace spes {
namespace {

TEST(InvocationHistogramTest, DecadeBuckets) {
  // Totals: 0, 5, 50, 500.
  Trace trace = MakeTrace({
      std::vector<uint32_t>(1000, 0),
      [] { std::vector<uint32_t> v(1000, 0); for (int i = 0; i < 5; ++i) v[static_cast<size_t>(i * 7)] = 1; return v; }(),
      [] { std::vector<uint32_t> v(1000, 0); for (int i = 0; i < 50; ++i) v[static_cast<size_t>(i * 3)] = 1; return v; }(),
      [] { std::vector<uint32_t> v(1000, 0); for (int i = 0; i < 500; ++i) v[static_cast<size_t>(i)] = 1; return v; }(),
  }, {"a"}, {TriggerType::kHttp});
  const InvocationHistogram hist = ComputeInvocationHistogram(trace);
  EXPECT_EQ(hist.zero_functions, 1);
  EXPECT_EQ(hist.total_functions, 4);
  ASSERT_GE(hist.buckets.size(), 3u);
  EXPECT_EQ(hist.buckets[0], 1);  // 5 in [1,10)
  EXPECT_EQ(hist.buckets[1], 1);  // 50 in [10,100)
  EXPECT_EQ(hist.buckets[2], 1);  // 500 in [100,1000)
  EXPECT_EQ(hist.total_invocations, 555u);
}

TEST(TriggerMixTest, SumsToOne) {
  const auto generated = [&] {
    GeneratorConfig config;
    config.num_functions = 500;
    config.days = 2;
    return GenerateTrace(config).ValueOrDie();
  }();
  const auto mix = ComputeTriggerMix(generated.trace);
  double sum = 0;
  for (double m : mix) sum += m;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ConceptShiftExamplesTest, FindsInjectedShift) {
  // One function goes from busy to silent at half-time.
  std::vector<uint32_t> shifting(2000, 0);
  for (int t = 0; t < 1000; ++t) shifting[static_cast<size_t>(t)] = 1;
  std::vector<uint32_t> steady(2000, 1);
  Trace trace = MakeTrace({shifting, steady}, {"a"}, {TriggerType::kHttp});
  const auto examples = FindConceptShiftExamples(trace, 1);
  ASSERT_EQ(examples.size(), 1u);
  EXPECT_EQ(examples[0], 0u);
}

TEST(TemporalLocalityExamplesTest, PrefersConcentratedRuns) {
  // Concentrated: 30 invocations in 3 runs of 10 consecutive slots.
  std::vector<uint32_t> bursty(10000, 0);
  for (int run = 0; run < 3; ++run) {
    for (int s = 0; s < 10; ++s) {
      bursty[static_cast<size_t>(1000 + run * 3000 + s)] = 1;
    }
  }
  // Spread: 30 singleton invocations far apart.
  std::vector<uint32_t> spread(10000, 0);
  for (int k = 0; k < 30; ++k) spread[static_cast<size_t>(k * 320)] = 1;
  Trace trace = MakeTrace({bursty, spread}, {"a"}, {TriggerType::kHttp});
  const auto examples = FindTemporalLocalityExamples(trace, 5, 10, 100);
  ASSERT_EQ(examples.size(), 1u);
  EXPECT_EQ(examples[0], 0u);
}

TEST(BinSeriesTest, SumsPreserved) {
  std::vector<uint32_t> counts(100);
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<uint32_t>(i % 3);
  }
  const auto bins = BinSeries(counts, 10);
  ASSERT_EQ(bins.size(), 10u);
  uint64_t total_bins = 0, total_counts = 0;
  for (uint64_t b : bins) total_bins += b;
  for (uint32_t c : counts) total_counts += c;
  EXPECT_EQ(total_bins, total_counts);
}

TEST(BinSeriesTest, EmptyInput) {
  const auto bins = BinSeries({}, 5);
  ASSERT_EQ(bins.size(), 5u);
  for (uint64_t b : bins) EXPECT_EQ(b, 0u);
}

}  // namespace
}  // namespace spes
