#include "policies/hybrid_histogram.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "tests/make_trace.h"
#include "tests/same_outcome.h"
#include "trace/generator.h"

namespace spes {

/// Train's offline pass walked minute-major: every unit visited at every
/// training minute. HybridHistogramPolicy::Train walks unit-major; each
/// unit records the same IATs in the same order, so both must leave the
/// same histograms and simulate identically.
class MinuteMajorHybridPolicy : public HybridHistogramPolicy {
 public:
  using HybridHistogramPolicy::HybridHistogramPolicy;

  void Train(const Trace& trace, int train_minutes) override {
    HybridHistogramPolicy::Train(trace, 0);  // the units, no IATs yet
    std::vector<int> last(units_.size(), -1);
    for (int t = 0; t < train_minutes; ++t) {
      for (size_t u = 0; u < units_.size(); ++u) {
        bool arrived = false;
        for (uint32_t f : functions_of_unit_[u]) {
          if (trace.function(f).counts[static_cast<size_t>(t)] > 0) {
            arrived = true;
            break;
          }
        }
        if (!arrived) continue;
        if (last[u] >= 0) units_[u].histogram.Record(t - last[u]);
        last[u] = t;
      }
    }
    for (UnitState& unit : units_) RefreshWindow(&unit);
  }

  /// Every unit's recorded IAT count, in unit order.
  static std::vector<int64_t> UnitIatCounts(
      const HybridHistogramPolicy& policy) {
    std::vector<int64_t> counts;
    for (const UnitState& unit : policy.units_) {
      counts.push_back(unit.histogram.TotalCount());
    }
    return counts;
  }
};

namespace {

std::vector<uint32_t> PeriodicRow(int n, int period) {
  std::vector<uint32_t> counts(static_cast<size_t>(n), 0);
  for (int t = 0; t < n; t += period) counts[static_cast<size_t>(t)] = 1;
  return counts;
}

TEST(HybridHistogramTest, Names) {
  EXPECT_EQ(
      HybridHistogramPolicy(HybridGranularity::kApplication,
                            kHybridFallbackKeepAliveMinutes)
          .name(),
      "Hybrid-Application");
  EXPECT_EQ(HybridHistogramPolicy(HybridGranularity::kFunction,
                                  kHybridFallbackKeepAliveMinutes)
                .name(),
            "Hybrid-Function");
}

TEST(HybridHistogramTest, PeriodicFunctionGetsPrewarmedNotColdStarted) {
  // 30-minute period, 2 days training + replay.
  const int horizon = 3 * kMinutesPerDay;
  Trace trace = MakeTrace({PeriodicRow(horizon, 30)}, {"a0"});
  HybridHistogramPolicy policy(HybridGranularity::kFunction,
                               kHybridFallbackKeepAliveMinutes);
  SimOptions options;
  options.train_minutes = 2 * kMinutesPerDay;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  const FunctionAccount& acc = outcome.ValueOrDie().accounts[0];
  // With a representative histogram the policy pre-warms near the head
  // percentile, so nearly every arrival is warm.
  EXPECT_LE(acc.ColdStartRate(), 0.05);
  // But it should NOT keep the instance loaded the whole time.
  EXPECT_LT(acc.loaded_minutes,
            static_cast<uint64_t>(kMinutesPerDay));
}

TEST(HybridHistogramTest, SparseFunctionFallsBackToFixedWindow) {
  const int horizon = 2 * kMinutesPerDay;
  std::vector<uint32_t> sparse(static_cast<size_t>(horizon), 0);
  sparse[100] = 1;                    // training
  sparse[kMinutesPerDay + 500] = 1;   // simulation
  Trace trace = MakeTrace({std::move(sparse)}, {"a0"});
  HybridHistogramPolicy policy(HybridGranularity::kFunction,
                               kHybridFallbackKeepAliveMinutes);
  SimOptions options;
  options.train_minutes = kMinutesPerDay;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(policy.CountFallbackUnits(), 1);
  const FunctionAccount& acc = outcome.ValueOrDie().accounts[0];
  // The lone simulated arrival is cold; afterwards the fallback window
  // keeps the instance loaded for the standard 20-minute window.
  EXPECT_EQ(acc.cold_starts, 1u);
  EXPECT_EQ(acc.loaded_minutes, 20u);
}

TEST(HybridHistogramTest, ApplicationGranularitySharesWarmth) {
  // Two functions of one app alternate; at app granularity each arrival
  // keeps the *app* warm so both functions stay loaded.
  const int horizon = 2 * kMinutesPerDay;
  std::vector<uint32_t> a(static_cast<size_t>(horizon), 0);
  std::vector<uint32_t> b(static_cast<size_t>(horizon), 0);
  for (int t = 0; t < horizon; t += 20) {
    a[static_cast<size_t>(t)] = 1;
    if (t + 10 < horizon) b[static_cast<size_t>(t + 10)] = 1;
  }
  Trace trace = MakeTrace({std::move(a), std::move(b)}, {"app"});
  HybridHistogramPolicy policy(HybridGranularity::kApplication,
                               kHybridFallbackKeepAliveMinutes);
  SimOptions options;
  options.train_minutes = kMinutesPerDay;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  const auto& accounts = outcome.ValueOrDie().accounts;
  // The app-level IAT is 10 minutes: both functions nearly always warm.
  EXPECT_LE(accounts[0].ColdStartRate(), 0.02);
  EXPECT_LE(accounts[1].ColdStartRate(), 0.02);
}

TEST(HybridHistogramTest, ApplicationGranularityUsesMoreMemory) {
  // Function-level scheduling should not load the app's idle sibling.
  const int horizon = 2 * kMinutesPerDay;
  std::vector<uint32_t> busy(static_cast<size_t>(horizon), 0);
  for (int t = 0; t < horizon; t += 15) busy[static_cast<size_t>(t)] = 1;
  std::vector<uint32_t> silent(static_cast<size_t>(horizon), 0);
  silent[50] = 1;  // one arrival in training only

  SimOptions options;
  options.train_minutes = kMinutesPerDay;

  Trace trace_ha =
      MakeTrace({busy, silent}, {"app"});
  HybridHistogramPolicy ha(HybridGranularity::kApplication,
                           kHybridFallbackKeepAliveMinutes);
  const auto out_ha = Simulate(trace_ha, &ha, options);
  ASSERT_TRUE(out_ha.ok());

  Trace trace_hf = MakeTrace({busy, silent}, {"app"});
  HybridHistogramPolicy hf(HybridGranularity::kFunction,
                           kHybridFallbackKeepAliveMinutes);
  const auto out_hf = Simulate(trace_hf, &hf, options);
  ASSERT_TRUE(out_hf.ok());

  EXPECT_GT(out_ha.ValueOrDie().metrics.average_memory,
            out_hf.ValueOrDie().metrics.average_memory);
}

TEST(HybridHistogramTest, OnlineUpdatesAdaptToNewPeriod) {
  // Training shows a 60-minute period; the simulation switches to 15.
  const int horizon = 4 * kMinutesPerDay;
  const int train = 2 * kMinutesPerDay;
  std::vector<uint32_t> counts(static_cast<size_t>(horizon), 0);
  for (int t = 0; t < train; t += 60) counts[static_cast<size_t>(t)] = 1;
  for (int t = train; t < horizon; t += 15) {
    counts[static_cast<size_t>(t)] = 1;
  }
  Trace trace = MakeTrace({std::move(counts)}, {"a0"});
  HybridHistogramPolicy policy(HybridGranularity::kFunction,
                               kHybridFallbackKeepAliveMinutes);
  SimOptions options;
  options.train_minutes = train;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  // The histogram absorbs the new 15-minute IATs online, so cold starts
  // stay rare despite the shift.
  EXPECT_LE(outcome.ValueOrDie().accounts[0].ColdStartRate(), 0.25);
}

TEST(HybridHistogramTest, UnitMajorTrainMatchesMinuteMajorPass) {
  GeneratorConfig dense;
  dense.num_functions = 300;
  dense.days = 3;
  dense.seed = 21;
  GeneratorConfig chains = dense;
  chains.seed = 22;
  chains.chain_app_fraction = 0.9;
  SimOptions options;
  options.train_minutes = 2 * kMinutesPerDay;
  for (const GeneratorConfig& config : {dense, chains}) {
    const Trace trace = std::move(GenerateTrace(config).ValueOrDie().trace);
    for (HybridGranularity granularity :
         {HybridGranularity::kFunction, HybridGranularity::kApplication}) {
      HybridHistogramPolicy policy(granularity,
                                   kHybridFallbackKeepAliveMinutes);
      MinuteMajorHybridPolicy reference(granularity,
                                        kHybridFallbackKeepAliveMinutes);
      const auto outcome = Simulate(trace, &policy, options);
      const auto expected = Simulate(trace, &reference, options);
      ASSERT_TRUE(outcome.ok());
      ASSERT_TRUE(expected.ok());
      const std::string context =
          policy.name() + " on seed " + std::to_string(config.seed);
      ExpectSameOutcome(outcome.ValueOrDie(), expected.ValueOrDie(),
                        context);
      EXPECT_EQ(MinuteMajorHybridPolicy::UnitIatCounts(policy),
                MinuteMajorHybridPolicy::UnitIatCounts(reference))
          << context;
      // Both paths must be exercised: histogram-driven and fallback units.
      EXPECT_EQ(policy.CountFallbackUnits(), reference.CountFallbackUnits())
          << context;
      const size_t units = granularity == HybridGranularity::kFunction
                               ? trace.num_functions()
                               : trace.GroupByApp().size();
      EXPECT_GT(policy.CountFallbackUnits(), 0) << context;
      EXPECT_LT(policy.CountFallbackUnits(), static_cast<int64_t>(units))
          << context;
    }
  }
}

}  // namespace
}  // namespace spes
