#include "policies/hybrid_histogram.h"

#include <gtest/gtest.h>

#include "sim/engine.h"
#include "tests/make_trace.h"

namespace spes {
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

}  // namespace
}  // namespace spes
