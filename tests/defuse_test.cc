#include "policies/defuse.h"

#include <gtest/gtest.h>

#include "sim/engine.h"
#include "tests/make_trace.h"

namespace spes {
namespace {

TEST(DefuseTest, MinesChainDependency) {
  // B fires 2 minutes after A, 50+ times in training.
  const int horizon = 2 * kMinutesPerDay;
  std::vector<uint32_t> a(static_cast<size_t>(horizon), 0);
  std::vector<uint32_t> b(static_cast<size_t>(horizon), 0);
  for (int t = 0; t + 2 < horizon; t += 25) {
    a[static_cast<size_t>(t)] = 1;
    b[static_cast<size_t>(t + 2)] = 1;
  }
  Trace trace = MakeTrace({std::move(a), std::move(b)}, {"app", "app"});
  DefusePolicy policy;
  SimOptions options;
  options.train_minutes = kMinutesPerDay;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  // A -> B must be mined.
  ASSERT_FALSE(policy.successors()[0].empty());
  EXPECT_EQ(policy.successors()[0][0], 1u);
  // B is pre-warmed by A's arrivals: essentially no cold starts.
  EXPECT_LE(outcome.ValueOrDie().accounts[1].ColdStartRate(), 0.02);
}

TEST(DefuseTest, NoDependencyAcrossApps) {
  const int horizon = kMinutesPerDay;
  std::vector<uint32_t> a(static_cast<size_t>(horizon), 0);
  std::vector<uint32_t> b(static_cast<size_t>(horizon), 0);
  for (int t = 0; t + 2 < horizon; t += 25) {
    a[static_cast<size_t>(t)] = 1;
    b[static_cast<size_t>(t + 2)] = 1;
  }
  Trace trace = MakeTrace({std::move(a), std::move(b)}, {"app1", "app2"});
  DefusePolicy policy;
  policy.Train(trace, horizon);
  EXPECT_TRUE(policy.successors()[0].empty());
}

TEST(DefuseTest, LowConfidencePairsNotLinked) {
  // B follows A only 20% of the time.
  const int horizon = 2 * kMinutesPerDay;
  std::vector<uint32_t> a(static_cast<size_t>(horizon), 0);
  std::vector<uint32_t> b(static_cast<size_t>(horizon), 0);
  int k = 0;
  for (int t = 0; t + 2 < horizon; t += 25) {
    a[static_cast<size_t>(t)] = 1;
    if (++k % 5 == 0) b[static_cast<size_t>(t + 2)] = 1;
  }
  Trace trace = MakeTrace({std::move(a), std::move(b)}, {"app", "app"});
  DefusePolicy policy;
  policy.Train(trace, horizon);
  EXPECT_TRUE(policy.successors()[0].empty());
}

TEST(DefuseTest, SparseFunctionsUseFallback) {
  const int horizon = kMinutesPerDay;
  std::vector<uint32_t> sparse(static_cast<size_t>(horizon), 0);
  sparse[10] = 1;
  sparse[500] = 1;
  Trace trace = MakeTrace({std::move(sparse)}, {"app"});
  DefusePolicy policy;
  policy.Train(trace, horizon);
  EXPECT_EQ(policy.CountFallbackFunctions(), 1);
}

TEST(DefuseTest, HistogramKeepAliveCoversRegularGaps) {
  const int horizon = 3 * kMinutesPerDay;
  std::vector<uint32_t> counts(static_cast<size_t>(horizon), 0);
  for (int t = 0; t < horizon; t += 12) counts[static_cast<size_t>(t)] = 1;
  Trace trace = MakeTrace({std::move(counts)}, {"app"});
  DefusePolicy policy;
  SimOptions options;
  options.train_minutes = 2 * kMinutesPerDay;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  // Defuse keeps the instance alive through the P99 IAT (12 min), so all
  // simulated arrivals are warm.
  EXPECT_LE(outcome.ValueOrDie().accounts[0].ColdStartRate(), 0.01);
}

}  // namespace
}  // namespace spes
