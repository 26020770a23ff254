#include "policies/faascache.h"

#include <gtest/gtest.h>

#include "sim/engine.h"
#include "tests/make_trace.h"

namespace spes {
namespace {

TEST(FaasCacheTest, CapacityClampedToOne) {
  EXPECT_EQ(FaasCachePolicy(0).capacity(), 1u);
}

TEST(FaasCacheTest, KeepsEverythingUnderCapacity) {
  Trace trace = MakeTrace({{1, 0, 0, 0, 1}, {0, 1, 0, 0, 0}});
  FaasCachePolicy policy(10);
  SimOptions options;
  options.train_minutes = 0;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  // No memory pressure: nothing evicted, second arrival of f0 is warm.
  EXPECT_EQ(outcome.ValueOrDie().accounts[0].cold_starts, 1u);
}

TEST(FaasCacheTest, EnforcesCapacity) {
  // Three functions, capacity 2: after every minute at most 2 loaded.
  Trace trace = MakeTrace({{1, 0, 0, 1, 0, 0},
                           {0, 1, 0, 0, 1, 0},
                           {0, 0, 1, 0, 0, 1}});
  FaasCachePolicy policy(2);
  SimOptions options;
  options.train_minutes = 0;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  for (uint32_t used : outcome.ValueOrDie().memory_series) {
    EXPECT_LE(used, 2u);
  }
}

TEST(FaasCacheTest, EvictsLowFrequencyVictimFirst) {
  // f0 is hot (fires every minute), f1 fired once, f2 arrives under
  // capacity pressure: the GDSF victim must be f1, not hot f0.
  const int horizon = 12;
  std::vector<uint32_t> hot(horizon, 1);
  std::vector<uint32_t> once(horizon, 0);
  once[0] = 1;
  std::vector<uint32_t> late(horizon, 0);
  late[5] = 1;
  Trace trace = MakeTrace({hot, once, late});
  FaasCachePolicy policy(2);
  SimOptions options;
  options.train_minutes = 0;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  const auto& accounts = outcome.ValueOrDie().accounts;
  // Hot f0 cold only at t=0.
  EXPECT_EQ(accounts[0].cold_starts, 1u);
  // f1 was evicted when f2 arrived; it stays out afterwards.
  EXPECT_EQ(accounts[1].loaded_minutes + accounts[2].loaded_minutes +
                accounts[0].loaded_minutes,
            outcome.ValueOrDie().metrics.loaded_instance_minutes);
}

TEST(FaasCacheTest, ClockAgesOnEviction) {
  Trace trace = MakeTrace({{1, 1, 0, 0}, {0, 1, 1, 0}, {0, 0, 1, 1}});
  FaasCachePolicy policy(2);
  SimOptions options;
  options.train_minutes = 0;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(policy.clock(), 0.0);
}

TEST(FaasCacheTest, NeverEvictsExecutingFunctions) {
  // Capacity 1 but two functions fire in the same minute: both must be
  // loaded that minute (executions are pinned); the cap re-applies later.
  Trace trace = MakeTrace({{1, 0, 0}, {1, 0, 0}});
  FaasCachePolicy policy(1);
  SimOptions options;
  options.train_minutes = 0;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.ValueOrDie().memory_series[0], 2u);
  EXPECT_LE(outcome.ValueOrDie().memory_series[1], 1u);
}

}  // namespace
}  // namespace spes
