#include "policies/fixed_keepalive.h"

#include <gtest/gtest.h>

#include "sim/engine.h"
#include "tests/make_trace.h"

namespace spes {
namespace {

TEST(FixedKeepAliveTest, NameIncludesWindow) {
  EXPECT_EQ(FixedKeepAlivePolicy(10).name(), "Fixed-10min");
  EXPECT_EQ(FixedKeepAlivePolicy(3).name(), "Fixed-3min");
}

TEST(FixedKeepAliveTest, ClampsNonPositiveWindow) {
  EXPECT_EQ(FixedKeepAlivePolicy(0).keepalive_minutes(), 1);
  EXPECT_EQ(FixedKeepAlivePolicy(-5).keepalive_minutes(), 1);
}

TEST(FixedKeepAliveTest, ArrivalWithinWindowIsWarm) {
  // Arrivals 3 minutes apart with a 5-minute keep-alive: warm after first.
  std::vector<uint32_t> counts(30, 0);
  for (int t = 0; t < 30; t += 3) counts[static_cast<size_t>(t)] = 1;
  Trace trace = MakeTrace({std::move(counts)});
  FixedKeepAlivePolicy policy(5);
  SimOptions options;
  options.train_minutes = 0;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.ValueOrDie().accounts[0].cold_starts, 1u);
}

TEST(FixedKeepAliveTest, ArrivalBeyondWindowIsCold) {
  // Arrivals 10 minutes apart with a 5-minute keep-alive: every one cold.
  std::vector<uint32_t> counts(60, 0);
  for (int t = 0; t < 60; t += 10) counts[static_cast<size_t>(t)] = 1;
  Trace trace = MakeTrace({std::move(counts)});
  FixedKeepAlivePolicy policy(5);
  SimOptions options;
  options.train_minutes = 0;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.ValueOrDie().accounts[0].cold_starts, 6u);
}

TEST(FixedKeepAliveTest, WastedMinutesEqualKeepAliveTail) {
  // A single arrival then silence: the instance idles keepalive-1 minutes
  // after its execution minute before eviction.
  std::vector<uint32_t> counts(30, 0);
  counts[2] = 1;
  Trace trace = MakeTrace({std::move(counts)});
  FixedKeepAlivePolicy policy(7);
  SimOptions options;
  options.train_minutes = 0;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  const FunctionAccount& acc = outcome.ValueOrDie().accounts[0];
  EXPECT_EQ(acc.cold_starts, 1u);
  EXPECT_EQ(acc.wasted_minutes, 6u);
  EXPECT_EQ(acc.loaded_minutes, 7u);
}

TEST(FixedKeepAliveTest, LargerWindowNeverIncreasesColdStarts) {
  std::vector<uint32_t> counts(500, 0);
  for (int t = 0; t < 500; t += 13) counts[static_cast<size_t>(t)] = 1;
  Trace trace = MakeTrace({std::move(counts)});
  uint64_t prev_cold = UINT64_MAX;
  for (int window : {1, 5, 10, 20, 40}) {
    FixedKeepAlivePolicy policy(window);
    SimOptions options;
    options.train_minutes = 0;
    const auto outcome = Simulate(trace, &policy, options);
    ASSERT_TRUE(outcome.ok());
    const uint64_t cold = outcome.ValueOrDie().accounts[0].cold_starts;
    EXPECT_LE(cold, prev_cold) << "window " << window;
    prev_cold = cold;
  }
}

}  // namespace
}  // namespace spes
