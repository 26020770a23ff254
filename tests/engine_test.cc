#include "sim/engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "policies/fixed_keepalive.h"
#include "policies/oracle.h"
#include "sim/accounting.h"
#include "tests/make_trace.h"

namespace spes {
namespace {

/// Policy that never keeps anything loaded: every arrival is cold.
class EvictAllPolicy : public Policy {
 public:
  std::string name() const override { return "EvictAll"; }
  void Train(const Trace& trace, int) override { n_ = trace.num_functions(); }
  void OnMinute(int, const std::vector<Invocation>&, MemSet* mem) override {
    for (size_t f = 0; f < n_; ++f) mem->Remove(f);
  }

 private:
  size_t n_ = 0;
};

/// Policy that keeps everything loaded forever.
class KeepAllPolicy : public Policy {
 public:
  std::string name() const override { return "KeepAll"; }
  void Train(const Trace& trace, int) override { n_ = trace.num_functions(); }
  void OnMinute(int, const std::vector<Invocation>&, MemSet* mem) override {
    for (size_t f = 0; f < n_; ++f) mem->Add(f);
  }

 private:
  size_t n_ = 0;
};

TEST(EngineTest, RejectsNullPolicy) {
  Trace trace = MakeTrace({{1, 0, 1}});
  EXPECT_FALSE(Simulate(trace, nullptr, SimOptions{0, 0, {}}).ok());
}

TEST(EngineTest, RejectsBadWindow) {
  Trace trace = MakeTrace({{1, 0, 1}});
  FixedKeepAlivePolicy policy(10);
  SimOptions options;
  options.train_minutes = 99;
  EXPECT_FALSE(Simulate(trace, &policy, options).ok());
}

TEST(EngineTest, WindowErrorsNameTheBadField) {
  Trace trace = MakeTrace({{1, 0, 1}});
  FixedKeepAlivePolicy policy(10);

  // Every window error carries the rejected value(s), not just the field
  // name, in the uniform `field (=value)` form.
  SimOptions negative_train;
  negative_train.train_minutes = -3;
  const auto train_result = Simulate(trace, &policy, negative_train);
  ASSERT_FALSE(train_result.ok());
  EXPECT_EQ(train_result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(train_result.status().message().find("train_minutes (=-3)"),
            std::string::npos);

  SimOptions end_before_train;
  end_before_train.train_minutes = 2;
  end_before_train.end_minute = 1;
  const auto end_result = Simulate(trace, &policy, end_before_train);
  ASSERT_FALSE(end_result.ok());
  EXPECT_EQ(end_result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(end_result.status().message().find("end_minute (=1)"),
            std::string::npos);
  EXPECT_NE(end_result.status().message().find("train_minutes (=2)"),
            std::string::npos);

  SimOptions negative_end;
  negative_end.train_minutes = 0;
  negative_end.end_minute = -7;
  const auto negative_end_result = Simulate(trace, &policy, negative_end);
  ASSERT_FALSE(negative_end_result.ok());
  EXPECT_NE(negative_end_result.status().message().find("end_minute (=-7)"),
            std::string::npos);

  SimOptions beyond_horizon;
  beyond_horizon.train_minutes = 99;
  const auto horizon_result = Simulate(trace, &policy, beyond_horizon);
  ASSERT_FALSE(horizon_result.ok());
  EXPECT_NE(horizon_result.status().message().find("train_minutes (=99)"),
            std::string::npos);
  EXPECT_NE(horizon_result.status().message().find("trace horizon (=3"),
            std::string::npos);
}

TEST(EngineTest, EvictAllMakesEveryIsolatedArrivalCold) {
  Trace trace = MakeTrace({{1, 1, 0, 2, 0, 1}});
  EvictAllPolicy policy;
  SimOptions options;
  options.train_minutes = 0;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  const FunctionAccount& acc = outcome.ValueOrDie().accounts[0];
  EXPECT_EQ(acc.invocations, 5u);     // 1+1+2+1
  EXPECT_EQ(acc.invoked_minutes, 4u);
  // The t=1 arrival is warm: the t=0 execution pins the instance through
  // its minute, so back-to-back arrivals share it even under eviction.
  EXPECT_EQ(acc.cold_starts, 3u);  // t=0, t=3, t=5
  EXPECT_EQ(acc.ColdStartRate(), 3.0 / 5.0);
}

TEST(EngineTest, ExecutionPinsInstanceForItsMinute) {
  // Even though EvictAll removes everything, the engine pins executing
  // functions, so arrival minutes count as loaded (and not wasted).
  Trace trace = MakeTrace({{1, 0, 1, 0}});
  EvictAllPolicy policy;
  SimOptions options;
  options.train_minutes = 0;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  const FunctionAccount& acc = outcome.ValueOrDie().accounts[0];
  EXPECT_EQ(acc.loaded_minutes, 2u);
  EXPECT_EQ(acc.wasted_minutes, 0u);
}

TEST(EngineTest, InvariantsRequireWastePlusInvokedToEqualLoaded) {
  Trace trace = MakeTrace({{1, 0, 0, 1, 0, 0}, {0, 1, 1, 0, 0, 1}});
  FixedKeepAlivePolicy policy(2);
  SimOptions options;
  options.train_minutes = 0;
  SimulationOutcome outcome = Simulate(trace, &policy, options).ValueOrDie();
  ASSERT_TRUE(CheckOutcomeInvariants(outcome).ok());

  // One wasted minute fewer, in the account and the fleet sum alike: the
  // sums still agree and waste stays below the loaded minutes, but an
  // idle loaded minute is no longer counted anywhere.
  FunctionAccount& acc = outcome.accounts[0];
  ASSERT_GT(acc.wasted_minutes, 0u);
  acc.wasted_minutes -= 1;
  outcome.metrics.wasted_memory_minutes -= 1;
  const Status status = CheckOutcomeInvariants(outcome);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("function (=0) has wasted"),
            std::string::npos)
      << status.message();
}

TEST(EngineTest, KeepAllWarmAfterFirstMinute) {
  Trace trace = MakeTrace({{0, 1, 0, 1, 1, 0}});
  KeepAllPolicy policy;
  SimOptions options;
  options.train_minutes = 0;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  const FunctionAccount& acc = outcome.ValueOrDie().accounts[0];
  // First arrival at t=1: memory was empty until the t=0 policy step ran,
  // which loaded everything; so no cold start at all.
  EXPECT_EQ(acc.cold_starts, 0u);
  // Loaded all 6 minutes; 3 of them had no arrival.
  EXPECT_EQ(acc.loaded_minutes, 6u);
  EXPECT_EQ(acc.wasted_minutes, 3u);
}

TEST(EngineTest, AccountingConservation) {
  // invoked_minutes + wasted_minutes == loaded_minutes for KeepAll.
  Trace trace = MakeTrace({{1, 0, 1, 1, 0, 0, 1, 0}, {0, 0, 1, 0, 0, 1, 0, 0}});
  KeepAllPolicy policy;
  SimOptions options;
  options.train_minutes = 0;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  for (const FunctionAccount& acc : outcome.ValueOrDie().accounts) {
    EXPECT_EQ(acc.invoked_minutes + acc.wasted_minutes, acc.loaded_minutes);
  }
}

TEST(EngineTest, MemorySeriesLengthMatchesWindow) {
  Trace trace = MakeTrace({{1, 0, 1, 0, 1, 0, 1, 0}});
  FixedKeepAlivePolicy policy(2);
  SimOptions options;
  options.train_minutes = 2;
  options.end_minute = 7;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.ValueOrDie().memory_series.size(), 5u);
}

TEST(EngineTest, TrainingWindowIsExcludedFromAccounting) {
  Trace trace = MakeTrace({{1, 1, 1, 1, 0, 0, 0, 0}});
  FixedKeepAlivePolicy policy(10);
  SimOptions options;
  options.train_minutes = 4;  // all arrivals are in training
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.ValueOrDie().accounts[0].invocations, 0u);
  EXPECT_EQ(outcome.ValueOrDie().metrics.total_invocations, 0u);
}

TEST(EngineTest, OracleHasNoColdStartsAfterFirstMinute) {
  Trace trace = MakeTrace({{0, 1, 0, 1, 0, 1, 1, 0, 0, 1},
                           {1, 0, 0, 0, 1, 0, 0, 0, 1, 0}});
  OraclePolicy policy;
  SimOptions options;
  options.train_minutes = 0;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  // Arrivals at t=0 are unavoidably cold (no earlier step existed).
  uint64_t cold = 0;
  for (const auto& acc : outcome.ValueOrDie().accounts) {
    cold += acc.cold_starts;
  }
  EXPECT_EQ(cold, 1u);  // only function 1 fires at t=0
}

TEST(EngineTest, OracleWasteBoundedByOnePrewarmMinutePerArrivalRun) {
  // A minute-granular scheduler must be resident by the END of minute t-1
  // to serve minute t warm, so even the oracle pays one idle loaded minute
  // ahead of each isolated arrival run — and never more.
  Trace trace = MakeTrace({{0, 1, 0, 1, 0, 1, 1, 0, 0, 1}});
  OraclePolicy policy;
  SimOptions options;
  options.train_minutes = 0;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  const FunctionAccount& acc = outcome.ValueOrDie().accounts[0];
  // Arrival runs start at t=1, 3, 5, 9: four pre-warm minutes.
  EXPECT_EQ(acc.wasted_minutes, 4u);
  EXPECT_LE(acc.wasted_minutes, acc.invoked_minutes);
}

TEST(EngineTest, TrainMinutesEqualToHorizonYieldsEmptyWindow) {
  // A window of length zero is valid: everything is training, nothing is
  // simulated.
  Trace trace = MakeTrace({{1, 1, 1, 1}});
  FixedKeepAlivePolicy policy(10);
  SimOptions options;
  options.train_minutes = 4;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.ValueOrDie().memory_series.empty());
  EXPECT_EQ(outcome.ValueOrDie().accounts[0].invocations, 0u);
  EXPECT_EQ(outcome.ValueOrDie().metrics.total_invocations, 0u);
  EXPECT_EQ(outcome.ValueOrDie().metrics.average_memory, 0.0);
}

TEST(EngineTest, EndMinuteBeyondHorizonIsClampedToIt) {
  Trace trace = MakeTrace({{1, 0, 1, 0, 1, 0}});
  FixedKeepAlivePolicy policy(2);
  SimOptions clamped;
  clamped.train_minutes = 1;
  clamped.end_minute = 1000;  // far past the 6-minute horizon
  const auto outcome = Simulate(trace, &policy, clamped);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.ValueOrDie().memory_series.size(), 5u);

  // The clamped run is indistinguishable from an explicit full-horizon run.
  SimOptions full = clamped;
  full.end_minute = 0;
  FixedKeepAlivePolicy policy2(2);
  const auto full_outcome = Simulate(trace, &policy2, full);
  ASSERT_TRUE(full_outcome.ok());
  EXPECT_EQ(outcome.ValueOrDie().memory_series,
            full_outcome.ValueOrDie().memory_series);
  EXPECT_EQ(outcome.ValueOrDie().accounts[0].cold_starts,
            full_outcome.ValueOrDie().accounts[0].cold_starts);
}

TEST(EngineTest, EmptyTraceSimulatesToZeroedMetrics) {
  Trace trace(8);  // a horizon with no functions at all
  FixedKeepAlivePolicy policy(10);
  SimOptions options;
  options.train_minutes = 2;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  const SimulationOutcome& out = outcome.ValueOrDie();
  EXPECT_TRUE(out.accounts.empty());
  EXPECT_EQ(out.memory_series.size(), 6u);
  for (uint32_t loaded : out.memory_series) EXPECT_EQ(loaded, 0u);
  const FleetMetrics& m = out.metrics;
  EXPECT_TRUE(m.csr.empty());
  EXPECT_EQ(m.total_invocations, 0u);
  EXPECT_EQ(m.max_memory, 0u);
  EXPECT_EQ(m.emcr, 0.0);
}

TEST(EngineTest, FleetMetricsComputedFromAccounts) {
  Trace trace = MakeTrace({{1, 0, 0, 0, 1, 0}, {0, 1, 1, 1, 0, 1}});
  FixedKeepAlivePolicy policy(2);
  SimOptions options;
  options.train_minutes = 0;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  const FleetMetrics& m = outcome.ValueOrDie().metrics;
  EXPECT_EQ(m.policy_name, "Fixed-2min");
  EXPECT_EQ(m.csr.size(), 2u);
  EXPECT_GT(m.total_invocations, 0u);
  EXPECT_GE(m.max_memory, 1u);
}

}  // namespace
}  // namespace spes
