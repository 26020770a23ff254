#include "core/spes_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "core/policy_registry.h"
#include "policies/fixed_keepalive.h"
#include "sim/columnar.h"
#include "sim/engine.h"
#include "trace/generator.h"
#include "tests/make_trace.h"
#include "tests/same_outcome.h"

namespace spes {
namespace {

std::vector<uint32_t> PeriodicRow(int n, int period, int phase = 0) {
  std::vector<uint32_t> counts(static_cast<size_t>(n), 0);
  for (int t = phase; t < n; t += period) counts[static_cast<size_t>(t)] = 1;
  return counts;
}

TEST(SpesPolicyTest, CategorizesRegularAndServesItWarmCheaply) {
  const int horizon = 3 * kMinutesPerDay;
  const int train = 2 * kMinutesPerDay;
  Trace trace =
      MakeTrace({PeriodicRow(horizon, 30)}, {"a0"}, {TriggerType::kHttp});
  SpesPolicy policy;
  SimOptions options;
  options.train_minutes = train;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(policy.TypeOf(0), FunctionType::kRegular);
  const FunctionAccount& acc = outcome.ValueOrDie().accounts[0];
  // Prediction-driven pre-warm: nearly all arrivals warm...
  EXPECT_LE(acc.ColdStartRate(), 0.05);
  // ...while the instance is only resident around predictions
  // (theta_prewarm window + execution), far below full residency.
  EXPECT_LT(acc.loaded_minutes, static_cast<uint64_t>(kMinutesPerDay / 3));
}

TEST(SpesPolicyTest, AlwaysWarmNeverEvicted) {
  const int horizon = 2 * kMinutesPerDay;
  std::vector<uint32_t> counts(static_cast<size_t>(horizon), 1);
  Trace trace =
      MakeTrace({std::move(counts)}, {"a0"}, {TriggerType::kHttp});
  SpesPolicy policy;
  SimOptions options;
  options.train_minutes = kMinutesPerDay;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(policy.TypeOf(0), FunctionType::kAlwaysWarm);
  // Memory starts empty, so only the very first simulated minute can be
  // cold; thereafter the function is never evicted.
  EXPECT_LE(outcome.ValueOrDie().accounts[0].cold_starts, 1u);
  EXPECT_EQ(outcome.ValueOrDie().accounts[0].loaded_minutes,
            static_cast<uint64_t>(kMinutesPerDay));
}

TEST(SpesPolicyTest, DenseStaysLoadedThroughShortGaps) {
  const int horizon = 3 * kMinutesPerDay;
  std::vector<uint32_t> counts(static_cast<size_t>(horizon), 0);
  // Mostly 2-minute gaps with occasional 6-minute lulls: dense, but too
  // spread for the regular rule.
  int t = 0, k = 0;
  while (t < horizon) {
    counts[static_cast<size_t>(t)] = 1;
    t += (k++ % 12 == 11) ? 6 : 2;
  }
  Trace trace =
      MakeTrace({std::move(counts)}, {"a0"}, {TriggerType::kHttp});
  SpesPolicy policy;
  SimOptions options;
  options.train_minutes = 2 * kMinutesPerDay;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(policy.TypeOf(0), FunctionType::kDense);
  EXPECT_LE(outcome.ValueOrDie().accounts[0].ColdStartRate(), 0.02);
}

TEST(SpesPolicyTest, SuccessiveRidesWaves) {
  const int horizon = 4 * kMinutesPerDay;
  std::vector<uint32_t> counts(static_cast<size_t>(horizon), 0);
  // Irregularly spaced waves (regular spacing would look "regular").
  int start = 100;
  int k = 0;
  const int spacings[5] = {410, 770, 1310, 560, 990};
  while (start + 5 < horizon) {
    for (int s = 0; s < 5; ++s) {
      counts[static_cast<size_t>(start + s)] = 2;
    }
    start += spacings[k++ % 5];
  }
  Trace trace =
      MakeTrace({std::move(counts)}, {"a0"}, {TriggerType::kHttp});
  SpesPolicy policy;
  SimOptions options;
  options.train_minutes = 2 * kMinutesPerDay;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(policy.TypeOf(0), FunctionType::kSuccessive);
  const FunctionAccount& acc = outcome.ValueOrDie().accounts[0];
  // One tolerated cold start per wave; the rest of each wave is warm.
  const uint64_t waves = acc.cold_starts;
  EXPECT_LE(waves, 5u);
  EXPECT_LT(acc.ColdStartRate(), 0.25);
}

// Driver: 20-minute timer. Target: fires 3 minutes after an aperiodic
// subset of driver events — its own WTs are too scattered for any
// deterministic rule, but the driver predicts it perfectly.
Trace DriverAndTargetTrace() {
  const int horizon = 4 * kMinutesPerDay;
  std::vector<uint32_t> driver(static_cast<size_t>(horizon), 0);
  std::vector<uint32_t> target(static_cast<size_t>(horizon), 0);
  int k = 0;
  for (int t = 0; t + 3 < horizon; t += 20) {
    driver[static_cast<size_t>(t)] = 1;
    const int r = k % 23;
    if (r == 0 || r == 5 || r == 9 || r == 16 || r == 21) {
      target[static_cast<size_t>(t + 3)] = 1;
    }
    ++k;
  }
  return MakeTrace({std::move(driver), std::move(target)}, {"app"},
                   {TriggerType::kHttp});
}

TEST(SpesPolicyTest, CorrelatedTargetPrewarmedByDriver) {
  const Trace trace = DriverAndTargetTrace();
  SpesPolicy policy;
  SimOptions options;
  options.train_minutes = 2 * kMinutesPerDay;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(policy.TypeOf(1), FunctionType::kCorrelated);
  EXPECT_LE(outcome.ValueOrDie().accounts[1].ColdStartRate(), 0.05);
}

TEST(SpesPolicyTest, DisablingCorrelationRemovesLinks) {
  const int horizon = 4 * kMinutesPerDay;
  std::vector<uint32_t> driver(static_cast<size_t>(horizon), 0);
  std::vector<uint32_t> target(static_cast<size_t>(horizon), 0);
  int k = 0;
  for (int t = 0; t + 3 < horizon; t += 20) {
    driver[static_cast<size_t>(t)] = 1;
    if (++k % 3 == 0) target[static_cast<size_t>(t + 3)] = 1;
  }
  Trace trace =
      MakeTrace({std::move(driver), std::move(target)}, {"app"},
                {TriggerType::kHttp});
  SpesConfig config;
  config.enable_correlated = false;
  SpesPolicy policy(config);
  policy.Train(trace, 2 * kMinutesPerDay);
  EXPECT_NE(policy.TypeOf(1), FunctionType::kCorrelated);
  for (const auto& links : policy.links_by_candidate()) {
    EXPECT_TRUE(links.empty());
  }
}

TEST(SpesPolicyTest, PossibleFunctionPredictedFromRepeatedGaps) {
  // Three 300-minute gaps then one unique long gap, repeating: the 299 WT
  // mode repeats (a predictive value) but covers only ~75% of the WTs, so
  // the appro-regular rule does not fire and the function lands in the
  // indeterminate pool, where the "possible" replay dominates.
  const int horizon = 10 * kMinutesPerDay;
  std::vector<uint32_t> counts(static_cast<size_t>(horizon), 0);
  int t = 50;
  int k = 0;
  while (t < horizon) {
    counts[static_cast<size_t>(t)] = 1;
    if (k % 4 == 3) {
      t += 400 + 37 * k;  // a fresh long gap each cycle
    } else {
      t += 300;
    }
    ++k;
  }
  Trace trace =
      MakeTrace({std::move(counts)}, {"a0"}, {TriggerType::kHttp});
  SpesPolicy policy;
  SimOptions options;
  options.train_minutes = 8 * kMinutesPerDay;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(policy.TypeOf(0), FunctionType::kPossible);
  // Prediction by the repeated mode keeps ~3/4 of arrivals warm.
  EXPECT_LE(outcome.ValueOrDie().accounts[0].ColdStartRate(), 0.40);
}

TEST(SpesPolicyTest, UnknownFunctionsAreNotPreloaded) {
  const int horizon = 2 * kMinutesPerDay;
  std::vector<uint32_t> counts(static_cast<size_t>(horizon), 0);
  counts[100] = 1;  // training: one arrival
  counts[kMinutesPerDay + 700] = 1;  // simulation: one arrival
  Trace trace =
      MakeTrace({std::move(counts)}, {"a0"}, {TriggerType::kHttp});
  SpesPolicy policy;
  SimOptions options;
  options.train_minutes = kMinutesPerDay;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(policy.TypeOf(0), FunctionType::kUnknown);
  const FunctionAccount& acc = outcome.ValueOrDie().accounts[0];
  EXPECT_EQ(acc.cold_starts, 1u);
  // theta_givenup = 1 for unknown: almost no waste.
  EXPECT_LE(acc.wasted_minutes, 2u);
}

TEST(SpesPolicyTest, AdjustingLateCategorizesUnknownToNewlyPossible) {
  const int horizon = 4 * kMinutesPerDay;
  const int train = kMinutesPerDay;
  std::vector<uint32_t> counts(static_cast<size_t>(horizon), 0);
  counts[500] = 1;  // lone training arrival -> unknown
  // Online: a clean 100-minute cadence (repeated WT = 99).
  for (int t = train; t < horizon; t += 100) {
    counts[static_cast<size_t>(t)] = 1;
  }
  Trace trace =
      MakeTrace({std::move(counts)}, {"a0"}, {TriggerType::kHttp});
  SpesPolicy policy;
  SimOptions options;
  options.train_minutes = train;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(policy.TypeOf(0), FunctionType::kNewlyPossible);
  EXPECT_GE(policy.online_recategorized(), 1);
}

TEST(SpesPolicyTest, AdjustingDisabledKeepsUnknown) {
  const int horizon = 4 * kMinutesPerDay;
  const int train = kMinutesPerDay;
  std::vector<uint32_t> counts(static_cast<size_t>(horizon), 0);
  counts[500] = 1;
  for (int t = train; t < horizon; t += 100) {
    counts[static_cast<size_t>(t)] = 1;
  }
  Trace trace =
      MakeTrace({std::move(counts)}, {"a0"}, {TriggerType::kHttp});
  SpesConfig config;
  config.enable_adjusting = false;
  SpesPolicy policy(config);
  SimOptions options;
  options.train_minutes = train;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(policy.TypeOf(0), FunctionType::kUnknown);
}

TEST(SpesPolicyTest, ForgettingSwitchDecidesTheShiftedFunction) {
  const Trace trace =
      MakeTrace({ShiftedWorkload()}, {"a0"}, {TriggerType::kHttp});
  const int train = trace.num_minutes();

  SpesPolicy with;  // forgetting on
  with.Train(trace, train);
  EXPECT_EQ(with.forgetting_recategorized(), 1);
  EXPECT_EQ(with.TypeOf(0), FunctionType::kRegular);

  SpesConfig config;
  config.enable_forgetting = false;
  SpesPolicy without(config);
  without.Train(trace, train);
  EXPECT_EQ(without.forgetting_recategorized(), 0);
  // Still unknown after the deterministic pass, so the indeterminate
  // assignment decides it: the repeated timer WTs make it "possible".
  EXPECT_EQ(without.TypeOf(0), FunctionType::kPossible);
}

TEST(SpesPolicyTest, AdjustingTracksDriftingPeriod) {
  // Training: 30-minute period. Simulation: drifts to 40 minutes.
  const int horizon = 6 * kMinutesPerDay;
  const int train = 3 * kMinutesPerDay;
  std::vector<uint32_t> counts(static_cast<size_t>(horizon), 0);
  for (int t = 0; t < train; t += 30) counts[static_cast<size_t>(t)] = 1;
  for (int t = train; t < horizon; t += 40) {
    counts[static_cast<size_t>(t)] = 1;
  }
  Trace trace =
      MakeTrace({std::move(counts)}, {"a0"}, {TriggerType::kHttp});

  SpesConfig with;  // adjusting on
  SpesPolicy policy_with(with);
  SimOptions options;
  options.train_minutes = train;
  const auto out_with = Simulate(trace, &policy_with, options);
  ASSERT_TRUE(out_with.ok());

  SpesConfig without;
  without.enable_adjusting = false;
  SpesPolicy policy_without(without);
  const auto out_without = Simulate(trace, &policy_without, options);
  ASSERT_TRUE(out_without.ok());

  EXPECT_LE(out_with.ValueOrDie().accounts[0].cold_starts,
            out_without.ValueOrDie().accounts[0].cold_starts);
}

TEST(SpesPolicyTest, UnseenFunctionPrewarmedByOnlineCorrelation) {
  // Candidate fires every 25 min throughout. The unseen target starts
  // firing only in the simulation window, 2 minutes after the candidate.
  const int horizon = 3 * kMinutesPerDay;
  const int train = 2 * kMinutesPerDay;
  std::vector<uint32_t> candidate(static_cast<size_t>(horizon), 0);
  std::vector<uint32_t> target(static_cast<size_t>(horizon), 0);
  for (int t = 0; t + 2 < horizon; t += 25) {
    candidate[static_cast<size_t>(t)] = 1;
    if (t >= train) target[static_cast<size_t>(t + 2)] = 1;
  }
  Trace trace = MakeTrace({std::move(candidate), std::move(target)},
                          {"app"}, {TriggerType::kQueue});
  SpesPolicy policy;
  SimOptions options;
  options.train_minutes = train;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  // Online correlation pre-warms the unseen target from candidate firings.
  EXPECT_LE(outcome.ValueOrDie().accounts[1].ColdStartRate(), 0.30);
}

TEST(SpesPolicyTest, CountByTypeCoversAllFunctions) {
  GeneratorConfig config;
  config.num_functions = 400;
  config.days = 4;
  config.seed = 21;
  const auto generated = GenerateTrace(config);
  ASSERT_TRUE(generated.ok());
  SpesPolicy policy;
  policy.Train(generated.ValueOrDie().trace, 3 * kMinutesPerDay);
  const auto counts = policy.CountByType();
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  EXPECT_EQ(total, 400);
  // A realistic mix categorizes a solid share of the fleet.
  EXPECT_LT(counts[static_cast<size_t>(FunctionType::kUnknown)], 300);
}

TEST(SpesPolicyTest, GivenupScalerIncreasesMemoryAndCutsColdStarts) {
  GeneratorConfig gen;
  gen.num_functions = 300;
  gen.days = 4;
  gen.seed = 33;
  const auto generated = GenerateTrace(gen);
  ASSERT_TRUE(generated.ok());
  const Trace& trace = generated.ValueOrDie().trace;
  SimOptions options;
  options.train_minutes = 3 * kMinutesPerDay;

  SpesConfig c1;
  SpesPolicy p1(c1);
  const auto o1 = Simulate(trace, &p1, options);
  ASSERT_TRUE(o1.ok());

  SpesConfig c4 = c1;
  c4.givenup_scaler = 4;
  SpesPolicy p4(c4);
  const auto o4 = Simulate(trace, &p4, options);
  ASSERT_TRUE(o4.ok());

  EXPECT_GE(o4.ValueOrDie().metrics.average_memory,
            o1.ValueOrDie().metrics.average_memory);
  EXPECT_LE(o4.ValueOrDie().metrics.total_cold_starts,
            o1.ValueOrDie().metrics.total_cold_starts);
}

TEST(SpesPolicyTest, GivenUpThresholdSaturatesInsteadOfOverflowing) {
  SpesConfig config;
  config.givenup_scaler = std::numeric_limits<int>::max();
  EXPECT_EQ(config.ScaledGivenUp(2), std::numeric_limits<int>::max());
  EXPECT_EQ(config.ScaledGivenUp(0), 0);
  config.givenup_scaler = 1000000;
  EXPECT_EQ(config.ScaledGivenUp(2), 2000000);

  // Both specs lie inside the declared domains, and both thresholds lie
  // far past the 4-day horizon: neither run ever gives up, so the two
  // must simulate the same.
  GeneratorConfig gen;
  gen.num_functions = 300;
  gen.days = 4;
  gen.seed = 99;
  const Trace trace = std::move(GenerateTrace(gen).ValueOrDie().trace);
  SimOptions options;
  options.train_minutes = 3 * kMinutesPerDay;
  std::vector<SimulationOutcome> outcomes;
  for (const char* scaler : {"2147483647", "1000000"}) {
    const PolicySpec spec =
        ParsePolicySpec(std::string("spes{theta_givenup_default=2,"
                                    "theta_givenup_dense=2,"
                                    "theta_givenup_pulsed=2,givenup_scaler=") +
                        scaler + "}")
            .ValueOrDie();
    std::unique_ptr<Policy> policy =
        PolicyRegistry::Global().Create(spec).ValueOrDie();
    outcomes.push_back(Simulate(trace, policy.get(), options).ValueOrDie());
  }
  ExpectSameOutcome(outcomes[0], outcomes[1]);
}

TEST(SpesPolicyTest, PrewarmWindowAtIntMaxDoesNotOverflow) {
  // The largest theta_prewarm the registry accepts. Training adds it to a
  // lag in the T-COR precision window and in the correlated replay, and
  // every driver arrival adds it to the minute and the lag of the target's
  // hold: each sum must be formed in 64 bits, and the hold saturates.
  const Trace trace = DriverAndTargetTrace();
  std::unique_ptr<Policy> policy =
      PolicyRegistry::Global()
          .CreateFromString("spes{theta_prewarm=2147483647}")
          .ValueOrDie();
  SimOptions options;
  options.train_minutes = 2 * kMinutesPerDay;
  const SimulationOutcome outcome =
      Simulate(trace, policy.get(), options).ValueOrDie();
  const auto& spes = dynamic_cast<const SpesPolicy&>(*policy);
  ASSERT_EQ(spes.TypeOf(1), FunctionType::kCorrelated);
  // The first driver arrival holds the target to the end of time.
  EXPECT_EQ(outcome.accounts[1].cold_starts, 0u);
}

// Per function of a SaveState() blob: the online WTs recorded since S2
// last re-fitted it, or -1 when S2 never ran on it or does not adjust its
// type.
std::vector<int> WtsSinceAdjustment(const std::string& blob) {
  BinaryReader r(blob);
  std::vector<int> since(r.U64().ValueOrDie(), -1);
  for (int& pending : since) {
    const auto type = static_cast<FunctionType>(r.U8().ValueOrDie());
    (void)r.Vector<int64_t>().ValueOrDie();  // predictive values
    (void)r.I64().ValueOrDie();              // range_lo
    (void)r.I64().ValueOrDie();              // range_hi
    (void)r.Bool().ValueOrDie();             // continuous
    (void)r.Double().ValueOrDie();           // offline WT stddev
    for (int i = 0; i < 3; ++i) (void)r.I32().ValueOrDie();
    (void)r.Bool().ValueOrDie();  // seen in training
    (void)r.I32().ValueOrDie();   // correlation hold
    (void)r.I64().ValueOrDie();   // next predicted
    const size_t wts = r.Vector<int64_t>().ValueOrDie().size();
    const int cursor = r.I32().ValueOrDie();
    const bool adjusted =
        type == FunctionType::kRegular || type == FunctionType::kApproRegular ||
        type == FunctionType::kDense || type == FunctionType::kPossible ||
        type == FunctionType::kNewlyPossible;
    if (adjusted && cursor > 0) pending = static_cast<int>(wts) - cursor;
  }
  return since;
}

TEST(SpesPolicyTest, RestoreBetweenDriftAdjustmentsContinuesBitwise) {
  // S2 reads a per-function WT multiset that is derived state: the blob
  // carries only the WT list, and RestoreState rebuilds the multiset. A
  // restore while some function is 1-4 WTs past its last re-fit must
  // leave its next re-fit, and everything after, as if never restored.
  GeneratorConfig gen;
  gen.num_functions = 300;
  gen.days = 4;
  gen.seed = 99;
  const Trace trace = std::move(GenerateTrace(gen).ValueOrDie().trace);
  const int train = 3 * kMinutesPerDay;
  const size_t n = trace.num_functions();
  InMemoryTraceSource source(trace);
  ArrivalDecoder decoder(&source);
  std::vector<std::vector<Invocation>> minutes;
  for (int t = train; t < trace.num_minutes(); ++t) {
    const std::span<const Invocation> span = decoder.Decode(t);
    minutes.emplace_back(span.begin(), span.end());
  }
  // One minute step as the engine takes it: arrivals load, then the policy.
  const auto step = [&](Policy* policy, int t, MemSet* mem) {
    const std::vector<Invocation>& arrivals = minutes[t - train];
    for (const Invocation& inv : arrivals) mem->Add(inv.function);
    policy->OnMinute(t, arrivals, mem);
  };

  SpesPolicy whole;
  whole.Train(trace, train);
  MemSet whole_mem(n);
  std::vector<std::vector<uint64_t>> words;
  int checkpoint_at = -1;
  for (int t = train; t < trace.num_minutes(); ++t) {
    step(&whole, t, &whole_mem);
    words.push_back(whole_mem.words());
    if (checkpoint_at >= 0) continue;
    const std::vector<int> since =
        WtsSinceAdjustment(whole.SaveState().ValueOrDie());
    if (std::any_of(since.begin(), since.end(),
                    [](int k) { return k >= 1 && k <= 4; })) {
      checkpoint_at = t;
    }
  }
  ASSERT_GE(checkpoint_at, 0) << "no function was between re-fits";
  const std::string final_bytes = whole.SaveState().ValueOrDie();

  auto policy = std::make_unique<SpesPolicy>();
  policy->Train(trace, train);
  MemSet mem(n);
  for (int t = train; t < trace.num_minutes(); ++t) {
    step(policy.get(), t, &mem);
    ASSERT_EQ(mem.words(), words[t - train]) << "minute " << t;
    if (t != checkpoint_at) continue;
    const std::string bytes = policy->SaveState().ValueOrDie();
    policy = std::make_unique<SpesPolicy>();
    policy->Train(trace, train);
    ASSERT_TRUE(policy->RestoreState(bytes).ok());
  }
  EXPECT_TRUE(policy->SaveState().ValueOrDie() == final_bytes);
}

class PrewarmSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(PrewarmSweepTest, RegularFunctionStaysWarmAcrossThetas) {
  const int theta = GetParam();
  const int horizon = 3 * kMinutesPerDay;
  Trace trace =
      MakeTrace({PeriodicRow(horizon, 45)}, {"a0"}, {TriggerType::kHttp});
  SpesConfig config;
  config.theta_prewarm = theta;
  SpesPolicy policy(config);
  SimOptions options;
  options.train_minutes = 2 * kMinutesPerDay;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_LE(outcome.ValueOrDie().accounts[0].ColdStartRate(), 0.10)
      << "theta_prewarm=" << theta;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PrewarmSweepTest,
                         ::testing::Values(1, 2, 3, 5, 10));

}  // namespace
}  // namespace spes
