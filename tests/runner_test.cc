#include "runner/suite_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "latency/latency.h"
#include "sim/observers.h"
#include "sim/scenario.h"
#include "trace/generator.h"

namespace spes {
namespace {

GeneratedTrace MakeFleet() {
  GeneratorConfig config;
  config.num_functions = 200;
  config.days = 3;
  config.seed = 20240317;
  return GenerateTrace(config).ValueOrDie();
}

SimOptions Options() {
  SimOptions options;
  options.train_minutes = kMinutesPerDay;
  return options;
}

std::vector<ScenarioSpec> PolicySpecs(const SimOptions& options) {
  std::vector<ScenarioSpec> specs(5);
  specs[0].policy = {"spes", {}};
  specs[1].policy = {"defuse", {}};
  specs[2].policy = {"hybrid_histogram", {{"granularity", "function"}}};
  specs[3].policy = {"fixed_keepalive", {{"minutes", 10}}};
  specs[4].policy = {"oracle", {}};
  for (ScenarioSpec& spec : specs) spec.options = options;
  return specs;
}

/// Everything in FleetMetrics except the wall-clock overhead fields, which
/// legitimately vary run to run.
void ExpectSameDeterministicMetrics(const FleetMetrics& a,
                                    const FleetMetrics& b) {
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.csr, b.csr);
  EXPECT_EQ(a.q3_csr, b.q3_csr);
  EXPECT_EQ(a.p90_csr, b.p90_csr);
  EXPECT_EQ(a.median_csr, b.median_csr);
  EXPECT_EQ(a.always_cold_fraction, b.always_cold_fraction);
  EXPECT_EQ(a.zero_cold_fraction, b.zero_cold_fraction);
  EXPECT_EQ(a.total_cold_starts, b.total_cold_starts);
  EXPECT_EQ(a.total_invocations, b.total_invocations);
  EXPECT_EQ(a.wasted_memory_minutes, b.wasted_memory_minutes);
  EXPECT_EQ(a.loaded_instance_minutes, b.loaded_instance_minutes);
  EXPECT_EQ(a.average_memory, b.average_memory);
  EXPECT_EQ(a.max_memory, b.max_memory);
  EXPECT_EQ(a.emcr, b.emcr);
}

TEST(SuiteRunnerTest, ThreadCountDoesNotChangeResults) {
  const GeneratedTrace fleet = MakeFleet();
  const SimOptions options = Options();

  std::vector<std::vector<JobResult>> runs;
  for (int threads : {1, 4, 8}) {
    SuiteRunnerOptions runner_options;
    runner_options.num_threads = threads;
    SuiteRunner runner(runner_options);
    runs.push_back(runner.Run(fleet.trace, PolicySpecs(options)));
  }

  const std::vector<JobResult>& reference = runs[0];
  ASSERT_EQ(reference.size(), 5u);
  for (size_t run = 1; run < runs.size(); ++run) {
    ASSERT_EQ(runs[run].size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      const JobResult& a = reference[i];
      const JobResult& b = runs[run][i];
      ASSERT_TRUE(a.status.ok()) << a.status;
      ASSERT_TRUE(b.status.ok()) << b.status;
      EXPECT_EQ(a.label, b.label);
      ExpectSameDeterministicMetrics(a.outcome.metrics, b.outcome.metrics);
      EXPECT_EQ(a.outcome.memory_series, b.outcome.memory_series);
    }
  }
}

TEST(SuiteRunnerTest, ResultsArriveInJobOrder) {
  const GeneratedTrace fleet = MakeFleet();
  SuiteRunnerOptions runner_options;
  runner_options.num_threads = 4;
  SuiteRunner runner(runner_options);
  const std::vector<JobResult> results =
      runner.Run(fleet.trace, PolicySpecs(Options()));
  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(results[0].label, "SPES");
  EXPECT_EQ(results[3].label, "Fixed-10min");
  EXPECT_EQ(results[4].label, "Oracle");
}

TEST(SuiteRunnerTest, FailingJobDoesNotPoisonSiblings) {
  const GeneratedTrace fleet = MakeFleet();
  const SimOptions good = Options();
  SimOptions bad = good;
  bad.train_minutes = fleet.trace.num_minutes() + 1;  // rejected by engine

  std::vector<ScenarioSpec> specs(4);
  specs[0].policy = {"fixed_keepalive", {{"minutes", 10}}};
  specs[0].options = good;
  specs[1].policy = {"fixed_keepalive", {{"minutes", 10}}};
  specs[1].options = bad;
  specs[1].label = "bad-window";
  specs[2].policy = {"", {}};
  specs[2].options = good;
  specs[2].label = "no-policy";
  specs[3].policy = {"oracle", {}};
  specs[3].options = good;

  SuiteRunnerOptions runner_options;
  runner_options.num_threads = 4;
  SuiteRunner runner(runner_options);
  const std::vector<JobResult> results = runner.Run(fleet.trace, specs);

  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_EQ(results[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(results[2].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(results[3].status.ok());

  // The successful slots carry full outcomes.
  EXPECT_GT(results[0].outcome.metrics.total_invocations, 0u);
  EXPECT_GT(results[3].outcome.metrics.total_invocations, 0u);

  // And CollectMetrics keeps only the successes, in order.
  const std::vector<FleetMetrics> metrics = CollectMetrics(results);
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics[0].policy_name, "Fixed-10min");
  EXPECT_EQ(metrics[1].policy_name, "Oracle");
}

TEST(SuiteRunnerTest, ProgressReportsEveryJobExactlyOnce) {
  const GeneratedTrace fleet = MakeFleet();
  std::atomic<size_t> calls{0};
  size_t last_total = 0;
  size_t last_finished = 0;
  SuiteRunnerOptions runner_options;
  runner_options.num_threads = 3;
  runner_options.progress = [&](size_t finished, size_t total,
                                const JobResult& result) {
    calls.fetch_add(1);
    last_total = total;
    // Callbacks are serialized and the count is monotonic: each call sees
    // exactly one more finished job than the previous one.
    EXPECT_EQ(finished, last_finished + 1);
    last_finished = finished;
    EXPECT_LE(finished, total);
    EXPECT_FALSE(result.label.empty());
  };
  SuiteRunner runner(runner_options);
  const std::vector<JobResult> results =
      runner.Run(fleet.trace, PolicySpecs(Options()));
  EXPECT_EQ(results.size(), 5u);
  EXPECT_EQ(calls.load(), 5u);
  EXPECT_EQ(last_total, 5u);
}

TEST(SuiteRunnerLockstepTest, MixedWindowsGroupAndFailedSlotsAreIsolated) {
  const GeneratedTrace fleet = MakeFleet();
  SimOptions day1;
  day1.train_minutes = kMinutesPerDay;
  SimOptions day2;
  day2.train_minutes = 2 * kMinutesPerDay;

  // Two window groups plus one broken slot in the middle: the lockstep
  // runner forms one stream per distinct window and the bad spec fails
  // only its own slot.
  std::vector<ScenarioSpec> specs(5);
  specs[0].policy = {"fixed_keepalive", {{"minutes", 10}}};
  specs[0].options = day1;
  specs[1].policy = {"oracle", {}};
  specs[1].options = day2;
  specs[2].policy = {"no_such_policy", {}};
  specs[2].options = day1;
  specs[3].policy = {"oracle", {}};
  specs[3].options = day1;
  specs[4].policy = {"fixed_keepalive", {{"minutes", 10}}};
  specs[4].options = day2;

  size_t progress_calls = 0;
  size_t last_finished = 0;
  SuiteRunnerOptions runner_options;
  runner_options.progress = [&](size_t finished, size_t total,
                                const JobResult&) {
    ++progress_calls;
    EXPECT_EQ(finished, last_finished + 1);
    last_finished = finished;
    EXPECT_EQ(total, 5u);
  };
  SuiteRunner runner(runner_options);
  const std::vector<JobResult> lockstep =
      runner.RunLockstep(fleet.trace, specs);
  EXPECT_EQ(progress_calls, 5u);

  ASSERT_EQ(lockstep.size(), 5u);
  EXPECT_EQ(lockstep[2].status.code(), StatusCode::kNotFound);
  EXPECT_NE(lockstep[2].status.message().find("no_such_policy"),
            std::string::npos);

  // Every healthy slot is bitwise identical to the thread-pool path
  // (compared through a fresh runner so the progress expectations above
  // only see the lockstep batch).
  const std::vector<JobResult> pooled = SuiteRunner().Run(fleet.trace, specs);
  for (size_t i = 0; i < specs.size(); ++i) {
    if (i == 2) continue;
    ASSERT_TRUE(lockstep[i].status.ok()) << lockstep[i].status.ToString();
    EXPECT_EQ(lockstep[i].label, pooled[i].label);
    EXPECT_EQ(lockstep[i].outcome.memory_series,
              pooled[i].outcome.memory_series);
    EXPECT_EQ(lockstep[i].outcome.metrics.total_cold_starts,
              pooled[i].outcome.metrics.total_cold_starts);
    // The trained policy instance is kept alive for breakdowns.
    EXPECT_NE(lockstep[i].policy, nullptr);
  }
}

TEST(SuiteRunnerLockstepTest, SpecObserversAreSlotScoped) {
  const GeneratedTrace fleet = MakeFleet();
  SimOptions options;
  options.train_minutes = kMinutesPerDay;

  // Three specs in one window group; only spec 2 carries observers. They
  // must see exactly their own spec's run, presented as a single-lane
  // stream — so the stock observers work for any slot.
  std::vector<ScenarioSpec> specs(3);
  specs[0].policy = {"fixed_keepalive", {{"minutes", 10}}};
  specs[1].policy = {"oracle", {}};
  specs[2].policy = {"fixed_keepalive", {{"minutes", 3}}};
  for (ScenarioSpec& spec : specs) spec.options = options;

  size_t minutes_seen = 0;
  CallbackObserver observer([&](const MinuteView& view) {
    EXPECT_EQ(view.lane, 0u);
    EXPECT_EQ(view.policy->name(), "Fixed-3min");
    ++minutes_seen;
    return true;
  });
  TimeSeriesObserver capture(60);
  specs[2].observers = {&observer, &capture};

  SuiteRunner runner;
  const std::vector<JobResult> results =
      runner.RunLockstep(fleet.trace, specs);
  for (const JobResult& r : results) ASSERT_TRUE(r.status.ok());
  const size_t window =
      static_cast<size_t>(fleet.trace.num_minutes() - kMinutesPerDay);
  EXPECT_EQ(minutes_seen, window);
  // The stock capture observer fills lane 0 of its own virtual stream.
  ASSERT_EQ(capture.series().size(), 1u);
  EXPECT_EQ(capture.series()[0].size(), window / 60);

  // The thread-pool spec batch honours observers too (each job opens its
  // own stream) with the same single-lane presentation.
  minutes_seen = 0;
  const std::vector<JobResult> pooled = runner.Run(fleet.trace, specs);
  for (const JobResult& r : pooled) ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(minutes_seen, window);
}

TEST(SuiteRunnerLockstepTest, SpecsWithDifferentLatencyBlocksDoNotShareAGroup) {
  const GeneratedTrace fleet = MakeFleet();
  ScenarioSpec plain;
  plain.policy = {"fixed_keepalive", {{"minutes", 10}}};
  plain.options = Options();
  ScenarioSpec latency = plain;
  latency.options.latency =
      ParseLatencySpec(
          "lognormal{warm_median_ms=40,warm_sigma=0.4} @ "
          "queue{capacity=4,concurrency=1,seed=42,timeout_ms=250}")
          .ValueOrDie();

  // Lanes of one stream share its engine, so a latency block must split
  // the group: in either order, each slot matches its pooled run.
  const SuiteRunner runner({1, nullptr});
  for (const std::vector<ScenarioSpec>& specs :
       {std::vector<ScenarioSpec>{plain, latency},
        std::vector<ScenarioSpec>{latency, plain}}) {
    const std::vector<JobResult> pooled = runner.Run(fleet.trace, specs);
    const std::vector<JobResult> lockstep =
        runner.RunLockstep(fleet.trace, specs);
    ASSERT_EQ(lockstep.size(), 2u);
    for (size_t i = 0; i < specs.size(); ++i) {
      ASSERT_TRUE(pooled[i].status.ok()) << pooled[i].status.ToString();
      ASSERT_TRUE(lockstep[i].status.ok()) << lockstep[i].status.ToString();
      const bool wants_latency = specs[i].options.latency.has_value();
      ASSERT_EQ(pooled[i].outcome.latency != nullptr, wants_latency) << i;
      ASSERT_EQ(lockstep[i].outcome.latency != nullptr, wants_latency) << i;
      EXPECT_EQ(lockstep[i].outcome.memory_series,
                pooled[i].outcome.memory_series);
      if (!wants_latency) continue;
      const LatencyOutcome& a = *pooled[i].outcome.latency;
      const LatencyOutcome& b = *lockstep[i].outcome.latency;
      EXPECT_EQ(a.served, b.served);
      EXPECT_EQ(a.cold_served, b.cold_served);
      EXPECT_EQ(a.timeouts, b.timeouts);
      EXPECT_EQ(a.shed, b.shed);
      EXPECT_EQ(a.queue_depth_series, b.queue_depth_series);
      EXPECT_GT(a.served, 0u);
    }
  }
}

TEST(SuiteRunnerTest, EmptyJobListReturnsEmpty) {
  const GeneratedTrace fleet = MakeFleet();
  SuiteRunner runner;
  EXPECT_TRUE(runner.Run(fleet.trace, std::vector<ScenarioSpec>{}).empty());
}

TEST(SuiteRunnerTest, EffectiveThreadsIsClampedToJobCount) {
  SuiteRunnerOptions runner_options;
  runner_options.num_threads = 16;
  SuiteRunner runner(runner_options);
  EXPECT_EQ(runner.EffectiveThreads(3), 3);
  EXPECT_EQ(runner.EffectiveThreads(100), 16);
  EXPECT_EQ(runner.EffectiveThreads(0), 1);
}

}  // namespace
}  // namespace spes
