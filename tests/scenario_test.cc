// Scenario API: up-front spec validation (field-naming errors), trace
// realization from generator/CSV sources, RunScenario equivalence with the
// low-level Simulate() shim, one realized trace serving many runs, the
// SuiteRunner spec-batch overloads (error isolation + thread-count
// determinism), and every entry point agreeing with every other.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "policies/fixed_keepalive.h"
#include "runner/suite_runner.h"
#include "sim/observers.h"
#include "sim/scenario.h"
#include "sim/stream.h"
#include "tests/same_outcome.h"
#include "trace/azure_csv.h"
#include "trace/generator.h"
#include "trace/trace_file.h"
#include "trace/trace_source.h"
#include "trace/transform.h"

namespace spes {
namespace {

GeneratorConfig SmallFleetConfig() {
  GeneratorConfig config;
  config.num_functions = 120;
  config.days = 3;
  config.seed = 23;
  return config;
}

ScenarioSpec SmallScenario(PolicySpec policy) {
  ScenarioSpec spec;
  spec.trace = TraceSpec::FromGenerator(SmallFleetConfig());
  spec.policy = std::move(policy);
  spec.options.train_minutes = kMinutesPerDay;
  return spec;
}

TEST(ValidateSimOptionsTest, ErrorsNameTheBadField) {
  SimOptions options;
  options.train_minutes = -5;
  Status status = ValidateSimOptions(options);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("train_minutes"), std::string::npos);

  options = SimOptions{};
  options.end_minute = -1;
  status = ValidateSimOptions(options);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("end_minute"), std::string::npos);

  options = SimOptions{};
  options.train_minutes = 100;
  options.end_minute = 50;
  status = ValidateSimOptions(options);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("end_minute"), std::string::npos);
  EXPECT_NE(status.message().find("train_minutes"), std::string::npos);

  EXPECT_TRUE(ValidateSimOptions(SimOptions{}).ok());
}

TEST(ValidateScenarioSpecTest, EmptyPolicyNameNamesTheField) {
  ScenarioSpec spec = SmallScenario({"", {}});
  const Status status = ValidateScenarioSpec(spec);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("policy.name"), std::string::npos);
}

TEST(ValidateScenarioSpecTest, BadWindowIsRejectedBeforeAnyTraceExists) {
  ScenarioSpec spec = SmallScenario({"spes", {}});
  spec.options.train_minutes = -1;
  EXPECT_EQ(ValidateScenarioSpec(spec).code(), StatusCode::kInvalidArgument);
  // RunScenario surfaces the same error without realizing the trace.
  EXPECT_EQ(RunScenario(spec).status().code(), StatusCode::kInvalidArgument);
}

TEST(RealizeTraceTest, ProvidedSourceIsAnError) {
  const auto result = RealizeTrace(TraceSpec{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(RealizeTraceTest, EmptyCsvDirIsAnError) {
  const auto result = RealizeTrace(TraceSpec::FromAzureCsvDir(""));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("csv_dir"), std::string::npos);
}

TEST(RunScenarioTest, MatchesTheLowLevelSimulateShim) {
  const GeneratedTrace fleet =
      GenerateTrace(SmallFleetConfig()).ValueOrDie();
  const ScenarioSpec spec =
      SmallScenario({"fixed_keepalive", {{"minutes", 10}}});

  const ScenarioOutcome via_spec =
      RunScenario(fleet.trace, spec).ValueOrDie();

  FixedKeepAlivePolicy direct(10);
  const SimulationOutcome via_shim =
      Simulate(fleet.trace, &direct, spec.options).ValueOrDie();

  EXPECT_EQ(via_spec.outcome.memory_series, via_shim.memory_series);
  EXPECT_EQ(via_spec.outcome.metrics.total_cold_starts,
            via_shim.metrics.total_cold_starts);
  EXPECT_EQ(via_spec.outcome.metrics.wasted_memory_minutes,
            via_shim.metrics.wasted_memory_minutes);
  EXPECT_EQ(via_spec.policy->name(), direct.name());
}

TEST(RunScenarioTest, RealizesGeneratorSource) {
  const ScenarioOutcome run =
      RunScenario(SmallScenario({"oracle", {}})).ValueOrDie();
  EXPECT_EQ(run.outcome.memory_series.size(),
            static_cast<size_t>(2 * kMinutesPerDay));
  EXPECT_EQ(run.policy->name(), "Oracle");
}

TEST(RunScenarioTest, RegistryErrorsPropagate) {
  const auto unknown = RunScenario(SmallScenario({"no_such_policy", {}}));
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  const auto bad_param =
      RunScenario(SmallScenario({"fixed_keepalive", {{"minutes", 0}}}));
  EXPECT_EQ(bad_param.status().code(), StatusCode::kInvalidArgument);
}

TEST(ScenarioSessionTest, ReusesOneRealizedTrace) {
  const Trace trace =
      RealizeTrace(TraceSpec::FromGenerator(SmallFleetConfig())).ValueOrDie();
  EXPECT_EQ(trace.num_functions(), 120u);

  ScenarioSpec spec = SmallScenario({"fixed_keepalive", {}});
  const ScenarioOutcome a = RunScenario(trace, spec).ValueOrDie();
  const ScenarioOutcome b = RunScenario(trace, spec).ValueOrDie();
  EXPECT_EQ(a.outcome.memory_series, b.outcome.memory_series);
}

TEST(ScenarioSessionTest, RoundTripsThroughAzureCsvSource) {
  const GeneratedTrace fleet =
      GenerateTrace(SmallFleetConfig()).ValueOrDie();
  const std::string dir =
      (std::filesystem::temp_directory_path() / "spes_scenario_test_csv")
          .string();
  WriteAzureTraceDir(fleet.trace, dir).CheckOK();

  const Trace trace =
      RealizeTrace(TraceSpec::FromAzureCsvDir(dir)).ValueOrDie();
  EXPECT_EQ(trace.num_functions(), fleet.trace.num_functions());
  EXPECT_EQ(trace.num_minutes(), fleet.trace.num_minutes());
  std::filesystem::remove_all(dir);
}

TEST(SuiteRunnerSpecBatchTest, InvalidSlotsKeepPreciseErrorsAndSiblingsRun) {
  const GeneratedTrace fleet =
      GenerateTrace(SmallFleetConfig()).ValueOrDie();
  SimOptions options;
  options.train_minutes = kMinutesPerDay;

  std::vector<ScenarioSpec> specs(4);
  specs[0].policy = {"fixed_keepalive", {}};
  specs[1].policy = {"no_such_policy", {}};
  specs[2].policy = {"fixed_keepalive", {{"minuets", 10}}};
  specs[3].policy = {"oracle", {}};
  for (ScenarioSpec& spec : specs) spec.options = options;

  // The progress callback must also see the precise per-slot error.
  size_t failed_callbacks = 0;
  SuiteRunnerOptions runner_options;
  runner_options.progress = [&failed_callbacks](size_t, size_t,
                                                const JobResult& result) {
    if (!result.status.ok()) {
      ++failed_callbacks;
      EXPECT_NE(result.status.code(), StatusCode::kInternal);
      EXPECT_FALSE(result.status.message().empty());
      EXPECT_EQ(result.status.message().find("policy factory"),
                std::string::npos);
    }
  };
  const std::vector<JobResult> results =
      SuiteRunner(runner_options).Run(fleet.trace, specs);
  EXPECT_EQ(failed_callbacks, 2u);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_EQ(results[1].status.code(), StatusCode::kNotFound);
  EXPECT_NE(results[1].status.message().find("no_such_policy"),
            std::string::npos);
  EXPECT_EQ(results[2].status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(results[2].status.message().find("minuets"), std::string::npos);
  EXPECT_TRUE(results[3].status.ok());
  EXPECT_EQ(results[3].label, "Oracle");
}

TEST(ScenarioObserverTest, SpecObserversRideEveryEntryPoint) {
  const GeneratedTrace fleet =
      GenerateTrace(SmallFleetConfig()).ValueOrDie();
  ScenarioSpec spec = SmallScenario({"fixed_keepalive", {{"minutes", 5}}});

  size_t run_minutes = 0;
  CallbackObserver counter([&](const MinuteView& view) {
    (void)view;
    ++run_minutes;
    return true;
  });
  spec.observers = {&counter, nullptr};  // null entries are ignored

  const int window = fleet.trace.num_minutes() - kMinutesPerDay;
  ASSERT_TRUE(RunScenario(fleet.trace, spec).ok());
  EXPECT_EQ(run_minutes, static_cast<size_t>(window));

  run_minutes = 0;
  InMemoryTraceSource source(fleet.trace);
  ASSERT_TRUE(RunScenario(source, spec).ok());
  EXPECT_EQ(run_minutes, static_cast<size_t>(window));

  // The batch forms run the spec on a worker or as a lockstep lane; the
  // observer still sees exactly its own run.
  run_minutes = 0;
  for (const JobResult& r : SuiteRunner().Run(fleet.trace, {spec})) {
    ASSERT_TRUE(r.status.ok());
  }
  EXPECT_EQ(run_minutes, static_cast<size_t>(window));
  run_minutes = 0;
  for (const JobResult& r : SuiteRunner().RunLockstep(fleet.trace, {spec})) {
    ASSERT_TRUE(r.status.ok());
  }
  EXPECT_EQ(run_minutes, static_cast<size_t>(window));
}

TEST(RunLockstepTest, MatchesPerPolicyRunsOverOneWalk) {
  const GeneratedTrace fleet =
      GenerateTrace(SmallFleetConfig()).ValueOrDie();
  std::vector<ScenarioSpec> specs;
  specs.push_back(SmallScenario({"fixed_keepalive", {{"minutes", 10}}}));
  specs.push_back(SmallScenario({"oracle", {}}));
  specs.push_back(SmallScenario({"fixed_keepalive", {{"minutes", 3}}}));

  const std::vector<JobResult> lockstep =
      SuiteRunner().RunLockstep(fleet.trace, specs);
  ASSERT_EQ(lockstep.size(), 3u);
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(lockstep[i].status.ok());
    const ScenarioOutcome solo =
        RunScenario(fleet.trace, specs[i]).ValueOrDie();
    EXPECT_EQ(lockstep[i].outcome.memory_series,
              solo.outcome.memory_series);
    EXPECT_EQ(lockstep[i].outcome.metrics.total_cold_starts,
              solo.outcome.metrics.total_cold_starts);
    // The trained policy instance comes back, as with RunScenario.
    ASSERT_NE(lockstep[i].policy, nullptr);
    EXPECT_EQ(lockstep[i].policy->name(),
              lockstep[i].outcome.metrics.policy_name);
  }
}

TEST(RunLockstepTest, RejectsInvalidSpecNamingSlotAndLabel) {
  const GeneratedTrace fleet =
      GenerateTrace(SmallFleetConfig()).ValueOrDie();
  std::vector<ScenarioSpec> specs;
  specs.push_back(SmallScenario({"oracle", {}}));
  specs.push_back(SmallScenario({"", {}}));
  specs[1].label = "broken";

  const std::vector<JobResult> result =
      SuiteRunner().RunLockstep(fleet.trace, specs);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_TRUE(result[0].status.ok());
  ASSERT_FALSE(result[1].status.ok());
  EXPECT_NE(result[1].status.message().find("policy.name"),
            std::string::npos);
  EXPECT_EQ(result[1].label, "broken");

  EXPECT_TRUE(SuiteRunner().RunLockstep(fleet.trace, {}).empty());
}

TEST(SuiteRunnerSpecBatchTest, ResultsAreIdenticalAtAnyThreadCount) {
  const GeneratedTrace fleet =
      GenerateTrace(SmallFleetConfig()).ValueOrDie();
  SimOptions options;
  options.train_minutes = kMinutesPerDay;

  std::vector<ScenarioSpec> specs;
  for (int theta : {1, 2, 3, 5}) {
    ScenarioSpec spec;
    spec.label = "prewarm=" + std::to_string(theta);
    spec.policy = {"spes", {{"theta_prewarm", theta}}};
    spec.options = options;
    specs.push_back(spec);
  }

  SuiteRunnerOptions serial_options;
  serial_options.num_threads = 1;
  const std::vector<JobResult> serial =
      SuiteRunner(serial_options).Run(fleet.trace, specs);
  SuiteRunnerOptions parallel_options;
  parallel_options.num_threads = 4;
  const std::vector<JobResult> parallel =
      SuiteRunner(parallel_options).Run(fleet.trace, specs);

  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].label, parallel[i].label);
    EXPECT_TRUE(serial[i].status.ok());
    EXPECT_TRUE(parallel[i].status.ok());
    EXPECT_EQ(serial[i].outcome.memory_series,
              parallel[i].outcome.memory_series);
    EXPECT_EQ(serial[i].outcome.metrics.total_cold_starts,
              parallel[i].outcome.metrics.total_cold_starts);
  }
}

TEST(RunScenarioTest, TraceTakingEntryPointsApplyTheSpecChain) {
  // A chained spec over a supplied trace is the same spec without the
  // chain over the transformed trace — for a plain and a cluster spec, in
  // every trace-taking entry point. The spec's own source stays ignored.
  const GeneratedTrace fleet =
      GenerateTrace(SmallFleetConfig()).ValueOrDie();
  const std::vector<TransformSpec> chain =
      ParseTransformChain("load_scale{factor=3.0}").ValueOrDie();
  const Trace stressed = ApplyTransforms(fleet.trace, chain).ValueOrDie();

  const ScenarioSpec plain =
      SmallScenario({"fixed_keepalive", {{"minutes", 10}}});
  ScenarioSpec cluster = plain;
  cluster.cluster = ClusterSpec{};
  cluster.cluster->nodes = 2;
  cluster.cluster->router = ParseRouterSpec("least_loaded").ValueOrDie();

  for (const ScenarioSpec& base : {plain, cluster}) {
    SCOPED_TRACE(base.cluster.has_value() ? "cluster" : "plain");
    const ScenarioOutcome unstressed =
        RunScenario(fleet.trace, base).ValueOrDie();
    const ScenarioOutcome expected = RunScenario(stressed, base).ValueOrDie();
    EXPECT_EQ(expected.outcome.metrics.total_invocations,
              3 * unstressed.outcome.metrics.total_invocations);
    const auto expect_stressed = [&](const SimulationOutcome& run) {
      EXPECT_EQ(run.memory_series, expected.outcome.memory_series);
      EXPECT_EQ(run.metrics.total_invocations,
                expected.outcome.metrics.total_invocations);
      EXPECT_EQ(run.metrics.total_cold_starts,
                expected.outcome.metrics.total_cold_starts);
    };

    ScenarioSpec chained = base;
    chained.trace.transforms = chain;
    const ScenarioOutcome single =
        RunScenario(fleet.trace, chained).ValueOrDie();
    expect_stressed(single.outcome);
    EXPECT_EQ(single.cluster != nullptr, base.cluster.has_value());

    const std::vector<ScenarioSpec> batch = {base, chained};
    const std::vector<JobResult> pooled =
        SuiteRunner({1, nullptr}).Run(fleet.trace, batch);
    const std::vector<JobResult> lockstep =
        SuiteRunner().RunLockstep(fleet.trace, batch);
    for (const std::vector<JobResult>* results : {&pooled, &lockstep}) {
      ASSERT_EQ(results->size(), 2u);
      ASSERT_TRUE((*results)[0].status.ok());
      ASSERT_TRUE((*results)[1].status.ok());
      EXPECT_EQ((*results)[0].outcome.memory_series,
                unstressed.outcome.memory_series);
      expect_stressed((*results)[1].outcome);
    }
  }
}

// ---------------------------------------------------------------------
// Path equivalence: every registered policy, on a plain fleet and on one
// with a rare-function tail, runs the same simulation through every
// entry point.
// ---------------------------------------------------------------------

/// (registered policy name, whether the fleet carries a rare tail)
using PathCase = std::tuple<std::string, bool>;

class PathEquivalenceTest : public testing::TestWithParam<PathCase> {};

TEST_P(PathEquivalenceTest, EveryEntryPointRunsTheSameSimulation) {
  const auto& [policy, rare_tail] = GetParam();
  GeneratorConfig config;
  config.num_functions = 80;
  config.days = 3;
  config.seed = 41;
  if (rare_tail) config.rare_fraction = 0.4;
  ScenarioSpec spec;
  spec.trace = TraceSpec::FromGenerator(config);
  spec.policy = {policy, {}};
  spec.options.train_minutes = kMinutesPerDay;

  const SimulationOutcome reference = RunScenario(spec).ValueOrDie().outcome;
  ASSERT_GT(reference.metrics.total_invocations, 0u);
  const Trace trace = RealizeTrace(spec.trace).ValueOrDie();
  ExpectSameOutcome(reference, RunScenario(trace, spec).ValueOrDie().outcome,
                    "RunScenario(trace, spec)");

  InMemoryTraceSource source(trace);
  ExpectSameOutcome(reference, RunScenario(source, spec).ValueOrDie().outcome,
                    "RunScenario(source, spec)");

  const auto expect_batch = [&](const std::vector<JobResult>& results,
                                const std::string& path) {
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok()) << path << ": "
                                          << results[i].status.ToString();
      ExpectSameOutcome(reference, results[i].outcome,
                        path + " slot " + std::to_string(i));
    }
  };
  const std::vector<ScenarioSpec> batch(4, spec);
  expect_batch(SuiteRunner({1, nullptr}).Run(trace, batch),
               "Run(trace, specs) on 1 thread");
  expect_batch(SuiteRunner({4, nullptr}).Run(trace, batch),
               "Run(trace, specs) on 4 threads");
  expect_batch(SuiteRunner({4, nullptr}).Run(batch),
               "Run(specs) on 4 threads");
  expect_batch(SuiteRunner().RunLockstep(trace, batch), "RunLockstep");

  ScenarioSpec one_node = spec;
  one_node.cluster = ClusterSpec{};
  ExpectSameOutcome(reference,
                    RunScenario(trace, one_node).ValueOrDie().outcome,
                    "1-node cluster");

  // Streamed from packed .spt bytes, as a stream and as a 1-node cluster.
  TraceFileWriter writer =
      TraceFileWriter::Create(trace.num_minutes()).ValueOrDie();
  for (size_t f = 0; f < trace.num_functions(); ++f) {
    writer.Add(trace.function(f).meta, trace.function(f).counts).CheckOK();
  }
  const std::unique_ptr<TraceFileSource> packed =
      TraceFileSource::FromBytes(writer.ToBytes().ValueOrDie()).ValueOrDie();
  ExpectSameOutcome(reference, RunScenario(*packed, spec).ValueOrDie().outcome,
                    "RunScenario(.spt bytes, spec)");
  ExpectSameOutcome(reference,
                    RunScenario(*packed, one_node).ValueOrDie().outcome,
                    "1-node cluster over .spt bytes");

  // Restored from checkpoint bytes taken at a random minute, seeded by the
  // fleet.
  const std::unique_ptr<Policy> first =
      PolicyRegistry::Global().Create(spec.policy).ValueOrDie();
  if (!first->SupportsCheckpoint()) return;
  Rng rng(static_cast<uint64_t>(reference.metrics.total_invocations));
  const int cut = static_cast<int>(
      rng.UniformInt(spec.options.train_minutes, trace.num_minutes()));
  SimStream before =
      SimStream::Create(source, first.get(), spec.options).ValueOrDie();
  ASSERT_TRUE(before.RunUntil(cut).ok());
  const std::string bytes =
      SerializeCheckpoint(before.Checkpoint().ValueOrDie());
  const std::unique_ptr<Policy> second =
      PolicyRegistry::Global().Create(spec.policy).ValueOrDie();
  SimStream after =
      SimStream::Create(source, second.get(), spec.options).ValueOrDie();
  ASSERT_TRUE(after.Restore(ParseCheckpoint(bytes).ValueOrDie()).ok());
  ExpectSameOutcome(reference, after.Finish().ValueOrDie(),
                    "restored at minute " + std::to_string(cut));
}

INSTANTIATE_TEST_SUITE_P(
    RegisteredPolicies, PathEquivalenceTest,
    testing::Combine(testing::ValuesIn(PolicyRegistry::Global().Names()),
                     testing::Bool()),
    [](const testing::TestParamInfo<PathCase>& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) ? "_rare_tail" : "_plain");
    });

}  // namespace
}  // namespace spes
