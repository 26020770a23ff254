// Suite smoke: run a whole policy suite — a vector of ScenarioSpecs —
// over a small generated fleet through the parallel SuiteRunner, with a
// progress callback, and print the cross-policy comparison table.
//
// Build & run:
//   cmake -B build && cmake --build build -j
//   ./build/suite_smoke

#include <cstdio>
#include <vector>

#include "metrics/report.h"
#include "runner/suite_runner.h"
#include "sim/scenario.h"

int main() {
  using namespace spes;

  // 1. A small fleet: 600 functions over 5 days.
  GeneratorConfig generator;
  generator.num_functions = 600;
  generator.days = 5;
  generator.seed = 7;
  const Trace trace =
      RealizeTrace(TraceSpec::FromGenerator(generator)).ValueOrDie();
  std::printf("fleet: %zu functions, %d minutes\n\n",
              trace.num_functions(), trace.num_minutes());

  // 2. Train on the first 3 days, simulate the last 2; one spec per
  //    policy — the whole suite is data.
  SimOptions options;
  options.train_minutes = 3 * kMinutesPerDay;
  std::vector<ScenarioSpec> specs;
  for (const char* policy :
       {"spes", "defuse", "hybrid_histogram{granularity=function}",
        "fixed_keepalive{minutes=10}", "oracle"}) {
    ScenarioSpec spec;
    spec.policy = ParsePolicySpec(policy).ValueOrDie();
    spec.options = options;
    specs.push_back(spec);
  }

  // 3. Fan out across the hardware; report each job as it lands.
  SuiteRunnerOptions runner_options;
  runner_options.progress = [](size_t finished, size_t total,
                               const JobResult& result) {
    std::printf("[%zu/%zu] %-16s %s\n", finished, total, result.label.c_str(),
                result.status.ok() ? "done" : result.status.ToString().c_str());
  };
  SuiteRunner runner(runner_options);
  std::printf("running %zu policies on %d threads\n", specs.size(),
              runner.EffectiveThreads(specs.size()));
  const std::vector<JobResult> results = runner.Run(trace, specs);

  // 4. Comparison table, normalized against SPES.
  std::printf("\n");
  BuildComparisonTable(CollectMetrics(results), "SPES").Print();
  return 0;
}
