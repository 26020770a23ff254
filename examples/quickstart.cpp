// Quickstart: describe a scenario as data — a generated fleet, a train
// window and a policy spec — run it through the Scenario API, and print
// the headline metrics next to the industry-default fixed keep-alive
// policy.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/quickstart

#include <cstdio>

#include "core/spes_policy.h"
#include "metrics/report.h"
#include "sim/scenario.h"
#include "trace/generator.h"

int main() {
  using namespace spes;

  // 1. A fleet of 800 serverless functions over 6 days, calibrated to the
  //    Azure Functions population statistics (trigger mix, heavy-tailed
  //    invocation totals, bursts, workflow chains, concept shifts). The
  //    trace is realized once; every scenario below runs against it.
  GeneratorConfig generator;
  generator.num_functions = 800;
  generator.days = 6;
  generator.seed = 42;
  const Trace trace =
      RealizeTrace(TraceSpec::FromGenerator(generator)).ValueOrDie();
  std::printf("fleet: %zu functions, %zu apps, %zu owners, %d minutes\n\n",
              trace.num_functions(), trace.CountApps(),
              trace.CountOwners(), trace.num_minutes());

  // 2. Train on the first 4 days, simulate the last 2.
  ScenarioSpec scenario;
  scenario.options.train_minutes = 4 * kMinutesPerDay;

  // 3. SPES: categorize every function and provision by prediction.
  scenario.policy = {"spes", {}};
  const ScenarioOutcome spes_run = RunScenario(trace, scenario).ValueOrDie();

  std::printf("SPES function categorization:\n");
  const auto& spes = dynamic_cast<const SpesPolicy&>(*spes_run.policy);
  const auto types = spes.CountByType();
  for (int k = 0; k < kNumFunctionTypes; ++k) {
    if (types[static_cast<size_t>(k)] == 0) continue;
    std::printf("  %-15s %5lld\n",
                FunctionTypeToString(static_cast<FunctionType>(k)),
                static_cast<long long>(types[static_cast<size_t>(k)]));
  }
  std::printf("\n");

  // 4. Baseline for contrast, by spec string: keep instances alive 10
  //    minutes after use.
  scenario.policy = ParsePolicySpec("fixed_keepalive{minutes=10}").ValueOrDie();
  const ScenarioOutcome fixed_run = RunScenario(trace, scenario).ValueOrDie();

  const FleetMetrics& spes_metrics = spes_run.outcome.metrics;
  const FleetMetrics& fixed_metrics = fixed_run.outcome.metrics;
  BuildComparisonTable({spes_metrics, fixed_metrics}, "SPES").Print();

  std::printf(
      "\nSPES cut the 75th-percentile cold-start rate from %.4f to %.4f\n"
      "while keeping average memory at %.1f instances (fixed: %.1f).\n",
      fixed_metrics.q3_csr, spes_metrics.q3_csr,
      spes_metrics.average_memory, fixed_metrics.average_memory);
  return 0;
}
