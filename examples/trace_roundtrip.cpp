// Working with the Azure Functions 2019 trace format.
//
// This example writes a synthetic fleet in the exact public-dataset CSV
// schema (one invocations_per_function_md.anon.dNN.csv per day), reads it
// back, and runs SPES on the re-loaded trace — the same path you would use
// to run this library on the real Microsoft Azure dataset: drop the
// dataset's CSVs into a directory and point ReadAzureTraceDir at it.

#include <cstdio>
#include <filesystem>

#include "sim/scenario.h"
#include "trace/azure_csv.h"
#include "trace/generator.h"

int main() {
  using namespace spes;

  GeneratorConfig config;
  config.num_functions = 300;
  config.days = 4;
  config.seed = 99;
  const GeneratedTrace fleet = GenerateTrace(config).ValueOrDie();

  const std::string dir =
      (std::filesystem::temp_directory_path() / "spes_example_trace")
          .string();
  WriteAzureTraceDir(fleet.trace, dir).CheckOK();
  std::printf("wrote %d day files to %s\n", config.days, dir.c_str());
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::printf("  %s (%lld bytes)\n",
                entry.path().filename().string().c_str(),
                static_cast<long long>(entry.file_size()));
  }

  // Read it back through a fully declarative scenario: the CSV directory
  // is the trace source — exactly how the real dataset would be loaded.
  ScenarioSpec scenario;
  scenario.trace = TraceSpec::FromAzureCsvDir(dir);
  scenario.policy = {"spes", {}};
  scenario.options.train_minutes = (config.days - 1) * kMinutesPerDay;

  const Trace trace = RealizeTrace(scenario.trace).ValueOrDie();
  std::printf("\nreloaded: %zu functions, %d minutes, %zu apps\n",
              trace.num_functions(), trace.num_minutes(), trace.CountApps());

  const ScenarioOutcome run = RunScenario(trace, scenario).ValueOrDie();
  const FleetMetrics& metrics = run.outcome.metrics;
  std::printf(
      "\nSPES on the reloaded trace: Q3-CSR %.4f, always-cold %.2f%%, "
      "avg memory %.1f instances\n",
      metrics.q3_csr, metrics.always_cold_fraction * 100.0,
      metrics.average_memory);

  std::filesystem::remove_all(dir);
  std::printf("\n(to run on the real dataset: download the Azure Functions"
              "\n 2019 trace and call ReadAzureTraceDir on its directory)\n");
  return 0;
}
