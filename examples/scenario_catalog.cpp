// Scenario catalog: registry introspection. Lists every registered policy,
// every registered trace transform, every registered cluster router and
// every registered latency model (plus the `queue{...}` admission schema)
// with its typed parameter schema, defaults and declared value ranges —
// the complete vocabulary available to ScenarioSpecs and spec strings —
// then runs one default-parameter scenario per policy on a small
// generated fleet, and finally one *transformed* scenario end-to-end (the
// same fleet under 2x load with an injected burst).
//
// Build & run:
//   cmake -B build && cmake --build build -j
//   ./build/scenario_catalog

#include <cstdio>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "common/table.h"
#include "core/policy_registry.h"
#include "latency/latency.h"
#include "metrics/report.h"
#include "runner/suite_runner.h"
#include "sim/scenario.h"
#include "trace/transform.h"

namespace {

using namespace spes;

void PrintSchema(const std::string& name, const std::string& summary,
                 const std::vector<ParamSpec>& params) {
  std::printf("%s — %s\n", name.c_str(), summary.c_str());
  if (params.empty()) {
    std::printf("  (no parameters)\n\n");
    return;
  }
  Table table({"parameter", "type", "default", "range", "description"});
  for (const ParamSpec& param : params) {
    const std::string domain = FormatParamDomain(param);
    table.AddRow({param.name, ParamTypeToString(param.type),
                  FormatParamValue(param.default_value),
                  domain.empty() ? "-" : domain, param.description});
  }
  table.Print();
  std::printf("\n");
}

/// Prints a titled catalog of every entry in `registry`, in name order.
template <class Product>
void PrintCatalog(const std::string& title, const Registry<Product>& registry) {
  std::printf("%s\n%s\n\n", title.c_str(),
              std::string(title.size(), '=').c_str());
  for (const std::string& name : registry.Names()) {
    const typename Registry<Product>::Entry* entry = registry.Find(name);
    PrintSchema(name, entry->summary, entry->params);
  }
}

}  // namespace

int main() {
  const PolicyRegistry& policies = PolicyRegistry::Global();

  // 1. The catalog: every canonical name with its parameter schema.
  PrintCatalog("registered policies", policies);
  PrintCatalog("registered trace transforms", TransformRegistry::Global());
  PrintCatalog("registered cluster routers", RouterRegistry::Global());
  PrintCatalog("registered latency models", LatencyModelRegistry::Global());
  // The admission side of a latency block: `<model> @ queue{...}`.
  PrintSchema("queue",
              "per-lane/per-node admission control for latency blocks",
              LatencyQueueParamSchema());

  // 2. One default-parameter scenario per registered policy on a small
  //    fleet (300 functions, 4 days; train 2, simulate 2).
  GeneratorConfig generator;
  generator.num_functions = 300;
  generator.days = 4;
  generator.seed = 7;
  const Trace trace =
      RealizeTrace(TraceSpec::FromGenerator(generator)).ValueOrDie();

  SimOptions options;
  options.train_minutes = 2 * kMinutesPerDay;
  std::vector<ScenarioSpec> specs;
  for (const std::string& name : policies.Names()) {
    ScenarioSpec spec;
    spec.policy.name = name;
    spec.options = options;
    specs.push_back(spec);
  }

  std::printf("running every policy with default parameters on %zu "
              "functions, %d minutes\n\n",
              trace.num_functions(),
              trace.num_minutes());
  const std::vector<JobResult> results =
      SuiteRunner().Run(trace, specs);
  for (const JobResult& result : results) result.status.CheckOK();
  BuildComparisonTable(CollectMetrics(results), "SPES").Print();

  // 3. The same fleet through a transform chain — a stressed scenario as
  //    pure data: RunScenario applies the spec's chain on top of the
  //    supplied trace.
  const char* kChain =
      "load_scale{factor=2.0} | "
      "inject_burst{at=3000,width=20,amplitude=40,fraction=0.25,seed=5}";
  std::printf("\ntransformed scenario: spes on [%s]\n\n", kChain);
  ScenarioSpec stressed;
  stressed.label = "spes / stressed";
  stressed.policy.name = "spes";
  stressed.options = options;
  stressed.trace.transforms = ParseTransformChain(kChain).ValueOrDie();
  ScenarioSpec baseline;
  baseline.label = "spes / base";
  baseline.policy.name = "spes";
  baseline.options = options;
  const ScenarioOutcome base = RunScenario(trace, baseline).ValueOrDie();
  const ScenarioOutcome burst = RunScenario(trace, stressed).ValueOrDie();
  Table stress({"scenario", "invocations", "cold starts", "Q3-CSR",
                "avg memory"});
  for (const auto* run : {&base, &burst}) {
    const FleetMetrics& m = run->outcome.metrics;
    stress.AddRow({run == &base ? "spes / base" : "spes / stressed",
                   std::to_string(m.total_invocations),
                   std::to_string(m.total_cold_starts),
                   FormatDouble(m.q3_csr, 4),
                   FormatDouble(m.average_memory, 1)});
  }
  stress.Print();
  return 0;
}
