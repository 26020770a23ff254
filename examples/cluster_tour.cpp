// Cluster tour: a ScenarioSpec with a `cluster` block end to end.
//
// A small generated fleet is sharded across a 4-node cluster with the
// locality router and a per-node memory cap, then survives a lifecycle
// timeline — one node drains, one fails, a replacement joins. The same
// workload also runs as a plain single-fleet scenario and as a 1-node
// cluster to show the cluster layer collapsing to the paper's setting.
//
// Build & run:
//   cmake -B build && cmake --build build -j
//   ./build/cluster_tour

#include <cstdio>
#include <string>

#include "cluster/cluster.h"
#include "common/table.h"
#include "metrics/report.h"
#include "sim/scenario.h"
#include "trace/generator.h"

using namespace spes;

int main() {
  GeneratorConfig generator;
  generator.num_functions = 300;
  generator.days = 4;
  generator.seed = 7;

  SimOptions options;
  options.train_minutes = 2 * kMinutesPerDay;

  // One realized workload, three topologies.
  const Trace trace =
      RealizeTrace(TraceSpec::FromGenerator(generator)).ValueOrDie();

  ScenarioSpec plain;
  plain.label = "single fleet (no cluster)";
  plain.policy = {"spes", {}};
  plain.options = options;

  ScenarioSpec one_node = plain;
  one_node.label = "1-node hash cluster";
  one_node.cluster = ClusterSpec{};  // defaults: 1 node, uncapped, hash

  ScenarioSpec four_node = plain;
  four_node.label = "4-node locality cluster + lifecycle";
  four_node.cluster = ClusterSpec{};
  four_node.cluster->nodes = 4;
  four_node.cluster->node_capacity = 120;
  four_node.cluster->router =
      ParseRouterSpec("locality{pressure=0.9}").ValueOrDie();
  // Minute anchors inside the simulated window (which starts at 2880):
  // drain node 0 after four hours, fail node 1 four hours later, and
  // bring a fresh replacement up at the same minute.
  four_node.cluster->events =
      ParseNodeEventTimeline(
          "drain{at=3120,node=0} | fail{at=3360,node=1} | "
          "add{at=3360,capacity=120}")
          .ValueOrDie();

  std::printf("workload: %zu functions, %d minutes (train %d)\n\n",
              trace.num_functions(), trace.num_minutes(),
              options.train_minutes);

  Table fleet_table({"scenario", "cold starts", "Q3-CSR", "avg mem",
                     "peak mem", "WMT", "reroutes"});
  for (const ScenarioSpec* spec : {&plain, &one_node, &four_node}) {
    const ScenarioOutcome run = RunScenario(trace, *spec).ValueOrDie();
    const FleetMetrics& m = run.outcome.metrics;
    fleet_table.AddRow(
        {spec->label, std::to_string(m.total_cold_starts),
         FormatDouble(m.q3_csr, 4), FormatDouble(m.average_memory, 1),
         std::to_string(m.max_memory),
         std::to_string(m.wasted_memory_minutes),
         run.cluster ? std::to_string(run.cluster->reroutes) : "-"});
    if (spec == &four_node) {
      std::printf("fleet view (single node == plain engine, bit for bit):\n\n");
      fleet_table.Print();

      const ClusterImbalance imbalance =
          ComputeClusterImbalance(*run.cluster);
      std::printf("\nper-node breakdown of '%s'\n(invocation CV %.3f, "
                  "peak/mean %.2f):\n\n",
                  spec->label.c_str(), imbalance.invocation_cv,
                  imbalance.invocation_peak_ratio);
      BuildClusterNodeTable(*run.cluster).Print();
    }
  }

  std::printf(
      "\nwhat happened: the drained node winds down warm instances without\n"
      "a cold-start storm; the failed node's functions re-route and pay\n"
      "cold starts on their new homes; the added node fills up as the\n"
      "locality router spills pressured functions onto it.\n");
  return 0;
}
