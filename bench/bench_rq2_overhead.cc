// RQ2-2: scheduling overhead — wall-clock seconds each policy spends
// deciding provision per simulated minute. Paper: the fixed keep-alive is
// fastest (0.024 s/min on their workstation at 83k functions); SPES adds
// 0.44 s/min, ~6.8% below FaasCache; histogram policies are the slowest.
// Absolute values depend on fleet size and hardware; compare ordering.
//
// The suite goes through SuiteRunner but defaults to ONE worker thread:
// the overhead clock is wall time around Policy::OnMinute, and concurrent
// sibling policies contending for cores would inflate it non-uniformly.
// Set SPES_BENCH_THREADS>1 only to trade timing fidelity for speed.

#include <cstdio>
#include <map>
#include <string>

#include "bench/bench_common.h"
#include "bench/bench_policies.h"
#include "metrics/report.h"

int main(int argc, char** argv) {
  using namespace spes;
  const bench::OutputFormat format = bench::BenchFormat(argc, argv);
  const GeneratorConfig config = bench::DefaultGeneratorConfig();
  if (!bench::MachineReadable(format)) {
    bench::Banner("bench_rq2_overhead",
                  "RQ2 — provisioning overhead per simulated minute", config);
  }
  const GeneratedTrace fleet = bench::MakeFleet(config);
  const SimOptions options = bench::DefaultSimOptions(config);
  // Serial by default: this bench measures time, so jobs must not contend.
  const int threads = static_cast<int>(GetEnvInt("SPES_BENCH_THREADS", 1));
  const bench::SuiteResult suite =
      bench::RunPolicySuite(fleet.trace, options, {"spes", {}}, threads);

  Table table({"policy", "total overhead (s)", "overhead (s/sim-minute)",
               "complexity per minute"});
  // Per-minute work of each policy's step, by display name. SPES's step is
  // event-driven: arrivals, the functions whose deadline falls due, and
  // those inside a pre-load window.
  const std::map<std::string, std::string> complexity = {
      {"SPES", "O(arrivals + due deadlines + pre-load window)"},
      {"Defuse", "O(n) + histogram updates"},
      {"Hybrid-Function", "O(n) histogram windows"},
      {"Hybrid-Application", "O(apps) histogram windows"},
      {"Fixed-10min", "O(resident) timer scan"},
      {"FaasCache", "O(resident) GDSF scan on pressure"},
  };
  for (const SimulationOutcome& outcome : suite.outcomes) {
    const FleetMetrics& m = outcome.metrics;
    table.AddRow({m.policy_name, FormatDouble(m.overhead_seconds, 3),
                  FormatDouble(m.overhead_seconds_per_minute, 6),
                  complexity.at(m.policy_name)});
  }
  bench::EmitTable("provisioning overhead per policy", table, format);
  if (!bench::MachineReadable(format)) {
    std::printf("expected shape (paper): fixed keep-alive cheapest; SPES's"
                "\nrule-based overhead is inconsequential relative to typical"
                "\nserverless platform latencies.\n");
  }
  return 0;
}
