// User-visible latency / SLO sweep: policy x concurrency limit under a
// burst-storm workload, through the opt-in latency subsystem
// (latency/latency.h). Every cell is a plain ScenarioSpec whose options
// carry a latency block, fanned out through the trace-less SuiteRunner —
// the stressed trace realizes once, cells run across threads, and
// because every request's service time is a pure function of (function
// name, seed, minute, intra-minute index), the p50/p95/p99 tables are
// bitwise identical at any thread count (checked below).
//
// A second table breaks one 4-node cluster cell down per node: routing
// concentrates the burst on a subset of nodes, so per-node tails and
// shed counts spread far wider than the fleet summary suggests.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_policies.h"
#include "cluster/cluster.h"
#include "common/table.h"
#include "latency/latency.h"
#include "metrics/slo.h"
#include "runner/suite_runner.h"
#include "sim/observers.h"
#include "sim/scenario.h"
#include "trace/transform.h"

namespace {

using namespace spes;

std::vector<TransformSpec> BurstStorm(int train_minutes) {
  return ParseTransformChain(
             "load_scale{factor=2.0} | inject_burst{at=" +
             std::to_string(train_minutes + 240) +
             ",width=30,amplitude=60,fraction=0.2,seed=13}")
      .ValueOrDie();
}

/// One sweep cell: `policy` under `latency_block` over the burst storm.
ScenarioSpec LatencyCell(const GeneratorConfig& config,
                         const SimOptions& options,
                         const std::string& policy,
                         const std::string& policy_label,
                         const std::string& latency_block,
                         const std::string& queue_label) {
  ScenarioSpec spec;
  spec.label = policy_label + " | " + queue_label;
  spec.trace = TraceSpec::FromGenerator(config);
  spec.trace.transforms = BurstStorm(options.train_minutes);
  spec.policy = ParsePolicySpec(policy).ValueOrDie();
  spec.options = options;
  spec.options.latency = ParseLatencySpec(latency_block).ValueOrDie();
  return spec;
}

struct SweepRun {
  std::vector<JobResult> results;
  double wall_seconds = 0.0;
};

SweepRun RunSweep(const std::vector<ScenarioSpec>& specs, int num_threads,
                  SimObserver* progress = nullptr) {
  SuiteRunnerOptions runner_options;
  runner_options.num_threads = num_threads;
  SuiteRunner runner(runner_options);
  std::vector<ScenarioSpec> jobs = specs;
  if (progress != nullptr) {
    for (ScenarioSpec& job : jobs) job.observers.push_back(progress);
  }
  const auto start = std::chrono::steady_clock::now();
  SweepRun run;
  run.results = runner.Run(jobs);
  run.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  for (const JobResult& result : run.results) result.status.CheckOK();
  return run;
}

/// Bitwise comparison of everything the SLO tables are built from.
bool SameLatency(const SweepRun& a, const SweepRun& b) {
  if (a.results.size() != b.results.size()) return false;
  for (size_t i = 0; i < a.results.size(); ++i) {
    const auto& la = a.results[i].outcome.latency;
    const auto& lb = b.results[i].outcome.latency;
    if ((la == nullptr) != (lb == nullptr)) return false;
    if (la != nullptr && !(*la == *lb)) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::OutputFormat format = bench::BenchFormat(argc, argv);
  const GeneratorConfig config = bench::DefaultGeneratorConfig();
  if (!bench::MachineReadable(format)) {
    bench::Banner("bench_latency_slo",
                  "latency subsystem — policy x concurrency limit under a "
                  "burst storm",
                  config);
  }
  const SimOptions options = bench::DefaultSimOptions(config);

  const std::vector<std::pair<std::string, std::string>> policies = {
      {"spes", "spes"},
      {"fixed_keepalive{minutes=10}", "fixed-10min"},
      {"defuse", "defuse"},
  };
  // Unlimited slots price pure service time; the limited cells add queue
  // wait, abandonment, and shedding once the waiters pile up. The
  // single-slot cell serializes the whole lane, so every fat cold draw
  // (~100x a warm one) backs arrivals up past its 250ms timeout.
  const std::vector<std::pair<std::string, std::string>> queues = {
      {"lognormal", "unlimited"},
      {"lognormal @ queue{capacity=256,concurrency=16,seed=42,"
       "timeout_ms=2000}",
       "c=16"},
      {"lognormal @ queue{capacity=256,concurrency=4,seed=42,"
       "timeout_ms=2000}",
       "c=4"},
      {"lognormal @ queue{capacity=64,concurrency=1,seed=42,"
       "timeout_ms=250}",
       "c=1, t/o 250ms"},
  };
  std::vector<ScenarioSpec> specs;
  for (const auto& [policy, policy_label] : policies) {
    for (const auto& [block, queue_label] : queues) {
      specs.push_back(LatencyCell(config, options, policy, policy_label,
                                  block, queue_label));
    }
  }
  // One cluster cell: the 4-node hash cluster shares the same latency
  // block per node, so node queues see only their routed share — and
  // the tight block concentrates the damage on the burst's nodes.
  specs.push_back(LatencyCell(config, options, "spes", "spes",
                              queues[3].first, "c=1, 4-node hash"));
  specs.back().cluster = ClusterSpec{};
  specs.back().cluster->nodes = 4;

  SuiteRunner probe({bench::DefaultBenchThreads(), nullptr});
  const int parallel_threads = probe.EffectiveThreads(specs.size());

  // Progress heartbeats (rate + ETA) ride the serial sweep only — one job
  // at a time, so the lines never interleave. Machine-readable output
  // attaches no observer at all; the 2s wall throttle keeps fast cells
  // from spamming, and stderr keeps stdout pipeable.
  ProgressObserver progress(6 * 60, stderr, /*min_wall_seconds=*/2.0);
  const SweepRun serial = RunSweep(
      specs, 1, bench::MachineReadable(format) ? nullptr : &progress);
  const SweepRun parallel = RunSweep(specs, parallel_threads);
  if (!bench::MachineReadable(format)) {
    std::printf("sweep: %zu latency cells | serial %.2fs | %d threads %.2fs "
                "(speedup %.2fx) | outcomes identical: %s\n\n",
                specs.size(), serial.wall_seconds, parallel_threads,
                parallel.wall_seconds,
                serial.wall_seconds / parallel.wall_seconds,
                SameLatency(serial, parallel) ? "yes" : "NO — BUG");
  }

  std::vector<LatencySloRow> rows;
  rows.reserve(parallel.results.size());
  for (const JobResult& result : parallel.results) {
    rows.push_back({result.label, result.outcome.latency.get()});
  }
  bench::EmitTable(
      "latency SLO: policy x concurrency limit under the burst storm",
      BuildLatencySloTable(rows), format);

  const JobResult& cluster_cell = parallel.results.back();
  bench::EmitTable("per-node SLO breakdown: " + cluster_cell.label,
                   BuildClusterLatencySloTable(*cluster_cell.cluster),
                   format);

  if (!bench::MachineReadable(format)) {
    std::printf(
        "\nexpected shape: with unlimited slots every policy pays only\n"
        "service time, and the p50/p99 gap prices each policy's cold-start\n"
        "rate (cold draws sit ~100x above warm). Tightening concurrency\n"
        "first stretches the p99 (queue wait), then converts the burst's\n"
        "overflow into timeouts and shed load; per-node queues in the\n"
        "cluster cell concentrate that damage on the burst's nodes.\n");
  }
  return 0;
}
