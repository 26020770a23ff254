// Golden-metrics regression harness: a fixed-seed generated fleet run
// through SPES and the fixed keep-alive baseline must reproduce these
// exact counter and memory-series values. Any engine or policy refactor
// that shifts simulated behaviour — even by one cold start or one loaded
// minute — fails this test loudly instead of silently drifting the paper's
// figures.
//
// If a change *intentionally* alters behaviour, rerun the fleet below,
// confirm the new numbers are correct, and update the goldens in the same
// commit with a note in CHANGES.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>

#include "cluster/cluster.h"
#include "core/policy_registry.h"
#include "core/spes_policy.h"
#include "latency/latency.h"
#include "obs/recorder.h"
#include "obs/run_log.h"
#include "policies/fixed_keepalive.h"
#include "runner/suite_runner.h"
#include "sim/engine.h"
#include "sim/reference_kernel.h"
#include "sim/scenario.h"
#include "sim/stream.h"
#include "tests/same_outcome.h"
#include "trace/generator.h"
#include "trace/transform.h"

namespace spes {
namespace {

/// The golden fleet: small enough to simulate in well under a second,
/// large enough to exercise every generator archetype and SPES rule.
Trace GoldenTrace() {
  GeneratorConfig config;
  config.num_functions = 150;
  config.days = 4;
  config.seed = 99;
  return std::move(GenerateTrace(config).ValueOrDie().trace);
}

SimOptions GoldenOptions() {
  SimOptions options;
  options.train_minutes = 2 * kMinutesPerDay;
  return options;
}

/// The accounting identities of sim/accounting.h hold on every golden
/// run, single lane or cluster.
void ExpectOutcomeInvariants(const ScenarioOutcome& run) {
  const Status lane = CheckOutcomeInvariants(run.outcome);
  EXPECT_TRUE(lane.ok()) << lane.message();
  if (run.cluster != nullptr) {
    const Status cluster = CheckOutcomeInvariants(*run.cluster);
    EXPECT_TRUE(cluster.ok()) << cluster.message();
  }
}

SimulationOutcome RunGoldenFleet(Policy* policy) {
  const Trace fleet = GoldenTrace();
  SimulationOutcome outcome =
      Simulate(fleet, policy, GoldenOptions()).ValueOrDie();
  const Status invariants = CheckOutcomeInvariants(outcome);
  EXPECT_TRUE(invariants.ok()) << invariants.message();
  return outcome;
}

uint64_t SeriesSum(const std::vector<uint32_t>& series) {
  return std::accumulate(series.begin(), series.end(), uint64_t{0});
}

TEST(GoldenMetricsTest, SpesReproducesGoldenValues) {
  SpesPolicy spes;
  const SimulationOutcome outcome = RunGoldenFleet(&spes);
  const FleetMetrics& m = outcome.metrics;

  EXPECT_EQ(m.policy_name, "SPES");
  EXPECT_EQ(m.total_invocations, 505234u);
  EXPECT_EQ(m.total_cold_starts, 631u);
  EXPECT_EQ(m.wasted_memory_minutes, 82418u);
  EXPECT_EQ(m.loaded_instance_minutes, 212568u);
  EXPECT_EQ(m.max_memory, 87u);
  EXPECT_EQ(m.csr.size(), 147u);
  EXPECT_DOUBLE_EQ(m.q3_csr, 0.051625753660637382);
  EXPECT_DOUBLE_EQ(m.median_csr, 8.730574471800244e-05);
  EXPECT_DOUBLE_EQ(m.average_memory, 73.808333333333337);
  EXPECT_DOUBLE_EQ(m.emcr, 0.61227466034398403);

  ASSERT_EQ(outcome.memory_series.size(), 2880u);
  EXPECT_EQ(SeriesSum(outcome.memory_series), 212568u);
  EXPECT_EQ(outcome.memory_series.front(), 72u);
  EXPECT_EQ(outcome.memory_series[1440], 74u);
  EXPECT_EQ(outcome.memory_series.back(), 72u);

  const FunctionAccount& first = outcome.accounts[0];
  EXPECT_EQ(first.invocations, 10792u);
  EXPECT_EQ(first.cold_starts, 1u);
  EXPECT_EQ(first.loaded_minutes, 2880u);
  EXPECT_EQ(first.wasted_minutes, 141u);
}

TEST(GoldenMetricsTest, FixedKeepaliveReproducesGoldenValues) {
  FixedKeepAlivePolicy fixed(10);
  const SimulationOutcome outcome = RunGoldenFleet(&fixed);
  const FleetMetrics& m = outcome.metrics;

  EXPECT_EQ(m.policy_name, "Fixed-10min");
  EXPECT_EQ(m.total_invocations, 505234u);
  EXPECT_EQ(m.total_cold_starts, 1574u);
  EXPECT_EQ(m.wasted_memory_minutes, 79870u);
  EXPECT_EQ(m.loaded_instance_minutes, 210020u);
  EXPECT_EQ(m.max_memory, 84u);
  EXPECT_EQ(m.csr.size(), 147u);
  EXPECT_DOUBLE_EQ(m.q3_csr, 1.0);
  EXPECT_DOUBLE_EQ(m.median_csr, 0.04878048780487805);
  EXPECT_DOUBLE_EQ(m.average_memory, 72.923611111111114);
  EXPECT_DOUBLE_EQ(m.emcr, 0.61970288543948193);

  ASSERT_EQ(outcome.memory_series.size(), 2880u);
  EXPECT_EQ(SeriesSum(outcome.memory_series), 210020u);
  EXPECT_EQ(outcome.memory_series.front(), 43u);
  EXPECT_EQ(outcome.memory_series[1440], 79u);
  EXPECT_EQ(outcome.memory_series.back(), 71u);
}

TEST(GoldenMetricsTest, NaiveReferenceKernelReproducesGoldenValues) {
  // The kept per-function reference loop must hit the exact same pinned
  // numbers as the columnar kernel behind Simulate()/SimStream — both
  // implementations are anchored to one golden truth.
  SpesPolicy spes;
  const Trace fleet = GoldenTrace();
  const SimulationOutcome outcome =
      SimulateReference(fleet, &spes, GoldenOptions()).ValueOrDie();
  const FleetMetrics& m = outcome.metrics;
  EXPECT_EQ(m.total_invocations, 505234u);
  EXPECT_EQ(m.total_cold_starts, 631u);
  EXPECT_EQ(m.wasted_memory_minutes, 82418u);
  EXPECT_EQ(m.loaded_instance_minutes, 212568u);
  EXPECT_EQ(m.max_memory, 87u);
  EXPECT_DOUBLE_EQ(m.q3_csr, 0.051625753660637382);
  ASSERT_EQ(outcome.memory_series.size(), 2880u);
  EXPECT_EQ(outcome.memory_series.front(), 72u);
  EXPECT_EQ(outcome.memory_series.back(), 72u);
  EXPECT_EQ(outcome.accounts[0].invocations, 10792u);
  EXPECT_EQ(outcome.accounts[0].loaded_minutes, 2880u);
  EXPECT_EQ(outcome.accounts[0].wasted_minutes, 141u);
}

TEST(GoldenMetricsTest, RegistryBuiltSpesMatchesDirectConstructionBitwise) {
  SpesPolicy direct;
  const SimulationOutcome direct_outcome = RunGoldenFleet(&direct);

  const std::unique_ptr<Policy> from_registry =
      PolicyRegistry::Global().Create({"spes", {}}).ValueOrDie();
  const SimulationOutcome registry_outcome =
      RunGoldenFleet(from_registry.get());

  ExpectSameOutcome(direct_outcome, registry_outcome);
  // Anchor against the goldens above, not just each other.
  EXPECT_EQ(registry_outcome.metrics.total_cold_starts, 631u);
  EXPECT_EQ(SeriesSum(registry_outcome.memory_series), 212568u);
}

TEST(GoldenMetricsTest,
     RegistryBuiltFixedKeepaliveMatchesDirectConstructionBitwise) {
  FixedKeepAlivePolicy direct(10);
  const SimulationOutcome direct_outcome = RunGoldenFleet(&direct);

  const std::unique_ptr<Policy> from_registry =
      PolicyRegistry::Global()
          .CreateFromString("fixed_keepalive{minutes=10}")
          .ValueOrDie();
  const SimulationOutcome registry_outcome =
      RunGoldenFleet(from_registry.get());

  ExpectSameOutcome(direct_outcome, registry_outcome);
  EXPECT_EQ(registry_outcome.metrics.total_cold_starts, 1574u);
  EXPECT_EQ(SeriesSum(registry_outcome.memory_series), 210020u);
}

TEST(GoldenMetricsTest, TransformedChainReproducesGoldenValues) {
  // The golden fleet under a stress chain: 2x load plus a flash crowd in
  // the simulation window. Pins that the transform pipeline itself is
  // deterministic end to end — the chain realizes the exact same workload
  // (and therefore the exact same simulation) on every run.
  GeneratorConfig config;
  config.num_functions = 150;
  config.days = 4;
  config.seed = 99;

  ScenarioSpec spec;
  spec.trace = TraceSpec::FromGenerator(config);
  spec.trace.transforms =
      ParseTransformChain(
          "load_scale{factor=2.0} | "
          "inject_burst{at=2900,width=15,amplitude=40,fraction=0.25,seed=7}")
          .ValueOrDie();
  spec.policy = {"fixed_keepalive", {{"minutes", 10}}};
  spec.options.train_minutes = 2 * kMinutesPerDay;

  const ScenarioOutcome run = RunScenario(spec).ValueOrDie();
  const FleetMetrics& m = run.outcome.metrics;
  EXPECT_EQ(m.policy_name, "Fixed-10min");
  EXPECT_EQ(m.total_invocations, 1031468u);
  EXPECT_EQ(m.total_cold_starts, 1588u);
  EXPECT_EQ(m.wasted_memory_minutes, 79913u);
  EXPECT_EQ(m.loaded_instance_minutes, 210407u);
  EXPECT_EQ(m.max_memory, 91u);
  ASSERT_EQ(run.outcome.memory_series.size(), 2880u);
  EXPECT_EQ(SeriesSum(run.outcome.memory_series), 210407u);

  // And the same spec realizes bitwise the same workload again.
  const ScenarioOutcome again = RunScenario(spec).ValueOrDie();
  ExpectSameOutcome(run.outcome, again.outcome);
}

// ---------------------------------------------------------------------
// Streaming-vs-batch equivalence: the SimStream session API must
// reproduce the Simulate() goldens above bit for bit, however the
// window is driven — full run, checkpoint + restore at mid-window, or
// lockstep multi-policy lanes.
// ---------------------------------------------------------------------

TEST(GoldenMetricsTest, StreamedFullRunMatchesBatchGoldens) {
  const Trace fleet = GoldenTrace();

  SpesPolicy spes;
  SimStream spes_stream =
      SimStream::Create(fleet, &spes, GoldenOptions()).ValueOrDie();
  const SimulationOutcome spes_outcome = spes_stream.Finish().ValueOrDie();
  EXPECT_EQ(spes_outcome.metrics.total_cold_starts, 631u);
  EXPECT_EQ(SeriesSum(spes_outcome.memory_series), 212568u);

  SpesPolicy spes_batch;
  ExpectSameOutcome(RunGoldenFleet(&spes_batch), spes_outcome);

  // Step-by-step driving is the same engine: alternate single steps and
  // RunUntil hops, then finish.
  FixedKeepAlivePolicy fixed(10);
  SimStream fixed_stream =
      SimStream::Create(fleet, &fixed, GoldenOptions()).ValueOrDie();
  EXPECT_TRUE(fixed_stream.Step().ok());
  EXPECT_TRUE(fixed_stream.RunUntil(3 * kMinutesPerDay).ok());
  EXPECT_TRUE(fixed_stream.Step().ok());
  const SimulationOutcome fixed_outcome =
      fixed_stream.Finish().ValueOrDie();
  EXPECT_EQ(fixed_outcome.metrics.total_cold_starts, 1574u);
  EXPECT_EQ(SeriesSum(fixed_outcome.memory_series), 210020u);

  FixedKeepAlivePolicy fixed_batch(10);
  ExpectSameOutcome(RunGoldenFleet(&fixed_batch), fixed_outcome);
}

TEST(GoldenMetricsTest, CheckpointRestoreMidWindowMatchesBatchGoldens) {
  const Trace fleet = GoldenTrace();
  // Mid-window: one simulated day in, one to go.
  const int midpoint = 3 * kMinutesPerDay;

  {
    SpesPolicy original;
    SimStream first =
        SimStream::Create(fleet, &original, GoldenOptions()).ValueOrDie();
    EXPECT_TRUE(first.RunUntil(midpoint).ok());
    // Through bytes, as a cross-process resume would go.
    const std::string bytes =
        SerializeCheckpoint(first.Checkpoint().ValueOrDie());

    SpesPolicy fresh;
    SimStream second =
        SimStream::Create(fleet, &fresh, GoldenOptions()).ValueOrDie();
    EXPECT_TRUE(
        second.Restore(ParseCheckpoint(bytes).ValueOrDie()).ok());
    const SimulationOutcome resumed = second.Finish().ValueOrDie();
    EXPECT_EQ(resumed.metrics.total_cold_starts, 631u);
    EXPECT_EQ(resumed.metrics.wasted_memory_minutes, 82418u);
    EXPECT_EQ(SeriesSum(resumed.memory_series), 212568u);

    SpesPolicy batch;
    ExpectSameOutcome(RunGoldenFleet(&batch), resumed);
  }
  {
    FixedKeepAlivePolicy original(10);
    SimStream first =
        SimStream::Create(fleet, &original, GoldenOptions()).ValueOrDie();
    EXPECT_TRUE(first.RunUntil(midpoint).ok());
    const SimCheckpoint checkpoint = first.Checkpoint().ValueOrDie();

    FixedKeepAlivePolicy fresh(10);
    SimStream second =
        SimStream::Create(fleet, &fresh, GoldenOptions()).ValueOrDie();
    EXPECT_TRUE(second.Restore(checkpoint).ok());
    const SimulationOutcome resumed = second.Finish().ValueOrDie();
    EXPECT_EQ(resumed.metrics.total_cold_starts, 1574u);
    EXPECT_EQ(SeriesSum(resumed.memory_series), 210020u);

    FixedKeepAlivePolicy batch(10);
    ExpectSameOutcome(RunGoldenFleet(&batch), resumed);
  }
}

TEST(GoldenMetricsTest, LockstepLanesMatchBatchGoldensOverOneTraceWalk) {
  const Trace fleet = GoldenTrace();
  SpesPolicy spes;
  FixedKeepAlivePolicy fixed(10);
  SimStream stream =
      SimStream::Create(fleet, {&spes, &fixed}, GoldenOptions())
          .ValueOrDie();
  const std::vector<SimulationOutcome> outcomes =
      stream.FinishAll().ValueOrDie();

  // One shared arrival decode per minute for both lanes.
  EXPECT_EQ(stream.minutes_decoded(), 2880);

  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].metrics.total_cold_starts, 631u);
  EXPECT_EQ(SeriesSum(outcomes[0].memory_series), 212568u);
  EXPECT_EQ(outcomes[1].metrics.total_cold_starts, 1574u);
  EXPECT_EQ(SeriesSum(outcomes[1].memory_series), 210020u);

  SpesPolicy spes_batch;
  FixedKeepAlivePolicy fixed_batch(10);
  ExpectSameOutcome(RunGoldenFleet(&spes_batch), outcomes[0]);
  ExpectSameOutcome(RunGoldenFleet(&fixed_batch), outcomes[1]);
}

TEST(GoldenMetricsTest, Fig13StyleLockstepSweepMatchesPerPolicyGoldens) {
  // A miniature Fig. 13 sweep routed through SuiteRunner::RunLockstep:
  // one trace walk for the whole grid, results bitwise identical to the
  // per-policy thread-pool path and anchored to the goldens above.
  const Trace fleet = GoldenTrace();
  std::vector<ScenarioSpec> grid;
  for (const char* spec : {"spes", "spes{theta_prewarm=5}",
                           "fixed_keepalive{minutes=10}"}) {
    ScenarioSpec scenario;
    scenario.policy = ParsePolicySpec(spec).ValueOrDie();
    scenario.options = GoldenOptions();
    grid.push_back(std::move(scenario));
  }

  SuiteRunner runner({1, nullptr});
  const std::vector<JobResult> pooled = runner.Run(fleet, grid);
  const std::vector<JobResult> lockstep = runner.RunLockstep(fleet, grid);

  ASSERT_EQ(pooled.size(), lockstep.size());
  for (size_t i = 0; i < pooled.size(); ++i) {
    ASSERT_TRUE(pooled[i].status.ok()) << pooled[i].status.ToString();
    ASSERT_TRUE(lockstep[i].status.ok()) << lockstep[i].status.ToString();
    EXPECT_EQ(pooled[i].label, lockstep[i].label);
    ExpectSameOutcome(pooled[i].outcome, lockstep[i].outcome);
  }
  // Anchor against the absolute goldens, not just each other.
  EXPECT_EQ(lockstep[0].outcome.metrics.total_cold_starts, 631u);
  EXPECT_EQ(SeriesSum(lockstep[0].outcome.memory_series), 212568u);
  EXPECT_EQ(lockstep[2].outcome.metrics.total_cold_starts, 1574u);
  EXPECT_EQ(SeriesSum(lockstep[2].outcome.memory_series), 210020u);
}

// ---------------------------------------------------------------------
// Cluster goldens: the cluster layer (cluster/cluster.h) must collapse
// to the plain engine for a single node, and the sharded fleet must
// reproduce these exact counters — routing, per-node accounting and
// node events are all deterministic.
// ---------------------------------------------------------------------

ScenarioSpec GoldenClusterSpec(int nodes) {
  ScenarioSpec spec;
  spec.policy = {"spes", {}};
  spec.options = GoldenOptions();
  spec.cluster = ClusterSpec{};
  spec.cluster->nodes = nodes;
  return spec;
}

TEST(GoldenMetricsTest, SingleNodeHashClusterMatchesBatchGoldensBitwise) {
  const Trace fleet = GoldenTrace();
  const ScenarioOutcome run =
      RunScenario(fleet, GoldenClusterSpec(1)).ValueOrDie();

  SpesPolicy batch;
  ExpectSameOutcome(RunGoldenFleet(&batch), run.outcome);
  EXPECT_EQ(run.outcome.metrics.total_cold_starts, 631u);
  EXPECT_EQ(SeriesSum(run.outcome.memory_series), 212568u);

  ASSERT_NE(run.cluster, nullptr);
  EXPECT_EQ(run.cluster->nodes.size(), 1u);
  EXPECT_EQ(run.cluster->reroutes, 0u);
  ExpectSameOutcome(run.cluster->nodes[0].sim, run.outcome);
}

TEST(GoldenMetricsTest, FourNodeHashClusterReproducesGoldenValues) {
  const Trace fleet = GoldenTrace();
  const ScenarioOutcome run =
      RunScenario(fleet, GoldenClusterSpec(4)).ValueOrDie();
  ExpectOutcomeInvariants(run);
  const FleetMetrics& m = run.outcome.metrics;

  // Sharding splits each node's arrival stream, so per-node SPES models
  // see less history (more cold starts) and every routing-unaware node
  // pre-warms its full predicted set (more memory + waste) — the
  // motivating observation for per-node capacity pressure.
  EXPECT_EQ(m.policy_name, "SPES");
  EXPECT_EQ(m.total_invocations, 505234u);
  EXPECT_EQ(m.total_cold_starts, 1535u);
  EXPECT_EQ(m.wasted_memory_minutes, 576460u);
  EXPECT_EQ(m.loaded_instance_minutes, 706610u);
  EXPECT_EQ(m.max_memory, 290u);
  EXPECT_DOUBLE_EQ(m.q3_csr, 0.10325027085590466);
  EXPECT_DOUBLE_EQ(m.emcr, 0.18418929819844043);

  ASSERT_EQ(run.outcome.memory_series.size(), 2880u);
  EXPECT_EQ(run.outcome.memory_series.front(), 261u);
  EXPECT_EQ(SeriesSum(run.outcome.memory_series), 706610u);

  ASSERT_NE(run.cluster, nullptr);
  ASSERT_EQ(run.cluster->nodes.size(), 4u);
  EXPECT_EQ(run.cluster->reroutes, 0u);  // hash is stable: nothing moves
  const uint64_t node_invocations[] = {124002u, 144464u, 113387u, 123381u};
  const uint64_t node_cold_starts[] = {190u, 796u, 413u, 136u};
  for (size_t k = 0; k < 4; ++k) {
    const NodeOutcome& node = run.cluster->nodes[k];
    EXPECT_EQ(node.final_state, "routable");
    EXPECT_EQ(node.sim.metrics.total_invocations, node_invocations[k]) << k;
    EXPECT_EQ(node.sim.metrics.total_cold_starts, node_cold_starts[k]) << k;
    EXPECT_EQ(node.pressure_evictions, 0u);  // uncapped
  }
}

TEST(GoldenMetricsTest, NodeFailEventReroutesWithColdStartConsequences) {
  const Trace fleet = GoldenTrace();
  // Node 1 dies one simulated day in (minute 3360 = 2 days train + 1 day).
  ScenarioSpec spec = GoldenClusterSpec(4);
  spec.cluster->events =
      ParseNodeEventTimeline("fail{at=3360,node=1}").ValueOrDie();
  const ScenarioOutcome run = RunScenario(fleet, spec).ValueOrDie();
  ExpectOutcomeInvariants(run);

  ASSERT_NE(run.cluster, nullptr);
  // Every function node 1 served re-routes (mod-3 rehash) and pays a
  // cold start on its new home: strictly worse than the stable cluster.
  EXPECT_EQ(run.outcome.metrics.total_cold_starts, 1987u);
  EXPECT_EQ(run.cluster->reroutes, 102u);
  const NodeOutcome& failed = run.cluster->nodes[1];
  EXPECT_EQ(failed.final_state, "failed");
  // The failed node's memory is lost at the fail minute and stays empty.
  ASSERT_EQ(failed.sim.memory_series.size(), 2880u);
  EXPECT_GT(failed.sim.memory_series[3360 - 2880 - 1], 0u);
  for (size_t i = 3360 - 2880; i < failed.sim.memory_series.size(); ++i) {
    EXPECT_EQ(failed.sim.memory_series[i], 0u) << i;
  }
  // Invocations are conserved: re-routing moves work, never drops it.
  EXPECT_EQ(run.outcome.metrics.total_invocations, 505234u);
}

TEST(GoldenMetricsTest, ClusterSuiteIsBitwiseDeterministicAcrossThreads) {
  const Trace fleet = GoldenTrace();
  std::vector<ScenarioSpec> specs;
  specs.push_back(GoldenClusterSpec(4));
  specs.back().label = "hash4";
  specs.push_back(GoldenClusterSpec(4));
  specs.back().label = "least4";
  specs.back().cluster->router = {"least_loaded", {}};
  specs.push_back(GoldenClusterSpec(2));
  specs.back().label = "locality2-pressure";
  specs.back().cluster->router = {"locality", {{"pressure", 0.9}}};
  specs.back().cluster->node_capacity = 60;
  specs.back().cluster->events =
      ParseNodeEventTimeline("drain{at=3600,node=0} | add{at=3600}")
          .ValueOrDie();

  const std::vector<JobResult> serial =
      SuiteRunner({1, nullptr}).Run(fleet, specs);
  const std::vector<JobResult> parallel =
      SuiteRunner({4, nullptr}).Run(fleet, specs);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].status.ok()) << serial[i].status.ToString();
    ASSERT_TRUE(parallel[i].status.ok()) << parallel[i].status.ToString();
    ExpectSameOutcome(serial[i].outcome, parallel[i].outcome);
    ASSERT_NE(serial[i].cluster, nullptr);
    ASSERT_NE(parallel[i].cluster, nullptr);
    ASSERT_EQ(serial[i].cluster->nodes.size(),
              parallel[i].cluster->nodes.size());
    EXPECT_EQ(serial[i].cluster->reroutes, parallel[i].cluster->reroutes);
    for (size_t k = 0; k < serial[i].cluster->nodes.size(); ++k) {
      const NodeOutcome& a = serial[i].cluster->nodes[k];
      const NodeOutcome& b = parallel[i].cluster->nodes[k];
      EXPECT_EQ(a.final_state, b.final_state);
      EXPECT_EQ(a.pressure_evictions, b.pressure_evictions);
      EXPECT_EQ(a.reroutes_in, b.reroutes_in);
      ExpectSameOutcome(a.sim, b.sim);
    }
  }
  // The hash cluster anchors against the absolute goldens above.
  EXPECT_EQ(serial[0].outcome.metrics.total_cold_starts, 1535u);
  EXPECT_EQ(SeriesSum(serial[0].outcome.memory_series), 706610u);
}

// ---------------------------------------------------------------------
// Latency subsystem goldens: the same stress chain as above with an
// opt-in latency block. Two contracts at once: the engine-side counters
// must match the latency-free goldens exactly (the subsystem observes
// the run without perturbing it), and the SLO summary itself is pinned —
// any change to sampling, queueing or histogram geometry fails loudly.
// ---------------------------------------------------------------------

constexpr char kLatencyChain[] =
    "load_scale{factor=2.0} | "
    "inject_burst{at=2900,width=15,amplitude=40,fraction=0.25,seed=7}";
/// Tight enough (one slot, 4 queue slots, 250ms patience) that the burst
/// produces all three admission classes: served, timed out, shed.
constexpr char kLatencyBlock[] =
    "lognormal{warm_median_ms=40,warm_sigma=0.4} @ "
    "queue{capacity=4,concurrency=1,seed=42,timeout_ms=250}";

ScenarioSpec LatencyChainSpec() {
  GeneratorConfig config;
  config.num_functions = 150;
  config.days = 4;
  config.seed = 99;
  ScenarioSpec spec;
  spec.trace = TraceSpec::FromGenerator(config);
  spec.trace.transforms = ParseTransformChain(kLatencyChain).ValueOrDie();
  spec.policy = {"fixed_keepalive", {{"minutes", 10}}};
  spec.options.train_minutes = 2 * kMinutesPerDay;
  spec.options.latency = ParseLatencySpec(kLatencyBlock).ValueOrDie();
  return spec;
}

ScenarioSpec LatencyClusterSpec() {
  ScenarioSpec spec = LatencyChainSpec();
  spec.policy = {"spes", {}};
  spec.cluster = ClusterSpec{};
  spec.cluster->nodes = 4;
  return spec;
}

TEST(GoldenMetricsTest, LatencyEnabledChainReproducesGoldenValues) {
  const ScenarioOutcome run = RunScenario(LatencyChainSpec()).ValueOrDie();
  ExpectOutcomeInvariants(run);

  // Engine-side counters match TransformedChainReproducesGoldenValues
  // bit for bit: enabling the latency block perturbs nothing.
  const FleetMetrics& m = run.outcome.metrics;
  EXPECT_EQ(m.total_invocations, 1031468u);
  EXPECT_EQ(m.total_cold_starts, 1588u);
  EXPECT_EQ(m.wasted_memory_minutes, 79913u);
  EXPECT_EQ(m.loaded_instance_minutes, 210407u);
  EXPECT_EQ(m.max_memory, 91u);

  ASSERT_NE(run.outcome.latency, nullptr);
  const LatencyOutcome& l = *run.outcome.latency;
  EXPECT_EQ(l.offered(), 1031468u);  // every arrival is accounted for
  EXPECT_EQ(l.served, 1020800u);
  EXPECT_EQ(l.cold_served, 1502u);  // cold arrivals whose first request ran
  EXPECT_EQ(l.timeouts, 5266u);
  EXPECT_EQ(l.shed, 5402u);
  EXPECT_EQ(l.histogram.TotalCount(), l.served);
  EXPECT_DOUBLE_EQ(l.p50_ms, 40.448);
  EXPECT_DOUBLE_EQ(l.p95_ms, 87.040000000000006);
  EXPECT_DOUBLE_EQ(l.p99_ms, 202.75200000000001);
  EXPECT_DOUBLE_EQ(l.max_ms, 4346.7759999999998);
  EXPECT_EQ(l.max_queue_depth, 4u);  // pinned at capacity: sheds happened
  EXPECT_EQ(l.queue_depth_series.size(), 2880u);
}

TEST(GoldenMetricsTest, LatencyEnabledFourNodeClusterReproducesGoldenValues) {
  const ScenarioOutcome run = RunScenario(LatencyClusterSpec()).ValueOrDie();
  ExpectOutcomeInvariants(run);
  EXPECT_EQ(run.outcome.metrics.total_invocations, 1031468u);
  EXPECT_EQ(run.outcome.metrics.total_cold_starts, 1556u);
  ASSERT_NE(run.cluster, nullptr);
  EXPECT_EQ(run.cluster->reroutes, 0u);

  // Fleet summary: per-node queues see only their routed quarter of the
  // load, so far fewer requests time out than in the single-lane run.
  ASSERT_NE(run.outcome.latency, nullptr);
  const LatencyOutcome& fleet = *run.outcome.latency;
  EXPECT_EQ(fleet.offered(), 1031468u);
  EXPECT_EQ(fleet.served, 1030521u);
  EXPECT_EQ(fleet.cold_served, 1554u);
  EXPECT_EQ(fleet.timeouts, 947u);
  EXPECT_EQ(fleet.shed, 0u);
  EXPECT_DOUBLE_EQ(fleet.p50_ms, 40.448);
  EXPECT_DOUBLE_EQ(fleet.p95_ms, 76.799999999999997);
  EXPECT_DOUBLE_EQ(fleet.p99_ms, 105.47199999999999);
  EXPECT_DOUBLE_EQ(fleet.max_ms, 4013.0100000000002);
  EXPECT_EQ(fleet.max_queue_depth, 1u);

  // Per-node breakdown: the hash split concentrates the burst's queueing
  // damage (node 1 pays 577 of the 947 timeouts).
  ASSERT_EQ(run.cluster->nodes.size(), 4u);
  const uint64_t node_served[] = {252104u, 294951u, 230800u, 252666u};
  const uint64_t node_timeouts[] = {100u, 577u, 174u, 96u};
  const uint64_t node_cold_served[] = {192u, 802u, 417u, 143u};
  uint64_t served_sum = 0, timeout_sum = 0;
  for (size_t k = 0; k < 4; ++k) {
    const NodeOutcome& node = run.cluster->nodes[k];
    ASSERT_NE(node.sim.latency, nullptr) << k;
    EXPECT_EQ(node.sim.latency->served, node_served[k]) << k;
    EXPECT_EQ(node.sim.latency->timeouts, node_timeouts[k]) << k;
    EXPECT_EQ(node.sim.latency->cold_served, node_cold_served[k]) << k;
    EXPECT_EQ(node.sim.latency->shed, 0u) << k;
    served_sum += node.sim.latency->served;
    timeout_sum += node.sim.latency->timeouts;
  }
  EXPECT_EQ(served_sum, fleet.served);
  EXPECT_EQ(timeout_sum, fleet.timeouts);
}

TEST(GoldenMetricsTest, LatencySuiteIsBitwiseDeterministicAcrossThreads) {
  std::vector<ScenarioSpec> specs = {LatencyChainSpec(),
                                     LatencyClusterSpec()};
  const std::vector<JobResult> serial = SuiteRunner({1, nullptr}).Run(specs);
  const std::vector<JobResult> parallel =
      SuiteRunner({4, nullptr}).Run(specs);
  ASSERT_EQ(serial.size(), 2u);
  ASSERT_EQ(parallel.size(), 2u);
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].status.ok()) << serial[i].status.ToString();
    ASSERT_TRUE(parallel[i].status.ok()) << parallel[i].status.ToString();
    ASSERT_NE(serial[i].outcome.latency, nullptr);
    ASSERT_NE(parallel[i].outcome.latency, nullptr);
    EXPECT_EQ(*serial[i].outcome.latency, *parallel[i].outcome.latency) << i;
  }
  // Anchored to the absolute goldens above.
  EXPECT_EQ(serial[0].outcome.latency->timeouts, 5266u);
  EXPECT_EQ(serial[1].outcome.latency->timeouts, 947u);
}

TEST(GoldenMetricsTest, LatencyStreamCheckpointRestoreMatchesGoldens) {
  const ScenarioSpec spec = LatencyChainSpec();
  const Trace trace = RealizeTrace(spec.trace).ValueOrDie();
  const int midpoint = 3 * kMinutesPerDay;  // inside the burst's aftermath

  FixedKeepAlivePolicy original_policy(10);
  SimStream original =
      SimStream::Create(trace, &original_policy, spec.options).ValueOrDie();
  ASSERT_TRUE(original.RunUntil(midpoint).ok());
  const std::string bytes =
      SerializeCheckpoint(original.Checkpoint().ValueOrDie());

  FixedKeepAlivePolicy fresh_policy(10);
  SimStream resumed =
      SimStream::Create(trace, &fresh_policy, spec.options).ValueOrDie();
  ASSERT_TRUE(resumed.Restore(ParseCheckpoint(bytes).ValueOrDie()).ok());
  const SimulationOutcome from_start = original.Finish().ValueOrDie();
  const SimulationOutcome from_restore = resumed.Finish().ValueOrDie();

  ASSERT_NE(from_start.latency, nullptr);
  ASSERT_NE(from_restore.latency, nullptr);
  EXPECT_EQ(*from_start.latency, *from_restore.latency);
  ExpectSameOutcome(from_start, from_restore);
  EXPECT_EQ(from_restore.latency->served, 1020800u);
  EXPECT_EQ(from_restore.latency->timeouts, 5266u);
  EXPECT_EQ(from_restore.latency->shed, 5402u);
}

TEST(GoldenMetricsTest, LatencyClusterCheckpointRestoreMatchesGoldens) {
  const ScenarioSpec spec = LatencyClusterSpec();
  const Trace trace = RealizeTrace(spec.trace).ValueOrDie();
  const int midpoint = 3 * kMinutesPerDay;

  ClusterSession original =
      ClusterSession::Create(trace, *spec.cluster, spec.policy, spec.options)
          .ValueOrDie();
  ASSERT_TRUE(original.RunUntil(midpoint).ok());
  const std::string bytes =
      SerializeClusterCheckpoint(original.Checkpoint().ValueOrDie());

  ClusterSession resumed =
      ClusterSession::Create(trace, *spec.cluster, spec.policy, spec.options)
          .ValueOrDie();
  ASSERT_TRUE(
      resumed.Restore(ParseClusterCheckpoint(bytes).ValueOrDie()).ok());
  const ClusterOutcome from_start = original.Finish().ValueOrDie();
  const ClusterOutcome from_restore = resumed.Finish().ValueOrDie();

  ASSERT_NE(from_start.fleet.latency, nullptr);
  ASSERT_NE(from_restore.fleet.latency, nullptr);
  EXPECT_EQ(*from_start.fleet.latency, *from_restore.fleet.latency);
  ExpectSameOutcome(from_start.fleet, from_restore.fleet);
  ASSERT_EQ(from_restore.nodes.size(), 4u);
  for (size_t k = 0; k < 4; ++k) {
    ASSERT_NE(from_start.nodes[k].sim.latency, nullptr) << k;
    ASSERT_NE(from_restore.nodes[k].sim.latency, nullptr) << k;
    EXPECT_EQ(*from_start.nodes[k].sim.latency,
              *from_restore.nodes[k].sim.latency)
        << k;
  }
  // Anchored to the cluster goldens above.
  EXPECT_EQ(from_restore.fleet.latency->served, 1030521u);
  EXPECT_EQ(from_restore.fleet.latency->timeouts, 947u);
  EXPECT_EQ(from_restore.nodes[1].sim.latency->timeouts, 577u);
}

// ---------------------------------------------------------------------
// Observability goldens: attaching a RunRecorder (obs/recorder.h) must
// never perturb the simulation. Each shape of run — plain batch,
// lockstep lanes, sharded cluster — is replayed with a recorder attached
// and must stay bitwise identical to the recorder-free goldens above,
// while the run log itself parses and samples the documented sim-minute
// boundaries.
// ---------------------------------------------------------------------

TEST(GoldenMetricsTest, RecorderAttachedBatchRunMatchesGoldensBitwise) {
  const Trace fleet = GoldenTrace();

  StringLogSink sink;
  RunRecorder::Options rec_options;
  rec_options.label = "golden batch";
  RunRecorder recorder(&sink, rec_options);
  SimOptions options = GoldenOptions();
  options.recorder = &recorder;

  SpesPolicy recorded_policy;
  const SimulationOutcome recorded =
      Simulate(fleet, &recorded_policy, options).ValueOrDie();
  recorder.Finish();

  SpesPolicy plain_policy;
  ExpectSameOutcome(RunGoldenFleet(&plain_policy), recorded);
  EXPECT_EQ(recorded.metrics.total_cold_starts, 631u);
  EXPECT_EQ(SeriesSum(recorded.memory_series), 212568u);

  // The emitted log parses and has the documented shape: train +
  // simulate + finish spans, and 2880 simulated minutes at the default
  // 60-minute stride = 48 heartbeats whose final sample carries the
  // full-run totals (heartbeats are pure functions of sim state).
  const ParsedRunLog log = ParseRunLog(sink.contents()).ValueOrDie();
  EXPECT_EQ(log.label, "golden batch");
  EXPECT_TRUE(log.saw_run_end);
  ASSERT_EQ(log.spans.size(), 3u);
  EXPECT_EQ(log.spans[0].name, "train");
  EXPECT_EQ(log.spans[1].name, "simulate");
  EXPECT_EQ(log.spans[2].name, "finish");
  ASSERT_EQ(log.heartbeats.size(), 48u);
  EXPECT_EQ(log.heartbeats.back().invocations, 505234u);
  EXPECT_EQ(log.heartbeats.back().cold_starts, 631u);
  EXPECT_EQ(log.heartbeats.back().loaded_instance_minutes, 212568u);
  // Decoder counters tally decoded arrival records and 240-minute
  // blocks (columnar.h), not raw invocation counts — pinned all the
  // same: they are a pure function of the seed-99 workload.
  EXPECT_EQ(log.decoder.blocks, 12u);
  EXPECT_EQ(log.decoder.invocations, 132950u);
}

TEST(GoldenMetricsTest, RecorderAttachedLockstepLanesMatchGoldensBitwise) {
  const Trace fleet = GoldenTrace();

  StringLogSink sink;
  RunRecorder recorder(&sink);
  SimOptions options = GoldenOptions();
  options.recorder = &recorder;

  SpesPolicy spes;
  FixedKeepAlivePolicy fixed(10);
  SimStream stream =
      SimStream::Create(fleet, {&spes, &fixed}, options).ValueOrDie();
  const std::vector<SimulationOutcome> outcomes =
      stream.FinishAll().ValueOrDie();
  recorder.Finish();

  ASSERT_EQ(outcomes.size(), 2u);
  SpesPolicy spes_batch;
  FixedKeepAlivePolicy fixed_batch(10);
  ExpectSameOutcome(RunGoldenFleet(&spes_batch), outcomes[0]);
  ExpectSameOutcome(RunGoldenFleet(&fixed_batch), outcomes[1]);
  EXPECT_EQ(outcomes[0].metrics.total_cold_starts, 631u);
  EXPECT_EQ(outcomes[1].metrics.total_cold_starts, 1574u);

  // Two lanes: one train span each, one shared simulate + finish span,
  // and 48 heartbeats per lane tagged with the lane index.
  const ParsedRunLog log = ParseRunLog(sink.contents()).ValueOrDie();
  EXPECT_EQ(log.spans.size(), 4u);
  ASSERT_EQ(log.heartbeats.size(), 96u);
  uint64_t lane_totals[2] = {0, 0};
  for (const HeartbeatRecord& hb : log.heartbeats) {
    ASSERT_TRUE(hb.lane == 0 || hb.lane == 1);
    lane_totals[hb.lane] =
        std::max<uint64_t>(lane_totals[hb.lane], hb.cold_starts);
  }
  EXPECT_EQ(lane_totals[0], 631u);
  EXPECT_EQ(lane_totals[1], 1574u);
}

TEST(GoldenMetricsTest, RecorderAttachedFourNodeClusterMatchesGoldensBitwise) {
  const Trace fleet = GoldenTrace();

  const ScenarioOutcome plain =
      RunScenario(fleet, GoldenClusterSpec(4)).ValueOrDie();

  StringLogSink sink;
  RunRecorder recorder(&sink);
  ScenarioSpec spec = GoldenClusterSpec(4);
  spec.options.recorder = &recorder;
  const ScenarioOutcome recorded = RunScenario(fleet, spec).ValueOrDie();
  recorder.Finish();

  ExpectSameOutcome(plain.outcome, recorded.outcome);
  EXPECT_EQ(recorded.outcome.metrics.total_cold_starts, 1535u);
  EXPECT_EQ(SeriesSum(recorded.outcome.memory_series), 706610u);
  ASSERT_NE(recorded.cluster, nullptr);
  ASSERT_EQ(recorded.cluster->nodes.size(), 4u);
  const uint64_t node_cold_starts[] = {190u, 796u, 413u, 136u};
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(recorded.cluster->nodes[k].sim.metrics.total_cold_starts,
              node_cold_starts[k])
        << k;
    ExpectSameOutcome(plain.cluster->nodes[k].sim,
                      recorded.cluster->nodes[k].sim);
  }

  // Node heartbeats ride the lane field: every node reports, and each
  // node's final sample matches its pinned per-node counters.
  const ParsedRunLog log = ParseRunLog(sink.contents()).ValueOrDie();
  EXPECT_TRUE(log.saw_run_end);
  EXPECT_GE(log.spans.size(), 1u);
  uint64_t node_finals[4] = {0, 0, 0, 0};
  for (const HeartbeatRecord& hb : log.heartbeats) {
    ASSERT_GE(hb.lane, 0);
    ASSERT_LT(hb.lane, 4);
    node_finals[hb.lane] =
        std::max<uint64_t>(node_finals[hb.lane], hb.cold_starts);
  }
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(node_finals[k], node_cold_starts[k]) << k;
  }
}

TEST(GoldenMetricsTest, RecorderAttachedCheckpointBytesMatchDisabledPath) {
  // Checkpoint emission is observability only: the serialized bytes of a
  // recorder-attached stream are byte-identical to the disabled path
  // (modulo the wall-clock overhead field, which differs between any two
  // runs by design), and resuming from them still lands on the goldens.
  const Trace fleet = GoldenTrace();
  const int midpoint = 3 * kMinutesPerDay;

  SpesPolicy plain_policy;
  SimStream plain =
      SimStream::Create(fleet, &plain_policy, GoldenOptions()).ValueOrDie();
  ASSERT_TRUE(plain.RunUntil(midpoint).ok());
  SimCheckpoint plain_checkpoint = plain.Checkpoint().ValueOrDie();

  StringLogSink sink;
  RunRecorder recorder(&sink);
  SimOptions options = GoldenOptions();
  options.recorder = &recorder;
  SpesPolicy recorded_policy;
  SimStream recorded =
      SimStream::Create(fleet, &recorded_policy, options).ValueOrDie();
  ASSERT_TRUE(recorded.RunUntil(midpoint).ok());
  SimCheckpoint recorded_checkpoint = recorded.Checkpoint().ValueOrDie();
  const std::string recorded_bytes =
      SerializeCheckpoint(recorded_checkpoint);

  for (auto& lane : plain_checkpoint.lanes) lane.overhead_seconds = 0.0;
  for (auto& lane : recorded_checkpoint.lanes) lane.overhead_seconds = 0.0;
  EXPECT_EQ(SerializeCheckpoint(plain_checkpoint),
            SerializeCheckpoint(recorded_checkpoint));

  // Resume the recorded stream's checkpoint on a recorder-free stream.
  SpesPolicy fresh;
  SimStream resumed =
      SimStream::Create(fleet, &fresh, GoldenOptions()).ValueOrDie();
  ASSERT_TRUE(
      resumed.Restore(ParseCheckpoint(recorded_bytes).ValueOrDie()).ok());
  const SimulationOutcome outcome = resumed.Finish().ValueOrDie();
  EXPECT_EQ(outcome.metrics.total_cold_starts, 631u);
  EXPECT_EQ(SeriesSum(outcome.memory_series), 212568u);

  ASSERT_TRUE(recorded.Finish().ok());
  recorder.Finish();
  const ParsedRunLog log = ParseRunLog(sink.contents()).ValueOrDie();
  EXPECT_EQ(log.checkpoint_saves, 1u);
}

TEST(GoldenMetricsTest, BothPoliciesSeeTheSameWorkload) {
  // The goldens above encode it, but assert the invariant directly: the
  // trace (and thus the arrival stream) is policy-independent.
  SpesPolicy spes;
  FixedKeepAlivePolicy fixed(10);
  const SimulationOutcome a = RunGoldenFleet(&spes);
  const SimulationOutcome b = RunGoldenFleet(&fixed);
  EXPECT_EQ(a.metrics.total_invocations, b.metrics.total_invocations);
  ASSERT_EQ(a.accounts.size(), b.accounts.size());
  for (size_t f = 0; f < a.accounts.size(); ++f) {
    EXPECT_EQ(a.accounts[f].invocations, b.accounts[f].invocations);
    EXPECT_EQ(a.accounts[f].invoked_minutes, b.accounts[f].invoked_minutes);
  }
}

}  // namespace
}  // namespace spes
