// Checkpoint byte goldens: the serialized form of a mid-window checkpoint
// is pinned by size and content hash for every wire format the engine
// writes — SPESCKPT version 1 (single lane and lockstep), SPESCKPT
// version 2 (latency lanes), and SPESCLCK (a capped cluster checkpointed
// after a node failure, with a latency block). Any engine change that
// shifts a checkpoint byte, or a cluster counter across a fail event,
// fails here even when the end-of-run metrics happen to agree.
//
// The wall-clock overhead field differs between any two runs by design,
// so it is zeroed before hashing.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "core/spes_policy.h"
#include "latency/latency.h"
#include "policies/fixed_keepalive.h"
#include "sim/scenario.h"
#include "sim/stream.h"
#include "tests/same_outcome.h"
#include "trace/generator.h"
#include "trace/transform.h"

namespace spes {
namespace {

constexpr int kMidpoint = 3 * kMinutesPerDay;

GeneratorConfig GoldenConfig() {
  GeneratorConfig config;
  config.num_functions = 150;
  config.days = 4;
  config.seed = 99;
  return config;
}

Trace GoldenTrace() {
  return std::move(GenerateTrace(GoldenConfig()).ValueOrDie().trace);
}

SimOptions GoldenOptions() {
  SimOptions options;
  options.train_minutes = 2 * kMinutesPerDay;
  return options;
}

constexpr char kLatencyBlock[] =
    "lognormal{warm_median_ms=40,warm_sigma=0.4} @ "
    "queue{capacity=4,concurrency=1,seed=42,timeout_ms=250}";

/// Serializes with the wall-clock overhead zeroed, so the bytes are a
/// pure function of simulated state.
std::string StableBytes(SimCheckpoint checkpoint) {
  for (SimCheckpoint::Lane& lane : checkpoint.lanes) {
    lane.overhead_seconds = 0.0;
  }
  return SerializeCheckpoint(checkpoint);
}

std::string StableBytes(ClusterCheckpoint checkpoint) {
  for (ClusterCheckpoint::Node& node : checkpoint.nodes) {
    node.overhead_seconds = 0.0;
  }
  return SerializeClusterCheckpoint(checkpoint);
}

TEST(CheckpointGoldenTest, SpesStreamVersion1BytesArePinned) {
  const Trace fleet = GoldenTrace();
  SpesPolicy policy;
  SimStream stream =
      SimStream::Create(fleet, &policy, GoldenOptions()).ValueOrDie();
  ASSERT_TRUE(stream.RunUntil(kMidpoint).ok());
  const std::string bytes = StableBytes(stream.Checkpoint().ValueOrDie());

  EXPECT_EQ(bytes.size(), 120444u);
  EXPECT_EQ(MixNameSeed(bytes, 0), 15091780695851266608u);
}

TEST(CheckpointGoldenTest, LatencyChainStreamVersion2BytesArePinned) {
  TraceSpec trace_spec = TraceSpec::FromGenerator(GoldenConfig());
  trace_spec.transforms =
      ParseTransformChain(
          "load_scale{factor=2.0} | "
          "inject_burst{at=2900,width=15,amplitude=40,fraction=0.25,seed=7}")
          .ValueOrDie();
  const Trace trace = RealizeTrace(trace_spec).ValueOrDie();
  SimOptions options = GoldenOptions();
  options.latency = ParseLatencySpec(kLatencyBlock).ValueOrDie();

  FixedKeepAlivePolicy policy(10);
  SimStream stream = SimStream::Create(trace, &policy, options).ValueOrDie();
  ASSERT_TRUE(stream.RunUntil(kMidpoint).ok());
  const std::string bytes = StableBytes(stream.Checkpoint().ValueOrDie());

  EXPECT_EQ(bytes.size(), 15128u);
  EXPECT_EQ(MixNameSeed(bytes, 0), 17601446605250378237u);
}

TEST(CheckpointGoldenTest, LockstepTwoLaneStreamBytesArePinned) {
  const Trace fleet = GoldenTrace();
  SpesPolicy spes;
  FixedKeepAlivePolicy fixed(10);
  SimStream stream =
      SimStream::Create(fleet, {&spes, &fixed}, GoldenOptions())
          .ValueOrDie();
  ASSERT_TRUE(stream.RunUntil(kMidpoint).ok());
  const std::string bytes = StableBytes(stream.Checkpoint().ValueOrDie());

  EXPECT_EQ(bytes.size(), 133057u);
  EXPECT_EQ(MixNameSeed(bytes, 0), 12749756154190444631u);
}

TEST(CheckpointGoldenTest, CappedClusterAcrossFailBytesAndCountersArePinned) {
  // Four capped locality nodes: node 0 drains, node 1 fails, and a fifth
  // node joins later, so the checkpoint (taken after the fail, before the
  // add) holds a draining, a failed, a pending and two routable nodes.
  const Trace fleet = GoldenTrace();
  ClusterSpec cluster;
  cluster.nodes = 4;
  cluster.node_capacity = 30;
  cluster.router = {"locality", {}};
  cluster.events = ParseNodeEventTimeline(
                       "drain{at=3000,node=0} | fail{at=3300,node=1} | "
                       "add{at=3600}")
                       .ValueOrDie();
  const PolicySpec policy{"spes", {}};
  SimOptions options = GoldenOptions();
  options.latency = ParseLatencySpec(kLatencyBlock).ValueOrDie();
  const int checkpoint_minute = 3450;

  ClusterSession original =
      ClusterSession::Create(fleet, cluster, policy, options).ValueOrDie();
  ASSERT_TRUE(original.RunUntil(checkpoint_minute).ok());
  const ClusterCheckpoint checkpoint = original.Checkpoint().ValueOrDie();
  const std::string bytes = StableBytes(checkpoint);

  EXPECT_EQ(bytes.size(), 225327u);
  EXPECT_EQ(MixNameSeed(bytes, 0), 4164584834437288541u);

  ClusterSession resumed =
      ClusterSession::Create(fleet, cluster, policy, options).ValueOrDie();
  ASSERT_TRUE(
      resumed
          .Restore(ParseClusterCheckpoint(SerializeClusterCheckpoint(
                                              checkpoint))
                       .ValueOrDie())
          .ok());
  const ClusterOutcome from_start = original.Finish().ValueOrDie();
  const ClusterOutcome from_restore = resumed.Finish().ValueOrDie();

  ExpectSameOutcome(from_start.fleet, from_restore.fleet);
  EXPECT_EQ(from_start.reroutes, from_restore.reroutes);
  ASSERT_EQ(from_start.nodes.size(), 5u);
  ASSERT_EQ(from_restore.nodes.size(), 5u);
  const char* const final_states[] = {"draining", "failed", "routable",
                                      "routable", "routable"};
  const uint64_t pressure_evictions[] = {58452u, 14025u, 90910u, 84430u,
                                         66081u};
  const uint64_t cold_starts[] = {427u, 1084u, 7804u, 6883u, 4272u};
  const uint64_t wasted_minutes[] = {59787u, 6680u, 50160u, 49906u,
                                     39918u};
  for (size_t k = 0; k < 5; ++k) {
    const NodeOutcome& a = from_start.nodes[k];
    const NodeOutcome& b = from_restore.nodes[k];
    EXPECT_EQ(a.final_state, final_states[k]) << k;
    EXPECT_EQ(b.final_state, a.final_state) << k;
    EXPECT_EQ(a.pressure_evictions, pressure_evictions[k]) << k;
    EXPECT_EQ(b.pressure_evictions, a.pressure_evictions) << k;
    EXPECT_EQ(a.sim.metrics.total_cold_starts, cold_starts[k]) << k;
    EXPECT_EQ(a.sim.metrics.wasted_memory_minutes, wasted_minutes[k]) << k;
    EXPECT_EQ(b.reroutes_in, a.reroutes_in) << k;
    ExpectSameOutcome(a.sim, b.sim);
  }
  EXPECT_EQ(from_start.reroutes, 45252u);
}

}  // namespace
}  // namespace spes
