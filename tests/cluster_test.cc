// Cluster subsystem tests: RouterRegistry schemas and errors, the
// node-event grammar, ClusterSpec validation, routing semantics of the
// built-in strategies, per-node capacity pressure, node lifecycle events,
// and the Scenario/SuiteRunner integration points. The exact-counter
// cluster goldens live in golden_metrics_test.cc.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/router.h"
#include "metrics/report.h"
#include "runner/suite_runner.h"
#include "sim/observers.h"
#include "sim/scenario.h"
#include "trace/trace.h"

namespace spes {
namespace {

// ---------------------------------------------------------------------
// RouterRegistry
// ---------------------------------------------------------------------

TEST(RouterRegistryTest, BuiltinRoutersAreRegistered) {
  const RouterRegistry& registry = RouterRegistry::Global();
  EXPECT_TRUE(registry.Contains("hash"));
  EXPECT_TRUE(registry.Contains("least_loaded"));
  EXPECT_TRUE(registry.Contains("locality"));
  const std::vector<std::string> names = registry.Names();
  EXPECT_EQ(names, (std::vector<std::string>{"hash", "least_loaded",
                                             "locality"}));
  const RouterRegistry::Entry* entry = registry.Find("locality");
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->params.size(), 2u);
  EXPECT_EQ(entry->params[0].name, "pressure");
}

TEST(RouterRegistryTest, UnknownRouterListsAlternatives) {
  const Result<std::unique_ptr<Router>> result =
      RouterRegistry::Global().Create({"round_robin", {}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("hash, least_loaded, locality"),
            std::string::npos);
}

TEST(RouterRegistryTest, RejectsUnknownAndIllTypedParameters) {
  const Result<std::unique_ptr<Router>> unknown =
      RouterRegistry::Global().Create({"hash", {{"buckets", 4}}});
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.status().message().find("buckets"), std::string::npos);

  const Result<std::unique_ptr<Router>> ill_typed =
      RouterRegistry::Global().Create({"locality", {{"pressure", "high"}}});
  ASSERT_FALSE(ill_typed.ok());
  EXPECT_EQ(ill_typed.status().code(), StatusCode::kInvalidArgument);

  const Result<std::unique_ptr<Router>> out_of_domain =
      RouterRegistry::Global().Create({"locality", {{"pressure", 1.5}}});
  ASSERT_FALSE(out_of_domain.ok());
  EXPECT_NE(out_of_domain.status().message().find("pressure"),
            std::string::npos);
}

TEST(RouterRegistryTest, SpecStringRoundTrips) {
  const RouterSpec spec =
      ParseRouterSpec("locality{pressure=0.9,seed=7}").ValueOrDie();
  EXPECT_EQ(spec.name, "locality");
  EXPECT_EQ(FormatNamedSpec(spec), "locality{pressure=0.9,seed=7}");
  const std::unique_ptr<Router> router =
      RouterRegistry::Global().CreateFromString("least_loaded").ValueOrDie();
  EXPECT_EQ(router->name(), "least_loaded");
}

// ---------------------------------------------------------------------
// Router semantics (routers are pure functions of the RoutingContext)
// ---------------------------------------------------------------------

std::vector<NodeView> MakeViews(const std::vector<size_t>& loads,
                                int capacity = 0) {
  std::vector<NodeView> views;
  for (size_t k = 0; k < loads.size(); ++k) {
    views.push_back({static_cast<int>(k), true, capacity, loads[k]});
  }
  return views;
}

RoutingContext MakeContext(const std::string& name,
                           const std::vector<NodeView>& views,
                           int previous = -1) {
  RoutingContext context;
  context.function = 0;
  context.function_name = &name;
  context.previous_node = previous;
  context.nodes = &views;
  return context;
}

TEST(RouterSemanticsTest, HashIsStableAndRespectsRoutableSet) {
  const std::unique_ptr<Router> router =
      RouterRegistry::Global().CreateFromString("hash").ValueOrDie();
  std::vector<NodeView> views = MakeViews({0, 0, 0, 0});
  const std::string name = "fn-abc";
  const int first = router->Route(MakeContext(name, views));
  EXPECT_EQ(router->Route(MakeContext(name, views)), first);  // stable
  // Previous assignment is irrelevant: hash is purely functional.
  EXPECT_EQ(router->Route(MakeContext(name, views, (first + 1) % 4)), first);
  // Knocking the chosen node out re-routes to a still-routable node.
  views[static_cast<size_t>(first)].routable = false;
  const int rerouted = router->Route(MakeContext(name, views));
  EXPECT_NE(rerouted, first);
  EXPECT_TRUE(views[static_cast<size_t>(rerouted)].routable);
}

TEST(RouterSemanticsTest, HashSpreadsDistinctNames) {
  const std::unique_ptr<Router> router =
      RouterRegistry::Global().CreateFromString("hash").ValueOrDie();
  const std::vector<NodeView> views = MakeViews({0, 0, 0, 0});
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 64; ++i) {
    const std::string name = "fn-" + std::to_string(i);
    ++hits[static_cast<size_t>(router->Route(MakeContext(name, views)))];
  }
  for (int h : hits) EXPECT_GT(h, 0);  // every node gets some share
}

TEST(RouterSemanticsTest, LeastLoadedPicksMinimumAndStaysSticky) {
  const std::unique_ptr<Router> router =
      RouterRegistry::Global().CreateFromString("least_loaded").ValueOrDie();
  const std::string name = "fn";
  const std::vector<NodeView> views = MakeViews({5, 2, 2, 9});
  // Minimum load, ties to the lowest id.
  EXPECT_EQ(router->Route(MakeContext(name, views)), 1);
  // A live previous assignment wins regardless of load.
  EXPECT_EQ(router->Route(MakeContext(name, views, 3)), 3);
}

TEST(RouterSemanticsTest, LocalityStaysUntilPressuredThenSpills) {
  const std::unique_ptr<Router> router = RouterRegistry::Global()
                                             .CreateFromString(
                                                 "locality{pressure=0.8}")
                                             .ValueOrDie();
  const std::string name = "fn";
  // Home node 0 under threshold (7 < 0.8 * 10): stay.
  EXPECT_EQ(router->Route(MakeContext(name, MakeViews({7, 0}, 10), 0)), 0);
  // Home node at threshold (8 >= 0.8 * 10): spill to the least loaded
  // node with headroom.
  EXPECT_EQ(router->Route(MakeContext(name, MakeViews({8, 3}, 10), 0)), 1);
  // Every node pressured: overall least loaded wins.
  EXPECT_EQ(router->Route(MakeContext(name, MakeViews({9, 8}, 10), 0)), 1);
  // Uncapped nodes are never pressured.
  EXPECT_EQ(router->Route(MakeContext(name, MakeViews({900, 0}, 0), 0)), 0);
}

// ---------------------------------------------------------------------
// Node-event grammar
// ---------------------------------------------------------------------

TEST(NodeEventTest, ParsesEveryKind) {
  const NodeEvent fail = ParseNodeEvent("fail{at=2980,node=1}").ValueOrDie();
  EXPECT_EQ(fail.kind, NodeEvent::Kind::kFail);
  EXPECT_EQ(fail.minute, 2980);
  EXPECT_EQ(fail.node, 1);

  const NodeEvent drain = ParseNodeEvent("drain{at=10,node=0}").ValueOrDie();
  EXPECT_EQ(drain.kind, NodeEvent::Kind::kDrain);

  const NodeEvent add = ParseNodeEvent("add{at=3000,capacity=40}").ValueOrDie();
  EXPECT_EQ(add.kind, NodeEvent::Kind::kAdd);
  EXPECT_EQ(add.capacity, 40);
  const NodeEvent add_default = ParseNodeEvent("add{at=3000}").ValueOrDie();
  EXPECT_EQ(add_default.capacity, -1);  // cluster default
}

TEST(NodeEventTest, RejectsBadEvents) {
  EXPECT_FALSE(ParseNodeEvent("reboot{at=10,node=0}").ok());
  EXPECT_FALSE(ParseNodeEvent("fail{node=0}").ok());          // missing at
  EXPECT_FALSE(ParseNodeEvent("fail{at=10}").ok());           // missing node
  EXPECT_FALSE(ParseNodeEvent("add{at=10,node=2}").ok());     // add has no node
  EXPECT_FALSE(ParseNodeEvent("fail{at=10,node=0,capacity=4}").ok());
  EXPECT_FALSE(ParseNodeEvent("fail{at=-1,node=0}").ok());
  EXPECT_FALSE(ParseNodeEvent("fail{at=ten,node=0}").ok());   // ill-typed
  // Values past INT_MAX are rejected, not silently truncated.
  EXPECT_FALSE(ParseNodeEvent("fail{at=4294967296,node=0}").ok());
  EXPECT_FALSE(ParseNodeEvent("add{at=10,capacity=4294967296}").ok());
  const Status missing = ParseNodeEvent("drain{at=10}").status();
  EXPECT_NE(missing.message().find("node"), std::string::npos);
}

TEST(NodeEventTest, TimelineRoundTrips) {
  const std::string text =
      "drain{at=2900,node=0} | fail{at=2980,node=1} | add{at=3000,capacity=8}";
  const std::vector<NodeEvent> events =
      ParseNodeEventTimeline(text).ValueOrDie();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(FormatNodeEventTimeline(events), text);
  EXPECT_TRUE(ParseNodeEventTimeline("  ").ValueOrDie().empty());
  EXPECT_FALSE(ParseNodeEventTimeline("fail{at=1,node=0} | ").ok());
}

// ---------------------------------------------------------------------
// ClusterSpec validation
// ---------------------------------------------------------------------

TEST(ClusterSpecTest, ValidatesStructure) {
  ClusterSpec spec;
  EXPECT_TRUE(ValidateClusterSpec(spec).ok());

  spec.nodes = 0;
  EXPECT_NE(ValidateClusterSpec(spec).message().find("nodes"),
            std::string::npos);
  spec.nodes = 2;
  spec.node_capacity = -1;
  EXPECT_NE(ValidateClusterSpec(spec).message().find("node_capacity"),
            std::string::npos);
}

TEST(ClusterSpecTest, ValidatesCodeBuiltEventsAgainstTheEventSchemas) {
  // Events built in code get the domains the timeline parser enforces.
  ClusterSpec spec;
  spec.nodes = 2;
  NodeEvent event;
  event.kind = NodeEvent::Kind::kFail;
  event.minute = -1;
  spec.events = {event};
  Status status = ValidateClusterSpec(spec);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("minute must be in [0, 2147483647]"),
            std::string::npos)
      << status.message();
  spec.events[0].minute = 10;
  spec.events[0].node = -1;
  status = ValidateClusterSpec(spec);
  EXPECT_NE(status.message().find("node must be in [0, 2147483647]"),
            std::string::npos)
      << status.message();
  event.kind = NodeEvent::Kind::kAdd;
  event.minute = 10;
  event.capacity = -2;
  spec.events = {event};
  status = ValidateClusterSpec(spec);
  EXPECT_NE(status.message().find("capacity must be in [0, 2147483647]"),
            std::string::npos)
      << status.message();
  spec.events[0].capacity = -1;  // the cluster default
  EXPECT_TRUE(ValidateClusterSpec(spec).ok());
}

TEST(ClusterSpecTest, ValidatesEventTimelineAgainstEvolvingNodeSet) {
  ClusterSpec spec;
  spec.nodes = 2;

  // Sorted, in-range, alive targets: OK — including a target id that
  // only exists because an add precedes it.
  spec.events = ParseNodeEventTimeline(
                    "drain{at=100,node=0} | add{at=200} | fail{at=300,node=2}")
                    .ValueOrDie();
  EXPECT_TRUE(ValidateClusterSpec(spec).ok());

  // Unsorted.
  spec.events =
      ParseNodeEventTimeline("fail{at=200,node=0} | drain{at=100,node=1}")
          .ValueOrDie();
  EXPECT_NE(ValidateClusterSpec(spec).message().find("sorted"),
            std::string::npos);

  // Out-of-range target.
  spec.events = ParseNodeEventTimeline("fail{at=100,node=5}").ValueOrDie();
  EXPECT_NE(ValidateClusterSpec(spec).message().find("out of range"),
            std::string::npos);

  // Double drain / fail-after-fail.
  spec.events =
      ParseNodeEventTimeline("drain{at=100,node=0} | drain{at=200,node=0}")
          .ValueOrDie();
  EXPECT_NE(ValidateClusterSpec(spec).message().find("already draining"),
            std::string::npos);
  spec.events =
      ParseNodeEventTimeline("fail{at=100,node=0} | fail{at=200,node=0}")
          .ValueOrDie();
  EXPECT_NE(ValidateClusterSpec(spec).message().find("already failed"),
            std::string::npos);

  // Removing the last routable node.
  spec.events =
      ParseNodeEventTimeline("fail{at=100,node=0} | drain{at=200,node=1}")
          .ValueOrDie();
  EXPECT_NE(ValidateClusterSpec(spec).message().find("no routable node"),
            std::string::npos);
  // A draining node may still fail.
  spec.events = ParseNodeEventTimeline(
                    "add{at=50} | drain{at=100,node=0} | fail{at=200,node=0}")
                    .ValueOrDie();
  EXPECT_TRUE(ValidateClusterSpec(spec).ok());
}

// ---------------------------------------------------------------------
// ClusterSession semantics on hand-built fleets
// ---------------------------------------------------------------------

/// A fleet where function f arrives every `period[f]` minutes (offset so
/// minute 0 counts arrivals for every function).
Trace MakeFleet(const std::vector<int>& periods, int minutes) {
  Trace trace(minutes);
  for (size_t f = 0; f < periods.size(); ++f) {
    FunctionTrace function;
    function.meta.owner = "owner";
    function.meta.app = "app" + std::to_string(f);
    function.meta.name = "fn" + std::to_string(f);
    function.meta.trigger = TriggerType::kHttp;
    function.counts.assign(static_cast<size_t>(minutes), 0);
    for (int t = 0; t < minutes; t += periods[f]) {
      function.counts[static_cast<size_t>(t)] = 1;
    }
    trace.Add(std::move(function)).CheckOK();
  }
  return trace;
}

ScenarioSpec KeepAliveClusterSpec(int nodes, const std::string& router) {
  ScenarioSpec spec;
  spec.policy = ParsePolicySpec("fixed_keepalive{minutes=10}").ValueOrDie();
  spec.options.train_minutes = 0;
  spec.cluster = ClusterSpec{};
  spec.cluster->nodes = nodes;
  spec.cluster->router = ParseRouterSpec(router).ValueOrDie();
  return spec;
}

TEST(ClusterSessionTest, LeastLoadedSpreadsSimultaneousArrivals) {
  // Two always-on functions arrive in the same minute: the projected
  // load bump routes them to different nodes, deterministically f0 ->
  // node 0, f1 -> node 1.
  const Trace trace = MakeFleet({1, 1}, 60);
  const ScenarioOutcome run =
      RunScenario(trace, KeepAliveClusterSpec(2, "least_loaded"))
          .ValueOrDie();
  ASSERT_NE(run.cluster, nullptr);
  EXPECT_EQ(run.cluster->nodes[0].sim.metrics.total_invocations, 60u);
  EXPECT_EQ(run.cluster->nodes[1].sim.metrics.total_invocations, 60u);
  EXPECT_EQ(run.cluster->nodes[0].sim.accounts[0].invocations, 60u);
  EXPECT_EQ(run.cluster->nodes[1].sim.accounts[1].invocations, 60u);
  // One cold start each, then sticky and warm.
  EXPECT_EQ(run.outcome.metrics.total_cold_starts, 2u);
  EXPECT_EQ(run.cluster->reroutes, 0u);
}

TEST(ClusterSessionTest, CapacityPressureEvictsIdleInstancesLru) {
  // One node, capacity 1: f0 arrives every minute (executing, pinned,
  // never evictable), f1 every 3rd minute. The keep-alive policy holds
  // f1 warm, but pressure evicts it the first idle minute, so every f1
  // arrival cold-starts.
  const Trace trace = MakeFleet({1, 3}, 90);
  ScenarioSpec spec = KeepAliveClusterSpec(1, "hash");
  spec.cluster->node_capacity = 1;
  const ScenarioOutcome run = RunScenario(trace, spec).ValueOrDie();
  ASSERT_NE(run.cluster, nullptr);
  const NodeOutcome& node = run.cluster->nodes[0];
  EXPECT_EQ(node.sim.accounts[0].cold_starts, 1u);  // f0 stays resident
  EXPECT_EQ(node.sim.accounts[1].cold_starts, 30u);  // every arrival cold
  EXPECT_EQ(node.pressure_evictions, 30u);  // evicted after each arrival
  // The arrival minute itself holds both instances (executions occupy
  // memory above capacity); every other minute fits the cap.
  EXPECT_EQ(node.sim.metrics.max_memory, 2u);
}

TEST(ClusterSessionTest, RestoreRejectsLastUsedOutsideTheElapsedWindow) {
  // A last_used stamp at or past the cursor would make an idle instance
  // look executing, shielding it from pressure eviction; below -1 it is
  // no minute at all. Restore must reject both, naming node and function.
  const Trace trace = MakeFleet({1, 3}, 90);
  ScenarioSpec spec = KeepAliveClusterSpec(2, "hash");
  spec.cluster->node_capacity = 1;
  ClusterSession original = ClusterSession::Create(trace, *spec.cluster,
                                                   spec.policy, spec.options)
                                .ValueOrDie();
  ASSERT_TRUE(original.RunUntil(30).ok());
  const ClusterCheckpoint checkpoint =
      ParseClusterCheckpoint(
          SerializeClusterCheckpoint(original.Checkpoint().ValueOrDie()))
          .ValueOrDie();

  ClusterSession target = ClusterSession::Create(trace, *spec.cluster,
                                                 spec.policy, spec.options)
                              .ValueOrDie();
  ASSERT_TRUE(target.Restore(checkpoint).ok());  // untouched bytes are fine
  for (const int32_t bad : {30, 31, -2}) {
    ClusterCheckpoint edited = checkpoint;
    edited.nodes[1].last_used[1] = bad;
    const Status status = target.Restore(edited);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(status.message().find("node 1"), std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("last_used[1] (=" + std::to_string(bad)),
              std::string::npos)
        << status.message();
  }
  // The last minute before the cursor and "never" are both in range.
  ClusterCheckpoint edge = checkpoint;
  edge.nodes[0].last_used[0] = 29;
  edge.nodes[0].last_used[1] = -1;
  EXPECT_TRUE(target.Restore(edge).ok());
}

TEST(ClusterSessionTest, UncappedNodesNeverPressureEvict) {
  const Trace trace = MakeFleet({1, 3}, 90);
  const ScenarioOutcome run =
      RunScenario(trace, KeepAliveClusterSpec(1, "hash")).ValueOrDie();
  EXPECT_EQ(run.cluster->nodes[0].pressure_evictions, 0u);
  EXPECT_EQ(run.cluster->nodes[0].sim.accounts[1].cold_starts, 1u);
}

TEST(ClusterSessionTest, DrainKeepsWarmFunctionsAndFailDropsThem) {
  // f0 and f1 land on different nodes (least_loaded). Draining f1's node
  // mid-window keeps serving the warm instance there — no new cold
  // starts; failing it instead forces a re-route plus a cold start.
  const Trace trace = MakeFleet({1, 1}, 120);

  ScenarioSpec drain = KeepAliveClusterSpec(2, "least_loaded");
  drain.cluster->events =
      ParseNodeEventTimeline("drain{at=60,node=1}").ValueOrDie();
  const ScenarioOutcome drained = RunScenario(trace, drain).ValueOrDie();
  EXPECT_EQ(drained.outcome.metrics.total_cold_starts, 2u);  // initial only
  EXPECT_EQ(drained.cluster->reroutes, 0u);
  EXPECT_EQ(drained.cluster->nodes[1].final_state, "draining");
  EXPECT_EQ(drained.cluster->nodes[1].sim.metrics.total_invocations, 120u);

  ScenarioSpec fail = KeepAliveClusterSpec(2, "least_loaded");
  fail.cluster->events =
      ParseNodeEventTimeline("fail{at=60,node=1}").ValueOrDie();
  const ScenarioOutcome failed = RunScenario(trace, fail).ValueOrDie();
  EXPECT_EQ(failed.outcome.metrics.total_cold_starts, 3u);  // one re-route
  EXPECT_EQ(failed.cluster->reroutes, 1u);
  EXPECT_EQ(failed.cluster->nodes[1].sim.metrics.total_invocations, 60u);
  EXPECT_EQ(failed.cluster->nodes[0].reroutes_in, 1u);
  // After the fail, node 0 serves both functions.
  EXPECT_EQ(failed.cluster->nodes[0].sim.metrics.total_invocations, 180u);
}

TEST(ClusterSessionTest, AddedNodeJoinsAndServesAfterItsEvent) {
  // A hash cluster growing 1 -> 2 mid-window: the mod-N rehash moves a
  // share of the fleet onto the new node (each move is a re-route with a
  // cold start on the new home).
  const Trace trace = MakeFleet({1, 1, 1, 1, 1, 1, 1, 1}, 120);
  ScenarioSpec spec = KeepAliveClusterSpec(1, "hash");
  spec.cluster->events = ParseNodeEventTimeline("add{at=60}").ValueOrDie();
  const ScenarioOutcome run = RunScenario(trace, spec).ValueOrDie();
  ASSERT_EQ(run.cluster->nodes.size(), 2u);
  const NodeOutcome& joined = run.cluster->nodes[1];
  EXPECT_EQ(joined.final_state, "routable");
  EXPECT_GT(joined.sim.metrics.total_invocations, 0u);
  EXPECT_EQ(joined.reroutes_in, run.cluster->reroutes);
  // Before its join minute the node held nothing.
  for (int i = 0; i < 60; ++i) {
    EXPECT_EQ(joined.sim.memory_series[static_cast<size_t>(i)], 0u) << i;
  }
  // Work is conserved across the resize.
  EXPECT_EQ(run.outcome.metrics.total_invocations, 8u * 120u);
}

TEST(ClusterSessionTest, SharedDecodeAndObserverLanes) {
  const Trace trace = MakeFleet({1, 2}, 30);
  ClusterSession session =
      ClusterSession::Create(
          trace, ClusterSpec{2, 0, {"least_loaded", {}}, {}},
          ParsePolicySpec("fixed_keepalive{minutes=10}").ValueOrDie(),
          SimOptions{0, 0, {}})
          .ValueOrDie();
  TimeSeriesObserver series;
  size_t minute_views = 0;
  CallbackObserver counter([&](const MinuteView& view) {
    ++minute_views;
    EXPECT_LT(view.lane, 2u);
    return true;
  });
  session.AddObserver(&series);
  session.AddObserver(&counter);
  const ClusterOutcome outcome = session.Finish().ValueOrDie();
  // ONE arrival decode per minute serves both nodes...
  EXPECT_EQ(session.minutes_decoded(), 30);
  // ...while observers see one view per live node per minute.
  EXPECT_EQ(minute_views, 60u);
  ASSERT_EQ(series.series().size(), 2u);
  EXPECT_EQ(series.series()[0].size(), 30u);
  EXPECT_EQ(outcome.fleet.metrics.total_invocations, 30u + 15u);
}

TEST(ClusterSessionTest, ObserverEarlyStopHaltsTheSession) {
  const Trace trace = MakeFleet({1}, 100);
  ClusterSession session =
      ClusterSession::Create(
          trace, ClusterSpec{},
          ParsePolicySpec("fixed_keepalive{minutes=10}").ValueOrDie(),
          SimOptions{0, 0, {}})
          .ValueOrDie();
  CallbackObserver stopper(
      [](const MinuteView& view) { return view.minute < 10; });
  session.AddObserver(&stopper);
  const ClusterOutcome outcome = session.Finish().ValueOrDie();
  EXPECT_TRUE(session.stopped_early());
  EXPECT_EQ(outcome.fleet.memory_series.size(), 11u);
}

TEST(ClusterSessionTest, EarlyStopSignalsCancelledLikeSimStream) {
  const Trace trace = MakeFleet({1}, 100);
  ClusterSession session =
      ClusterSession::Create(
          trace, ClusterSpec{},
          ParsePolicySpec("fixed_keepalive{minutes=10}").ValueOrDie(),
          SimOptions{0, 0, {}})
          .ValueOrDie();
  CallbackObserver stopper(
      [](const MinuteView& view) { return view.minute < 5; });
  session.AddObserver(&stopper);
  EXPECT_EQ(session.RunUntil(session.end_minute()).code(),
            StatusCode::kCancelled);
  EXPECT_TRUE(session.stopped_early());
  EXPECT_EQ(session.Step().code(), StatusCode::kCancelled);
  // Finish() still returns the partial-window outcome after the stop.
  const ClusterOutcome outcome = session.Finish().ValueOrDie();
  EXPECT_EQ(outcome.fleet.memory_series.size(), 6u);
}

// ---------------------------------------------------------------------
// Scenario / SuiteRunner integration
// ---------------------------------------------------------------------

TEST(ClusterScenarioTest, ValidateScenarioSpecChecksTheClusterBlock) {
  ScenarioSpec spec;
  spec.policy = {"spes", {}};
  spec.cluster = ClusterSpec{};
  spec.cluster->nodes = 0;
  const Status status = ValidateScenarioSpec(spec);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("ClusterSpec.nodes"), std::string::npos);
}

TEST(ClusterScenarioTest, SuiteRunnerIsolatesBadClusterSpecs) {
  const Trace trace = MakeFleet({1, 1}, 30);
  std::vector<ScenarioSpec> specs;
  specs.push_back(KeepAliveClusterSpec(2, "least_loaded"));
  specs.push_back(KeepAliveClusterSpec(2, "no_such_router"));
  specs.push_back(KeepAliveClusterSpec(2, "least_loaded"));
  specs[2].policy = {"no_such_policy", {}};

  const std::vector<JobResult> results =
      SuiteRunner({1, nullptr}).Run(trace, specs);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  ASSERT_NE(results[0].cluster, nullptr);
  EXPECT_EQ(results[1].status.code(), StatusCode::kNotFound);
  EXPECT_NE(results[1].status.message().find("no_such_router"),
            std::string::npos);
  EXPECT_EQ(results[2].status.code(), StatusCode::kNotFound);
  EXPECT_NE(results[2].status.message().find("no_such_policy"),
            std::string::npos);
}

TEST(ClusterScenarioTest, RunLockstepBatchMatchesPooledForMixedSpecs) {
  // A batch mixing plain and cluster specs: RunLockstep runs clusters
  // standalone and lanes the rest; results must be bitwise identical to
  // the pooled path, slot for slot.
  const Trace trace = MakeFleet({1, 2, 3, 4}, 120);
  std::vector<ScenarioSpec> specs;
  ScenarioSpec plain;
  plain.policy = ParsePolicySpec("fixed_keepalive{minutes=10}").ValueOrDie();
  plain.options.train_minutes = 0;
  specs.push_back(plain);
  specs.push_back(KeepAliveClusterSpec(2, "least_loaded"));
  plain.policy = ParsePolicySpec("fixed_keepalive{minutes=5}").ValueOrDie();
  specs.push_back(plain);

  const SuiteRunner runner({1, nullptr});
  const std::vector<JobResult> pooled = runner.Run(trace, specs);
  const std::vector<JobResult> lockstep = runner.RunLockstep(trace, specs);
  ASSERT_EQ(pooled.size(), lockstep.size());
  for (size_t i = 0; i < pooled.size(); ++i) {
    ASSERT_TRUE(pooled[i].status.ok()) << pooled[i].status.ToString();
    ASSERT_TRUE(lockstep[i].status.ok()) << lockstep[i].status.ToString();
    EXPECT_EQ(pooled[i].outcome.memory_series,
              lockstep[i].outcome.memory_series)
        << i;
    EXPECT_EQ(pooled[i].outcome.metrics.total_cold_starts,
              lockstep[i].outcome.metrics.total_cold_starts)
        << i;
    EXPECT_EQ(pooled[i].cluster != nullptr, lockstep[i].cluster != nullptr);
  }
  ASSERT_NE(lockstep[1].cluster, nullptr);
  EXPECT_EQ(lockstep[1].cluster->nodes.size(), 2u);
}

TEST(ClusterReportTest, NodeTableAndImbalanceStats) {
  const Trace trace = MakeFleet({1, 1, 1, 1}, 60);
  const ScenarioOutcome run =
      RunScenario(trace, KeepAliveClusterSpec(2, "least_loaded"))
          .ValueOrDie();
  ASSERT_NE(run.cluster, nullptr);

  const Table table = BuildClusterNodeTable(*run.cluster);
  EXPECT_EQ(table.num_rows(), 3u);  // 2 nodes + fleet summary

  const ClusterImbalance imbalance = ComputeClusterImbalance(*run.cluster);
  EXPECT_EQ(imbalance.num_nodes, 2);
  // 4 always-on functions spread 2/2: perfectly even.
  EXPECT_DOUBLE_EQ(imbalance.invocation_cv, 0.0);
  EXPECT_DOUBLE_EQ(imbalance.invocation_peak_ratio, 1.0);
  EXPECT_DOUBLE_EQ(imbalance.cold_start_peak_share, 0.5);
}

}  // namespace
}  // namespace spes
