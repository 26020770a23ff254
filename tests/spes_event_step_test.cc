// Differential test: SPES's event-driven minute step against the
// per-minute scan it replaced (ReferenceSpesPolicy, core/reference_spes.h).
//
// Both policies are trained alike and fed the same minutes. After every
// minute their MemSet words must be equal, and at seeded random minutes
// (and at the end) so must their SaveState() bytes. Memory is also pruned
// at random between minutes, the way capacity eviction prunes a capped
// cluster node, so the re-add of in-window functions is exercised. The
// fleets are dense, rare-heavy and bursty; the configs sweep the
// pre-warm window, the give-up scaler and each ablation switch. Streams,
// a restore at a random minute and a capped locality cluster with drain,
// fail and a late add run both policies end to end.
//
// This is an oracle for the minute step only. ReferenceSpesPolicy shares
// SpesPolicy's arrival path (StartMinute: the S1 WT record, S2 drift
// adjustment over the per-function WT multiset, S3 late categorization),
// so a fault there shows on both sides alike. That path is checked by
// stats_test (ValueCounts against the vector statistics) and by
// spes_policy_test's restore between drift adjustments.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "core/policy_registry.h"
#include "core/reference_spes.h"
#include "core/spes_policy.h"
#include "sim/columnar.h"
#include "sim/scenario.h"
#include "sim/stream.h"
#include "tests/same_outcome.h"
#include "trace/generator.h"
#include "trace/transform.h"

namespace spes {
namespace {

constexpr int kTrainMinutes = 2 * kMinutesPerDay;

enum class Fleet { kDense, kRareHeavy, kBursty };

Trace MakeFleet(Fleet fleet) {
  GeneratorConfig config;
  config.num_functions = 240;
  config.days = 4;
  config.seed = 17;
  // More unseen functions than the default 1.9%, so online correlation
  // tracks a few dozen targets.
  config.unseen_fraction = 0.08;
  if (fleet == Fleet::kRareHeavy) config.rare_fraction = 0.9;
  TraceSpec spec = TraceSpec::FromGenerator(config);
  if (fleet == Fleet::kBursty) {
    spec.transforms =
        ParseTransformChain(
            "load_scale{factor=2.0} | "
            "inject_burst{at=3100,width=30,amplitude=40,fraction=0.3,seed=5}"
            " | inject_burst{at=3900,width=10,amplitude=80,fraction=0.5,"
            "seed=6}")
            .ValueOrDie();
  }
  return RealizeTrace(spec).ValueOrDie();
}

struct ConfigCase {
  const char* name;
  SpesConfig config;
};

std::vector<ConfigCase> ConfigCases() {
  std::vector<ConfigCase> cases;
  cases.push_back({"default", SpesConfig{}});
  SpesConfig c;
  c.theta_prewarm = 0;
  cases.push_back({"theta_prewarm_0", c});
  c = SpesConfig{};
  c.theta_prewarm = 5;
  cases.push_back({"theta_prewarm_5", c});
  c = SpesConfig{};
  c.givenup_scaler = 3;
  cases.push_back({"givenup_scaler_3", c});
  c = SpesConfig{};
  c.enable_correlated = false;
  cases.push_back({"no_correlated", c});
  c = SpesConfig{};
  c.enable_online_corr = false;
  cases.push_back({"no_online_corr", c});
  c = SpesConfig{};
  c.enable_forgetting = false;
  cases.push_back({"no_forgetting", c});
  c = SpesConfig{};
  c.enable_adjusting = false;
  cases.push_back({"no_adjusting", c});
  return cases;
}

std::string Save(const Policy& policy) {
  return policy.SaveState().ValueOrDie();
}

/// Equal blobs, or the offset of the first differing byte (a blob diff
/// printed in full is unreadable).
::testing::AssertionResult SameBytes(const std::string& a,
                                     const std::string& b) {
  if (a == b) return ::testing::AssertionSuccess();
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return ::testing::AssertionFailure()
         << "blobs of " << a.size() << " and " << b.size()
         << " bytes differ first at byte " << i;
}

/// Drops up to `count` random loaded functions from both sets (which must
/// be equal), like capacity eviction between two policy steps.
void PruneBoth(Rng* rng, int count, MemSet* a, MemSet* b) {
  std::vector<size_t> loaded;
  a->ForEachLoaded([&loaded](size_t f) { loaded.push_back(f); });
  for (int i = 0; i < count && !loaded.empty(); ++i) {
    const size_t pick = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(loaded.size()) - 1));
    a->Remove(loaded[pick]);
    b->Remove(loaded[pick]);
  }
}

/// Steps an event-driven and a scan policy over `trace` in lockstep,
/// loading each minute's arrivals first as EngineLane::Admit does. The
/// first step comes a seeded 0-90 minutes into the window (like a node
/// added late); at a seeded minute the event policy is replaced by a
/// freshly trained one restored from the scan policy's bytes. With
/// `prune`, a few loaded functions are dropped after every step.
void ExpectSameSteps(const Trace& trace, const SpesConfig& config,
                     uint64_t seed, bool prune) {
  auto event = std::make_unique<SpesPolicy>(config);
  ReferenceSpesPolicy scan(config);
  event->Train(trace, kTrainMinutes);
  scan.Train(trace, kTrainMinutes);
  ASSERT_TRUE(SameBytes(Save(*event), Save(scan)));

  const size_t n = trace.num_functions();
  MemSet event_mem(n), scan_mem(n);
  InMemoryTraceSource source(trace);
  ArrivalDecoder decoder(&source);
  Rng rng(seed);
  const int start = kTrainMinutes + static_cast<int>(rng.UniformInt(0, 90));
  const int restore_at =
      start + static_cast<int>(rng.UniformInt(60, kMinutesPerDay));
  std::vector<Invocation> arrivals;
  for (int t = start; t < trace.num_minutes(); ++t) {
    const std::span<const Invocation> span = decoder.Decode(t);
    arrivals.assign(span.begin(), span.end());
    for (const Invocation& inv : arrivals) {
      event_mem.Add(inv.function);
      scan_mem.Add(inv.function);
    }
    event->OnMinute(t, arrivals, &event_mem);
    scan.OnMinute(t, arrivals, &scan_mem);
    ASSERT_EQ(event_mem.words(), scan_mem.words()) << "minute " << t;
    if (t == restore_at) {
      const std::string bytes = Save(scan);
      ASSERT_TRUE(SameBytes(Save(*event), bytes)) << "minute " << t;
      event = std::make_unique<SpesPolicy>(config);
      event->Train(trace, kTrainMinutes);
      ASSERT_TRUE(event->RestoreState(bytes).ok());
      ASSERT_TRUE(SameBytes(Save(*event), bytes))
          << "restore then save, minute " << t;
    } else if (rng.Bernoulli(0.01)) {
      ASSERT_TRUE(SameBytes(Save(*event), Save(scan))) << "minute " << t;
    }
    if (prune) PruneBoth(&rng, 3, &event_mem, &scan_mem);
  }
  EXPECT_TRUE(SameBytes(Save(*event), Save(scan)));
  EXPECT_EQ(event->online_recategorized(), scan.online_recategorized());
}

class SpesEventStepTest
    : public ::testing::TestWithParam<std::tuple<Fleet, size_t>> {};

TEST_P(SpesEventStepTest, MatchesTheScanEveryMinute) {
  const auto [fleet, config_index] = GetParam();
  const Trace trace = MakeFleet(fleet);
  const ConfigCase c = ConfigCases()[config_index];
  SCOPED_TRACE(c.name);
  ExpectSameSteps(trace, c.config, 1000 + config_index, /*prune=*/false);
  ExpectSameSteps(trace, c.config, 2000 + config_index, /*prune=*/true);
}

std::string CaseName(
    const ::testing::TestParamInfo<std::tuple<Fleet, size_t>>& info) {
  static const char* const kFleets[] = {"dense", "rare_heavy", "bursty"};
  return std::string(kFleets[static_cast<int>(std::get<0>(info.param))]) +
         "_" + ConfigCases()[std::get<1>(info.param)].name;
}

INSTANTIATE_TEST_SUITE_P(
    FleetsAndConfigs, SpesEventStepTest,
    ::testing::Combine(::testing::Values(Fleet::kDense, Fleet::kRareHeavy,
                                         Fleet::kBursty),
                       ::testing::Range(size_t{0}, ConfigCases().size())),
    CaseName);

TEST(SpesEventStepTest, StreamWithMidWindowRestoreMatchesTheScan) {
  const Trace trace = MakeFleet(Fleet::kRareHeavy);
  SimOptions options;
  options.train_minutes = kTrainMinutes;

  ReferenceSpesPolicy scan;
  SimStream scan_stream = SimStream::Create(trace, &scan, options).ValueOrDie();
  const SimulationOutcome expected = scan_stream.Finish().ValueOrDie();
  const Status invariants = CheckOutcomeInvariants(expected);
  EXPECT_TRUE(invariants.ok()) << invariants.message();

  // The event-driven stream checkpoints at a seeded random minute and a
  // second stream resumes from those bytes.
  Rng rng(7);
  const int midpoint =
      kTrainMinutes + static_cast<int>(rng.UniformInt(1, kMinutesPerDay));
  SpesPolicy first;
  SimStream original = SimStream::Create(trace, &first, options).ValueOrDie();
  ASSERT_TRUE(original.RunUntil(midpoint).ok());
  const std::string bytes =
      SerializeCheckpoint(original.Checkpoint().ValueOrDie());
  SpesPolicy second;
  SimStream resumed = SimStream::Create(trace, &second, options).ValueOrDie();
  ASSERT_TRUE(resumed.Restore(ParseCheckpoint(bytes).ValueOrDie()).ok());
  const SimulationOutcome actual = resumed.Finish().ValueOrDie();

  ExpectSameOutcome(expected, actual, "stream restored at " +
                                          std::to_string(midpoint));
  EXPECT_TRUE(SameBytes(Save(scan), Save(second)));
}

/// The scan reference as a registry entry named "spes_scan", so a
/// cluster (which builds its node policies through the registry) can run
/// it. Registered in this test binary only.
void RegisterScanReference() {
  static const bool registered = [] {
    PolicyRegistry& registry = PolicyRegistry::Global();
    PolicyRegistry::Entry entry = *registry.Find("spes");
    entry.canonical_name = "spes_scan";
    entry.summary = "SPES stepped by the per-minute scan reference";
    entry.factory = [spes = entry.factory](const PolicyParams& params)
        -> Result<std::unique_ptr<Policy>> {
      SPES_ASSIGN_OR_RETURN(const std::unique_ptr<Policy> event,
                            spes(params));
      return std::unique_ptr<Policy>(std::make_unique<ReferenceSpesPolicy>(
          static_cast<const SpesPolicy&>(*event).config()));
    };
    return registry.Register(std::move(entry)).ok();
  }();
  ASSERT_TRUE(registered);
}

/// Fingerprints every live node's MemSet after every minute.
class MemFingerprints : public SimObserver {
 public:
  bool OnMinute(const MinuteView& view) override {
    uint64_t hash = 1469598103934665603ull ^ view.lane;
    for (const uint64_t word : view.mem->words()) {
      hash = (hash ^ word) * 1099511628211ull;
    }
    prints.push_back({view.minute, hash});
    return true;
  }
  std::vector<std::pair<int, uint64_t>> prints;
};

TEST(SpesEventStepTest, CappedLocalityClusterMatchesTheScan) {
  RegisterScanReference();
  const Trace trace = MakeFleet(Fleet::kBursty);
  ClusterSpec cluster;
  cluster.nodes = 4;
  cluster.node_capacity = 25;
  cluster.router = {"locality", {}};
  cluster.events = ParseNodeEventTimeline(
                       "drain{at=3000,node=0} | fail{at=3300,node=1} | "
                       "add{at=3600} | add{at=4000}")
                       .ValueOrDie();
  SimOptions options;
  options.train_minutes = kTrainMinutes;

  struct Run {
    MemFingerprints fingerprints;
    std::vector<std::vector<std::string>> policy_blobs;
    ClusterOutcome outcome;
  };
  auto run = [&](const char* policy, Run* out) {
    ClusterSession session =
        ClusterSession::Create(trace, cluster, {policy, {}}, options)
            .ValueOrDie();
    session.AddObserver(&out->fingerprints);
    Rng rng(11);
    for (int k = 0; k < 6; ++k) {
      const int minute = session.cursor() +
                         static_cast<int>(rng.UniformInt(1, 480));
      ASSERT_TRUE(session.RunUntil(minute).ok());
      std::vector<std::string> blobs;
      for (const ClusterCheckpoint::Node& node :
           session.Checkpoint().ValueOrDie().nodes) {
        blobs.push_back(node.policy_state);
      }
      out->policy_blobs.push_back(std::move(blobs));
    }
    out->outcome = session.Finish().ValueOrDie();
  };
  Run event, scan;
  run("spes", &event);
  run("spes_scan", &scan);

  ASSERT_EQ(event.fingerprints.prints.size(), scan.fingerprints.prints.size());
  for (size_t i = 0; i < event.fingerprints.prints.size(); ++i) {
    ASSERT_EQ(event.fingerprints.prints[i], scan.fingerprints.prints[i])
        << "observation " << i;
  }
  ASSERT_EQ(event.policy_blobs.size(), scan.policy_blobs.size());
  for (size_t i = 0; i < event.policy_blobs.size(); ++i) {
    ASSERT_EQ(event.policy_blobs[i].size(), scan.policy_blobs[i].size());
    for (size_t k = 0; k < event.policy_blobs[i].size(); ++k) {
      EXPECT_TRUE(SameBytes(event.policy_blobs[i][k], scan.policy_blobs[i][k]))
          << "checkpoint " << i << ", node " << k;
    }
  }
  ExpectSameOutcome(event.outcome.fleet, scan.outcome.fleet, "fleet");
  ASSERT_EQ(event.outcome.nodes.size(), 6u);
  ASSERT_EQ(scan.outcome.nodes.size(), 6u);
  for (size_t k = 0; k < event.outcome.nodes.size(); ++k) {
    ExpectSameOutcome(event.outcome.nodes[k].sim, scan.outcome.nodes[k].sim,
                      "node " + std::to_string(k));
    EXPECT_EQ(event.outcome.nodes[k].pressure_evictions,
              scan.outcome.nodes[k].pressure_evictions);
  }
  EXPECT_GT(event.outcome.nodes[2].pressure_evictions, 0u);
  const Status invariants = CheckOutcomeInvariants(event.outcome);
  EXPECT_TRUE(invariants.ok()) << invariants.message();
}

}  // namespace
}  // namespace spes
