// Differential test of the cluster's capacity eviction: the incremental
// per-node LRU index inside ClusterSession against the kept
// rebuild-and-partial_sort rule (cluster/reference_eviction.h).
//
// An observer replays every live node-minute of a real cluster run on
// its own copy of the node: the previous minute's membership, the
// minute's routed arrivals, a second identically trained policy instance
// and the execution pin. That yields the pre-eviction membership, from
// which the reference picks its victims; the session's post-eviction
// membership must be exactly that set minus those victims, and the
// per-node victim counts must sum to the session's pressure_evictions.
// The runs cover a policy that never loads without an arrival
// (fixed_keepalive) and one that prewarms (spes), capacities 1, 50 and 600, drain/add/fail events, and a restore from
// checkpoint bytes in the middle of the run (which rebuilds the index).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/reference_eviction.h"
#include "core/policy_registry.h"
#include "sim/memset.h"
#include "sim/observer.h"
#include "trace/generator.h"

namespace spes {
namespace {

constexpr int kTrainMinutes = 2 * kMinutesPerDay;

const Trace& Fleet() {
  static const Trace* trace = [] {
    GeneratorConfig config;
    config.num_functions = 1500;
    config.days = 3;
    config.seed = 31;
    return new Trace(std::move(GenerateTrace(config).ValueOrDie().trace));
  }();
  return *trace;
}

/// Replays each node's minute step on a shadow copy and checks the
/// session's capacity eviction against ReferenceCapacityVictims().
class EvictionReplay : public SimObserver {
 public:
  EvictionReplay(const PolicySpec& policy, const ClusterSpec& cluster)
      : policy_(policy), cluster_(cluster) {}

  void OnStreamStart(const StreamInfo& info) override {
    if (!nodes_.empty()) return;  // a restored session resumes the replay
    size_t add_index = 0;
    for (size_t k = 0; k < info.num_lanes; ++k) {
      int capacity = cluster_.node_capacity;
      if (k >= static_cast<size_t>(cluster_.nodes)) {
        while (cluster_.events[add_index].kind != NodeEvent::Kind::kAdd) {
          ++add_index;
        }
        if (cluster_.events[add_index].capacity >= 0) {
          capacity = cluster_.events[add_index].capacity;
        }
        ++add_index;
      }
      std::unique_ptr<Policy> policy =
          PolicyRegistry::Global().Create(policy_).ValueOrDie();
      policy->Train(Fleet(), kTrainMinutes);
      nodes_.push_back(Node{std::move(policy), MemSet(info.num_functions),
                            std::vector<int32_t>(info.num_functions, -1),
                            capacity, 0});
    }
  }

  bool OnMinute(const MinuteView& view) override {
    Node& node = nodes_[view.lane];
    const int t = view.minute;
    // EngineLane::Admit on the shadow: arrivals load, the policy steps,
    // executing functions are pinned. The cluster stamps last_used while
    // routing, before all of it.
    MemSet mem = node.mem;
    for (const Invocation& inv : *view.arrivals) {
      mem.Add(inv.function);
      node.last_used[inv.function] = t;
    }
    const std::vector<uint64_t> before_policy = mem.words();
    node.policy->OnMinute(t, *view.arrivals, &mem);
    for (const Invocation& inv : *view.arrivals) mem.Add(inv.function);
    for (size_t w = 0; w < before_policy.size(); ++w) {
      prewarms_ += std::popcount(mem.words()[w] & ~before_policy[w]);
    }
    if (node.capacity > 0) {
      const std::vector<uint32_t> victims = ReferenceCapacityVictims(
          mem, node.last_used, t, static_cast<size_t>(node.capacity));
      for (uint32_t f : victims) mem.Remove(f);
      node.victims += victims.size();
    }
    if (mem.words() != view.mem->words()) {
      if (mismatches_ == 0) {
        first_mismatch_ = "node " + std::to_string(view.lane) +
                          " minute " + std::to_string(t);
      }
      ++mismatches_;
    }
    node.mem = *view.mem;  // continue from the session's state
    ++node_minutes_;
    return true;
  }

  [[nodiscard]] uint64_t victims(size_t node) const {
    return nodes_[node].victims;
  }
  [[nodiscard]] size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] uint64_t mismatches() const { return mismatches_; }
  [[nodiscard]] const std::string& first_mismatch() const {
    return first_mismatch_;
  }
  [[nodiscard]] uint64_t prewarms() const { return prewarms_; }
  [[nodiscard]] uint64_t node_minutes() const { return node_minutes_; }

 private:
  struct Node {
    std::unique_ptr<Policy> policy;
    MemSet mem;
    std::vector<int32_t> last_used;
    int capacity = 0;
    uint64_t victims = 0;
  };

  PolicySpec policy_;
  ClusterSpec cluster_;
  std::vector<Node> nodes_;
  uint64_t mismatches_ = 0;
  std::string first_mismatch_;
  uint64_t prewarms_ = 0;
  uint64_t node_minutes_ = 0;
};

struct EvictionCase {
  const char* policy;
  int capacity;
  bool restore;  ///< checkpoint to bytes mid-run and resume a new session
};

std::string CaseName(const EvictionCase& c) {
  return std::string(c.policy) + " cap " + std::to_string(c.capacity) +
         (c.restore ? " restored" : "");
}

void RunCase(const EvictionCase& c) {
  SCOPED_TRACE(CaseName(c));
  ClusterSpec cluster;
  cluster.nodes = 2;
  cluster.node_capacity = c.capacity;
  cluster.router = ParseRouterSpec("locality").ValueOrDie();
  const int t0 = kTrainMinutes;
  cluster.events =
      ParseNodeEventTimeline(
          "drain{at=" + std::to_string(t0 + 300) + ",node=0} | add{at=" +
          std::to_string(t0 + 500) + "} | fail{at=" +
          std::to_string(t0 + 900) + ",node=1}")
          .ValueOrDie();
  const PolicySpec policy = ParsePolicySpec(c.policy).ValueOrDie();
  SimOptions options;
  options.train_minutes = kTrainMinutes;

  EvictionReplay replay(policy, cluster);
  ClusterSession session =
      ClusterSession::Create(Fleet(), cluster, policy, options).ValueOrDie();
  session.AddObserver(&replay);
  Result<ClusterOutcome> outcome = Status::Internal("not run");
  if (c.restore) {
    ASSERT_TRUE(session.RunUntil(t0 + 700).ok());
    const std::string bytes =
        SerializeClusterCheckpoint(session.Checkpoint().ValueOrDie());
    ClusterSession resumed =
        ClusterSession::Create(Fleet(), cluster, policy, options)
            .ValueOrDie();
    resumed.AddObserver(&replay);
    ASSERT_TRUE(
        resumed.Restore(ParseClusterCheckpoint(bytes).ValueOrDie()).ok());
    outcome = resumed.Finish();
  } else {
    outcome = session.Finish();
  }
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();

  EXPECT_EQ(replay.mismatches(), 0u)
      << "first mismatch at " << replay.first_mismatch();
  // Three nodes live over parts of one simulated day.
  EXPECT_GT(replay.node_minutes(), 2u * kMinutesPerDay);
  const ClusterOutcome& run = outcome.ValueOrDie();
  ASSERT_EQ(run.nodes.size(), replay.num_nodes());
  uint64_t evictions = 0;
  for (size_t k = 0; k < run.nodes.size(); ++k) {
    EXPECT_EQ(run.nodes[k].pressure_evictions, replay.victims(k))
        << "node " << k;
    evictions += run.nodes[k].pressure_evictions;
  }
  EXPECT_GT(evictions, 0u);  // the capacity binds
  if (std::string_view(c.policy) == "spes") {
    EXPECT_GT(replay.prewarms(), 0u);  // the membership-diff feed is hit
  }
}

// A 12-hour keep-alive holds enough idle instances that even the 600 cap
// binds once the drain concentrates the fleet.
constexpr char kKeepalive[] = "fixed_keepalive{minutes=720}";

TEST(ClusterEvictionDiffTest, PinnedKeepaliveMatchesTheReferenceAcrossRestore) {
  for (const int capacity : {1, 50, 600}) {
    RunCase({kKeepalive, capacity, /*restore=*/true});
  }
}

// SPES trains slowly, so its runs skip the mid-run restore.
TEST(ClusterEvictionDiffTest, PinnedSpesPrewarmsMatchTheReference) {
  for (const int capacity : {1, 50, 600}) {
    RunCase({"spes", capacity, /*restore=*/false});
  }
}

}  // namespace
}  // namespace spes
