// Multi-node cluster simulation on top of the SimStream engine semantics.
//
// The single-fleet engine (sim/stream.h) models the paper's §V-A setting:
// one node with uncapped memory holds every instance. A ClusterSpec lifts
// that to what production FaaS platforms actually run: N invoker nodes,
// each with its own memory capacity and its own policy instance, with a
// pluggable Router (cluster/router.h) deciding which node serves each
// arriving function. A ClusterSession realizes the spec over a trace and
// drives one engine lane per node in lockstep over a single shared
// arrival decode per minute — per node, a minute is processed exactly
// like a SimStream lane (cold-start accounting, execution pinning, policy
// step, residency accounting), so a single-node `hash` cluster reproduces
// the non-cluster engine bit for bit.
//
// Two cluster-only mechanisms sit on top of the lane semantics:
//   * per-node memory pressure: when a node ends its minute above its
//     instance capacity, idle instances are evicted cross-function in
//     LRU order (executing instances are pinned and never evicted) and
//     counted as pressure evictions;
//   * a node-event timeline — `add{at=}`, `drain{at=,node=}` and
//     `fail{at=,node=}` — that changes the node set mid-window: failed
//     nodes lose their memory instantly, drained nodes keep serving the
//     functions still warm on them but accept no new assignments, and
//     either kind of departure invalidates sticky assignments so
//     re-routed functions pay cold starts on their new homes.

#ifndef SPES_CLUSTER_CLUSTER_H_
#define SPES_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "common/status.h"
#include "core/param_spec.h"
#include "core/policy_registry.h"
#include "sim/accounting.h"
#include "sim/columnar.h"
#include "sim/engine.h"
#include "sim/engine_lane.h"
#include "sim/memset.h"
#include "sim/observer.h"
#include "sim/policy.h"
#include "trace/trace.h"
#include "trace/trace_source.h"

namespace spes {

/// \brief One node lifecycle change, applied when the cluster cursor
/// reaches `minute` (events scheduled before the simulated window apply
/// at its first minute).
struct NodeEvent {
  enum class Kind {
    kAdd,    ///< a new, empty, routable node joins the cluster
    kDrain,  ///< the node stops accepting new assignments; warm
             ///< functions keep being served there until their instance
             ///< is evicted, then re-route
    kFail,   ///< the node dies: memory cleared instantly, every arrival
             ///< it served re-routes and cold-starts elsewhere
  };

  int minute = 0;
  Kind kind = Kind::kFail;
  /// Target node id for drain/fail; ignored for add (the new node takes
  /// the next free id, in timeline order).
  int node = -1;
  /// Add only: the new node's instance capacity; -1 means the cluster's
  /// default `ClusterSpec.node_capacity`.
  int capacity = -1;
};

/// \brief Stable lowercase name of an event kind ("add", "drain", "fail").
const char* NodeEventKindToString(NodeEvent::Kind kind);

/// \brief Parameter schema of one event kind: `at` for every kind, plus
/// `capacity` for add and `node` for drain/fail, each with its domain.
/// `at` and `node` are required, so only capacity's default (-1, the
/// cluster default) is ever used.
const std::vector<ParamSpec>& NodeEventParamSchema(NodeEvent::Kind kind);

/// \brief Parses one event in the registry spec grammar:
///   `fail{at=2980,node=1}` | `drain{at=2900,node=0}` |
///   `add{at=3000,capacity=40}`
/// Each kind validates against its own ParamSpec schema: `at` is
/// required; `node` is required for drain/fail and rejected for add;
/// `capacity` is accepted only by add. Every given value lies in
/// [0, INT_MAX], the domain NodeEventParamSchema declares.
/// Unknown names and parameters yield InvalidArgument naming the field.
Result<NodeEvent> ParseNodeEvent(const std::string& text);

/// \brief Inverse of ParseNodeEvent: canonical `kind{at=..,...}` form.
std::string FormatNodeEvent(const NodeEvent& event);

/// \brief Parses a '|'-separated event timeline, e.g.
/// `drain{at=2900,node=0} | add{at=3000}`, in the shared chain grammar
/// (ParseSpecChain, core/param_spec.h).
Result<std::vector<NodeEvent>> ParseNodeEventTimeline(
    const std::string& text);

/// \brief Inverse of ParseNodeEventTimeline: events joined with " | ".
std::string FormatNodeEventTimeline(const std::vector<NodeEvent>& events);

/// \brief A simulated cluster as data: how many nodes, how much memory
/// each, which router, and what happens to the node set mid-window.
struct ClusterSpec {
  /// Nodes present from the first minute (>= 1).
  int nodes = 1;
  /// Instance capacity per node; 0 means uncapped (the paper's setting).
  int node_capacity = 0;
  /// Routing strategy, built through RouterRegistry::Global().
  RouterSpec router{"hash", {}};
  /// Lifecycle timeline, sorted by minute (ties apply in list order).
  std::vector<NodeEvent> events;
};

/// \brief Structural validation: nodes >= 1, capacity >= 0, a non-empty
/// router name, and a coherent event timeline (sorted minutes, targets
/// that exist and are still alive when their event fires, and at least
/// one routable node at every point). Router/policy registry problems
/// surface later, from ClusterSession::Create. Errors name the offending
/// field or event index.
Status ValidateClusterSpec(const ClusterSpec& spec);

/// \brief One node's share of a cluster run.
struct NodeOutcome {
  int node = 0;
  /// Lifecycle state at the end of the run: "routable", "draining",
  /// "failed", or "pending" for an add event that never fired.
  std::string final_state;
  /// Per-node accounts, memory series and FleetMetrics — the same shape
  /// as a single-fleet run, restricted to what this node served/held.
  SimulationOutcome sim;
  /// Instances evicted because the node exceeded its capacity.
  uint64_t pressure_evictions = 0;
  /// Sticky assignments that moved onto this node from another node
  /// (re-routes; first-ever assignments are not counted).
  uint64_t reroutes_in = 0;
  /// The node's trained policy instance, kept alive for inspection.
  std::unique_ptr<Policy> policy;
};

/// \brief Full outcome of a cluster run: the fleet-wide aggregate (the
/// element-wise sum of the per-node accounts and memory series, with
/// metrics derived from the sums) plus every node's breakdown. When the
/// run had a latency block, `fleet.latency` is the exact histogram merge
/// of every node's latency outcome.
struct ClusterOutcome {
  SimulationOutcome fleet;
  std::vector<NodeOutcome> nodes;  ///< in node-id order, added nodes last
  /// Total sticky assignments that moved between nodes mid-window.
  uint64_t reroutes = 0;
};

/// \brief CheckOutcomeInvariants() (sim/accounting.h) on the fleet and on
/// every node, plus: the per-node accounts and memory series sum to the
/// fleet's, function by function and minute by minute.
Status CheckOutcomeInvariants(const ClusterOutcome& outcome);

/// \brief A resumable snapshot of a ClusterSession: the cursor, the
/// routing state (sticky assignments, consumed events, reroute counters)
/// and, per node, every engine counter plus the policy's and latency
/// lane's serialized state. Produced by ClusterSession::Checkpoint(),
/// consumed by ClusterSession::Restore();
/// SerializeClusterCheckpoint()/ParseClusterCheckpoint() round-trip it
/// through bytes ("SPESCLCK" magic).
struct ClusterCheckpoint : CheckpointWindow {
  /// Routing state at the snapshot.
  uint64_t reroutes = 0;
  uint64_t event_index = 0;  ///< timeline events already applied
  std::vector<int32_t> assignment;  ///< sticky function->node; -1 = none

  /// One node: its engine lane plus the cluster-side fields.
  struct Node : LaneCheckpoint {
    /// Lifecycle state: 0 pending, 1 routable, 2 draining, 3 failed.
    uint8_t state = 1;
    int capacity = 0;  ///< structural; validated (not restored)
    std::vector<int32_t> last_used;  ///< LRU clock; -1 = never
    uint64_t pressure_evictions = 0;
    uint64_t reroutes_in = 0;
  };
  std::vector<Node> nodes;
};

/// \brief Byte form of a cluster checkpoint (magic-tagged, little-endian).
std::string SerializeClusterCheckpoint(const ClusterCheckpoint& checkpoint);

/// \brief Parses bytes produced by SerializeClusterCheckpoint(); truncated
/// or corrupt input yields InvalidArgument instead of undefined behaviour.
Result<ClusterCheckpoint> ParseClusterCheckpoint(const std::string& bytes);

/// \brief An open, incrementally drivable cluster simulation. Create()
/// builds one policy instance per node (including nodes that join later)
/// from `policy` through PolicyRegistry::Global(), trains them all on
/// the one trace TrainPolicies() (sim/engine_lane.h) picks, builds the
/// router, and positions the cursor at the first simulated minute. The
/// source (any TraceSource, e.g. a packed trace file) and observers are
/// borrowed and must outlive the session. Not thread-safe; drive each
/// session from one thread. Observers see one MinuteView per *live* node
/// per minute, with MinuteView::lane equal to the node id;
/// StreamInfo::num_lanes is num_nodes(). Returning false stops the
/// session after the current minute, exactly as on a SimStream.
class ClusterSession : public SessionCore {
 public:
  static Result<ClusterSession> Create(TraceSource& source,
                                       const ClusterSpec& cluster,
                                       const PolicySpec& policy,
                                       const SimOptions& options);

  /// \brief Adapter over a realized Trace: the session owns an
  /// InMemoryTraceSource over `trace` and runs exactly as above.
  static Result<ClusterSession> Create(const Trace& trace,
                                       const ClusterSpec& cluster,
                                       const PolicySpec& policy,
                                       const SimOptions& options);

  /// Total node-id space: initial nodes plus scheduled add events.
  [[nodiscard]] size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] const Policy* policy(size_t node) const override {
    return nodes_[node].policy.get();
  }

  /// \brief Runs to the end of the window (unless already stopped) and
  /// returns the aggregated + per-node outcome, consuming the session.
  Result<ClusterOutcome> Finish();

  /// \brief Snapshot of the cursor, routing state, per-node counters and
  /// policy/latency state. Every node's policy must support
  /// checkpointing (NotImplemented naming the first node that does not,
  /// otherwise). Fails once the session was consumed by Finish().
  [[nodiscard]] Result<ClusterCheckpoint> Checkpoint() const;

  /// \brief Rewinds/forwards this session to `checkpoint`. The session
  /// must have been created over the same trace, window, cluster spec and
  /// policy as the checkpoint's origin (validated field by field,
  /// InvalidArgument naming the mismatch). On a non-OK Restore the
  /// session may hold a mix of old and new state — discard it.
  Status Restore(const ClusterCheckpoint& checkpoint);

 private:
  enum class NodeState {
    kPending,   ///< scheduled by an add event, not joined yet
    kRoutable,  ///< serving and accepting new assignments
    kDraining,  ///< serving warm functions only
    kFailed,    ///< gone; memory lost
  };

  /// Incremental LRU order over one capped node's loaded instances,
  /// keyed on (last_used, id): capacity eviction pops the lowest keys
  /// in O(evictions + changes) per node-minute instead of sorting the
  /// loaded set. Invalidation is lazy — an entry is live only while its
  /// function is loaded and its key still equals (last_used[f], f) — and
  /// the index is derived state: checkpoints never carry it, Rebuild()
  /// recreates it from the MemSet and the LRU clock.
  class LruIndex {
   public:
    /// An empty index over `num_functions` functions.
    explicit LruIndex(size_t num_functions)
        : synced_words_((num_functions + 63) / 64, 0) {}

    /// Routing feed: `f` arrived on the node at minute `t`. Routing
    /// order is ascending (minute, id), so stamps append to the FIFO;
    /// one that would break its order goes to the heap instead.
    void Touch(int32_t t, uint32_t f);

    /// Evicts up to `excess` instances of `mem` at minute `t`, lowest
    /// (last_used, id) first; instances that arrived at `t` are executing
    /// and never evicted. First picks up instances loaded since the last
    /// call without a routed arrival (policy prewarms, reloads) by
    /// diffing the membership words. Returns the number evicted.
    size_t Evict(MemSet* mem, const std::vector<int32_t>& last_used, int t,
                 size_t excess);

    /// Recreates the index from the loaded set, as of minute `t` (every
    /// last_used stamp is <= t).
    void Rebuild(const MemSet& mem, const std::vector<int32_t>& last_used,
                 int t);

    /// Entries held, live or stale.
    [[nodiscard]] size_t size() const {
      return fifo_.size() - head_ + late_.size();
    }

   private:
    struct Entry {
      int32_t used;
      uint32_t f;
    };
    static bool Before(Entry a, Entry b) {
      return a.used != b.used ? a.used < b.used : a.f < b.f;
    }
    /// Heap order of late_: the lowest key on top.
    static bool After(Entry a, Entry b) { return Before(b, a); }
    static bool Live(Entry e, const MemSet& mem,
                     const std::vector<int32_t>& last_used) {
      return mem.Contains(e.f) && last_used[e.f] == e.used;
    }
    void PushLate(Entry e);
    void PopLate();

    /// Routing stamps in ascending key order, consumed from head_.
    std::vector<Entry> fifo_;
    size_t head_ = 0;
    /// Min-heap of keys that arrived out of order: diff finds and
    /// out-of-order touches.
    std::vector<Entry> late_;
    /// Membership words at the last Evict()/Rebuild(), and its minute.
    std::vector<uint64_t> synced_words_;
    int synced_at_ = -1;
  };

  /// A node is an engine lane plus a capacity and a lifecycle state.
  struct Node {
    /// The node's trained policy; `lane` borrows it.
    std::unique_ptr<Policy> policy;
    EngineLane lane;
    NodeState state = NodeState::kRoutable;
    int capacity = 0;  ///< 0 = uncapped
    /// LRU clock: the minute f last arrived here; -1 = never. Stamped
    /// when an arrival is routed to this node.
    std::vector<int32_t> last_used;
    /// Eviction order over the loaded set; fed only on capped nodes.
    LruIndex lru;
    uint64_t pressure_evictions = 0;
    uint64_t reroutes_in = 0;
    /// This minute's arrivals routed here (scratch, rebuilt per minute).
    std::vector<Invocation> arrivals;
  };

  ClusterSession(TraceSource* source, std::unique_ptr<TraceSource> owned,
                 const SimOptions& options, int end);

  /// Shared body of the Create() overloads; `owned` is the adapter the
  /// Trace overload built over `source`, null for a borrowed source.
  static Result<ClusterSession> CreateImpl(TraceSource* source,
                                           std::unique_ptr<TraceSource> owned,
                                           const ClusterSpec& cluster,
                                           const PolicySpec& policy,
                                           const SimOptions& options);

  [[nodiscard]] bool NodeLive(const Node& node) const {
    return node.state == NodeState::kRoutable ||
           node.state == NodeState::kDraining;
  }

  /// Applies every event scheduled at or before minute `t`.
  void ApplyEvents(int t);

  /// SessionCore hooks: StreamInfo::num_lanes is the node-id space, and
  /// the "simulate" span reads "<N>-node cluster".
  [[nodiscard]] size_t LaneCount() const override { return nodes_.size(); }
  [[nodiscard]] std::string SimulateLabel() const override {
    return std::to_string(nodes_.size()) + "-node cluster";
  }

  /// One simulated minute: shared decode, routing, then one engine-lane
  /// step plus pressure eviction per live node. Internal on a router
  /// that returns an unroutable node.
  Status StepLocked() override;

  /// Evicts idle instances in LRU order until `node` fits its capacity.
  /// O(evictions + changes) through the node's LruIndex.
  void EnforceCapacity(Node* node, int t);

  uint64_t reroutes_ = 0;
  std::unique_ptr<Router> router_;
  std::vector<Node> nodes_;
  std::vector<NodeEvent> events_;  ///< sorted; consumed via event_index_
  size_t event_index_ = 0;
  /// Sticky function->node assignment; -1 = unassigned.
  std::vector<int32_t> assignment_;

  // Per-minute scratch, reused across steps.
  std::vector<Invocation> arrivals_;
  std::vector<NodeView> views_;
};

}  // namespace spes

#endif  // SPES_CLUSTER_CLUSTER_H_
