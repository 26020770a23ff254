#include "cluster/cluster.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <string>
#include <utility>

#include "common/binary_io.h"
#include "core/param_spec.h"
#include "obs/recorder.h"

namespace spes {

namespace {

/// Format tag of the serialized cluster checkpoint byte stream. The
/// format postdates the latency subsystem, so version 1 always carries
/// one latency-state blob per node (empty when the run has no latency
/// block) — no conditional layout like the SimStream checkpoint needs.
constexpr char kClusterCheckpointMagic[] = "SPESCLCK";
constexpr uint32_t kClusterCheckpointVersion = 1;

}  // namespace

const std::vector<ParamSpec>& NodeEventParamSchema(NodeEvent::Kind kind) {
  static const auto* add = new std::vector<ParamSpec>{
      {"at", ParamType::kInt, ParamValue(0), "minute the node joins", 0,
       kIntParamMax},
      {"capacity", ParamType::kInt, ParamValue(-1),
       "instance capacity; omitted = ClusterSpec.node_capacity", 0,
       kIntParamMax},
  };
  static const auto* targeted = new std::vector<ParamSpec>{
      {"at", ParamType::kInt, ParamValue(0), "minute the event applies", 0,
       kIntParamMax},
      {"node", ParamType::kInt, ParamValue(0), "target node id", 0,
       kIntParamMax},
  };
  return kind == NodeEvent::Kind::kAdd ? *add : *targeted;
}

const char* NodeEventKindToString(NodeEvent::Kind kind) {
  switch (kind) {
    case NodeEvent::Kind::kAdd:
      return "add";
    case NodeEvent::Kind::kDrain:
      return "drain";
    case NodeEvent::Kind::kFail:
      return "fail";
  }
  return "unknown";
}

Result<NodeEvent> ParseNodeEvent(const std::string& text) {
  SPES_ASSIGN_OR_RETURN(const NamedSpec spec,
                        ParseNamedSpec(text, "node event"));
  NodeEvent event;
  if (spec.name == "add") {
    event.kind = NodeEvent::Kind::kAdd;
  } else if (spec.name == "drain") {
    event.kind = NodeEvent::Kind::kDrain;
  } else if (spec.name == "fail") {
    event.kind = NodeEvent::Kind::kFail;
  } else {
    return Status::InvalidArgument("unknown node event '" + spec.name +
                                   "'; expected add, drain or fail");
  }
  const bool is_add = event.kind == NodeEvent::Kind::kAdd;
  SPES_ASSIGN_OR_RETURN(
      const ParamMap params,
      MergeSpecParams("node event", spec, NodeEventParamSchema(event.kind)));
  const auto require = [&](const std::string& name) -> Status {
    if (spec.params.count(name) > 0) return Status::OK();
    return Status::InvalidArgument("node event '" + spec.name +
                                   "' is missing required parameter '" +
                                   name + "'");
  };
  SPES_RETURN_NOT_OK(require("at"));
  if (!is_add) SPES_RETURN_NOT_OK(require("node"));
  // Given values are bounded by INT_MAX, so the fields never truncate.
  event.minute = static_cast<int>(params.GetInt("at"));
  if (is_add) {
    event.capacity = static_cast<int>(params.GetInt("capacity"));
  } else {
    event.node = static_cast<int>(params.GetInt("node"));
  }
  return event;
}

std::string FormatNodeEvent(const NodeEvent& event) {
  NamedSpec spec;
  spec.name = NodeEventKindToString(event.kind);
  spec.params.emplace("at", ParamValue(event.minute));
  if (event.kind == NodeEvent::Kind::kAdd) {
    if (event.capacity >= 0) {
      spec.params.emplace("capacity", ParamValue(event.capacity));
    }
  } else {
    spec.params.emplace("node", ParamValue(event.node));
  }
  return FormatNamedSpec(spec);
}

Result<std::vector<NodeEvent>> ParseNodeEventTimeline(
    const std::string& text) {
  return ParseSpecChain<NodeEvent>(text, "node event timeline",
                                   ParseNodeEvent);
}

std::string FormatNodeEventTimeline(const std::vector<NodeEvent>& events) {
  return FormatSpecChain(events, FormatNodeEvent);
}

Status ValidateClusterSpec(const ClusterSpec& spec) {
  if (spec.nodes < 1) {
    return Status::InvalidArgument("ClusterSpec.nodes (=" +
                                   std::to_string(spec.nodes) +
                                   ") must be >= 1");
  }
  if (spec.node_capacity < 0) {
    return Status::InvalidArgument(
        "ClusterSpec.node_capacity (=" + std::to_string(spec.node_capacity) +
        ") must be >= 0 (0 = uncapped)");
  }
  if (spec.router.name.empty()) {
    return Status::InvalidArgument("ClusterSpec.router.name must not be "
                                   "empty");
  }
  // Replay the timeline over the evolving node set: every drain/fail must
  // target a node that exists and is still alive when the event fires,
  // and at least one routable node must remain at every point.
  int total = spec.nodes;
  int routable = spec.nodes;
  // 0 = routable, 1 = draining, 2 = failed.
  std::vector<int> state(static_cast<size_t>(spec.nodes), 0);
  int previous_minute = 0;
  for (size_t i = 0; i < spec.events.size(); ++i) {
    const NodeEvent& event = spec.events[i];
    const std::string where = "ClusterSpec.events[" + std::to_string(i) +
                              "] (" + FormatNodeEvent(event) + ")";
    const std::vector<ParamSpec>& schema = NodeEventParamSchema(event.kind);
    SPES_RETURN_NOT_OK(CheckDeclaredDomain(schema, "at",
                                           ParamValue(event.minute),
                                           where + " minute"));
    if (i > 0 && event.minute < previous_minute) {
      return Status::InvalidArgument(
          where + ": events must be sorted by minute (previous event is at "
                  "minute " +
          std::to_string(previous_minute) + ")");
    }
    previous_minute = event.minute;
    switch (event.kind) {
      case NodeEvent::Kind::kAdd:
        // -1, the declared default, stands for the cluster default.
        if (event.capacity != -1) {
          SPES_RETURN_NOT_OK(CheckDeclaredDomain(schema, "capacity",
                                                 ParamValue(event.capacity),
                                                 where + " capacity"));
        }
        state.push_back(0);
        ++total;
        ++routable;
        break;
      case NodeEvent::Kind::kDrain:
      case NodeEvent::Kind::kFail: {
        SPES_RETURN_NOT_OK(CheckDeclaredDomain(
            schema, "node", ParamValue(event.node), where + " node"));
        if (event.node >= total) {
          return Status::InvalidArgument(
              where + ": node is out of range (the cluster has " +
              std::to_string(total) + " nodes at that point)");
        }
        int& s = state[static_cast<size_t>(event.node)];
        if (s == 2) {
          return Status::InvalidArgument(where +
                                         ": node has already failed");
        }
        if (event.kind == NodeEvent::Kind::kDrain) {
          if (s == 1) {
            return Status::InvalidArgument(where +
                                           ": node is already draining");
          }
          s = 1;
          --routable;
        } else {
          if (s == 0) --routable;
          s = 2;
        }
        if (routable < 1) {
          return Status::InvalidArgument(
              where + ": the cluster would be left with no routable node");
        }
        break;
      }
    }
  }
  return Status::OK();
}

ClusterSession::ClusterSession(TraceSource* source,
                               std::unique_ptr<TraceSource> owned,
                               const SimOptions& options, int end)
    : SessionCore("ClusterSession", "session", "node", source,
                  std::move(owned), options, end),
      assignment_(source->num_functions(), -1) {}

Result<ClusterSession> ClusterSession::CreateImpl(
    TraceSource* source, std::unique_ptr<TraceSource> owned,
    const ClusterSpec& cluster, const PolicySpec& policy,
    const SimOptions& options) {
  SPES_RETURN_NOT_OK(ValidateClusterSpec(cluster));
  SPES_ASSIGN_OR_RETURN(const int end,
                        ResolveStreamWindow(source->num_minutes(), options));

  SPES_ASSIGN_OR_RETURN(std::unique_ptr<Router> router,
                        RouterRegistry::Global().Create(cluster.router));

  ClusterSession session(source, std::move(owned), options, end);
  session.router_ = std::move(router);
  session.events_ = cluster.events;

  // One trained policy per node id — including nodes that only join via
  // an add event, so a joining node is ready the minute it appears.
  const size_t n = source->num_functions();
  size_t total_nodes = static_cast<size_t>(cluster.nodes);
  for (const NodeEvent& event : cluster.events) {
    if (event.kind == NodeEvent::Kind::kAdd) ++total_nodes;
  }
  std::vector<Policy*> policies;
  const auto latency_hashes = SharedLatencyHashes(*source, options);
  session.nodes_.reserve(total_nodes);
  size_t add_index = 0;
  for (size_t k = 0; k < total_nodes; ++k) {
    NodeState state = NodeState::kRoutable;
    int capacity = cluster.node_capacity;
    if (k >= static_cast<size_t>(cluster.nodes)) {
      state = NodeState::kPending;
      // Pending ids map to add events in timeline order.
      while (session.events_[add_index].kind != NodeEvent::Kind::kAdd) {
        ++add_index;
      }
      const int add_capacity = session.events_[add_index].capacity;
      if (add_capacity >= 0) capacity = add_capacity;
      ++add_index;
    }
    SPES_ASSIGN_OR_RETURN(std::unique_ptr<Policy> node_policy,
                          PolicyRegistry::Global().Create(policy));
    policies.push_back(node_policy.get());
    SPES_ASSIGN_OR_RETURN(EngineLane lane,
                          EngineLane::Create(k, node_policy.get(), n, options,
                                             end, latency_hashes));
    session.nodes_.push_back(Node{.policy = std::move(node_policy),
                                  .lane = std::move(lane),
                                  .state = state,
                                  .capacity = capacity,
                                  .last_used = std::vector<int32_t>(n, -1),
                                  .lru = LruIndex(n),
                                  .arrivals = {}});
  }
  SPES_RETURN_NOT_OK(TrainPolicies(*source, policies, options));
  return session;
}

Result<ClusterSession> ClusterSession::Create(const Trace& trace,
                                              const ClusterSpec& cluster,
                                              const PolicySpec& policy,
                                              const SimOptions& options) {
  auto owned = std::make_unique<InMemoryTraceSource>(trace);
  TraceSource* source = owned.get();
  return CreateImpl(source, std::move(owned), cluster, policy, options);
}

Result<ClusterSession> ClusterSession::Create(TraceSource& source,
                                              const ClusterSpec& cluster,
                                              const PolicySpec& policy,
                                              const SimOptions& options) {
  return CreateImpl(&source, nullptr, cluster, policy, options);
}

void ClusterSession::ApplyEvents(int t) {
  while (event_index_ < events_.size() &&
         events_[event_index_].minute <= t) {
    const NodeEvent& event = events_[event_index_++];
    switch (event.kind) {
      case NodeEvent::Kind::kAdd: {
        // Pending nodes activate in id order (ids were assigned in
        // timeline order at Create).
        for (Node& node : nodes_) {
          if (node.state == NodeState::kPending) {
            node.state = NodeState::kRoutable;
            break;
          }
        }
        break;
      }
      case NodeEvent::Kind::kDrain:
        nodes_[static_cast<size_t>(event.node)].state = NodeState::kDraining;
        break;
      case NodeEvent::Kind::kFail: {
        Node& node = nodes_[static_cast<size_t>(event.node)];
        node.state = NodeState::kFailed;
        node.lane.EvictAll(t);  // instances lost
        break;
      }
    }
  }
}

void ClusterSession::LruIndex::Touch(int32_t t, uint32_t f) {
  const Entry e{t, f};
  if (fifo_.size() == head_ || !Before(e, fifo_.back())) {
    fifo_.push_back(e);
  } else {
    PushLate(e);
  }
}

void ClusterSession::LruIndex::PushLate(Entry e) {
  late_.push_back(e);
  std::push_heap(late_.begin(), late_.end(), After);
}

void ClusterSession::LruIndex::PopLate() {
  std::pop_heap(late_.begin(), late_.end(), After);
  late_.pop_back();
}

size_t ClusterSession::LruIndex::Evict(MemSet* mem,
                                       const std::vector<int32_t>& last_used,
                                       int t, size_t excess) {
  // Instances loaded since the last sync without an arrival stamped after
  // it (policy prewarms, reloads of evicted instances) have no entry with
  // their current key yet. Stamps after the sync were touched already.
  const std::vector<uint64_t>& words = mem->words();
  for (size_t w = 0; w < words.size(); ++w) {
    uint64_t gained = words[w] & ~synced_words_[w];
    while (gained != 0) {
      const uint32_t f =
          static_cast<uint32_t>((w << 6) + std::countr_zero(gained));
      if (last_used[f] <= synced_at_) PushLate({last_used[f], f});
      gained &= gained - 1;
    }
  }

  size_t evicted = 0;
  while (evicted < excess) {
    while (head_ < fifo_.size() && !Live(fifo_[head_], *mem, last_used)) {
      ++head_;
    }
    while (!late_.empty() && !Live(late_.front(), *mem, last_used)) {
      PopLate();
    }
    const bool have_fifo = head_ < fifo_.size();
    if (!have_fifo && late_.empty()) break;
    const bool from_fifo =
        have_fifo && (late_.empty() || Before(fifo_[head_], late_.front()));
    const Entry victim = from_fifo ? fifo_[head_] : late_.front();
    // Every remaining live key is at least this one, so everything left
    // arrived this minute and is executing.
    if (victim.used == t) break;
    mem->Remove(victim.f);
    ++evicted;
    if (from_fifo) {
      ++head_;
    } else {
      PopLate();
    }
  }

  // Drop the consumed prefix once it dominates the buffer.
  if (head_ > 1024 && 2 * head_ > fifo_.size()) {
    fifo_.erase(fifo_.begin(), fifo_.begin() + static_cast<ptrdiff_t>(head_));
    head_ = 0;
  }
  std::copy(words.begin(), words.end(), synced_words_.begin());
  synced_at_ = t;
  return evicted;
}

void ClusterSession::LruIndex::Rebuild(const MemSet& mem,
                                       const std::vector<int32_t>& last_used,
                                       int t) {
  fifo_.clear();
  head_ = 0;
  late_.clear();
  mem.ForEachLoaded([&](size_t f) {
    fifo_.push_back({last_used[f], static_cast<uint32_t>(f)});
  });
  std::sort(fifo_.begin(), fifo_.end(), Before);
  std::copy(mem.words().begin(), mem.words().end(), synced_words_.begin());
  synced_at_ = t;
}

void ClusterSession::EnforceCapacity(Node* node, int t) {
  if (node->capacity <= 0) return;
  MemSet& mem = node->lane.mem();
  // Stale entries pile up while the node stays under capacity (nothing
  // pops them); a rebuild bounds the index at O(functions).
  if (node->lru.size() > 2 * mem.Capacity() + 64) {
    node->lru.Rebuild(mem, node->last_used, t);
  }
  const size_t capacity = static_cast<size_t>(node->capacity);
  if (mem.Count() <= capacity) return;
  // Idle instances (not executing this minute) go in LRU order by last
  // arrival on this node; ties evict the lowest id. Executing instances
  // may keep the node above capacity for this minute (executions pin).
  node->pressure_evictions +=
      node->lru.Evict(&mem, node->last_used, t, mem.Count() - capacity);
}

Status ClusterSession::StepLocked() {
  const int t = cursor_;

  ApplyEvents(t);

  // Decode this minute's arrivals ONCE; every node shares the decode. The
  // block-transposing decoder makes this O(arrivals) amortized.
  const std::span<const Invocation> decoded = decoder_.Decode(t);
  SPES_RETURN_NOT_OK(decoder_.status());
  arrivals_.assign(decoded.begin(), decoded.end());
  ++minutes_decoded_;

  // Routing views: live load at the start of the minute, bumped as
  // arrivals are routed so intra-minute bursts spread.
  views_.clear();
  views_.reserve(nodes_.size());
  for (size_t k = 0; k < nodes_.size(); ++k) {
    Node& node = nodes_[k];
    node.arrivals.clear();
    NodeView view;
    view.node = static_cast<int>(k);
    view.routable = node.state == NodeState::kRoutable;
    view.capacity = node.capacity;
    view.projected_load = NodeLive(node) ? node.lane.mem().Count() : 0;
    views_.push_back(view);
  }

  for (const Invocation& inv : arrivals_) {
    const uint32_t f = inv.function;
    const int32_t prev = assignment_[f];
    int target = -1;
    if (prev >= 0) {
      Node& previous = nodes_[static_cast<size_t>(prev)];
      if (previous.state == NodeState::kDraining &&
          previous.lane.mem().Contains(f)) {
        // Drain-sticky: the warm instance keeps serving; no new
        // assignment is made on a draining node.
        target = prev;
      }
    }
    if (target < 0) {
      RoutingContext context;
      context.function = f;
      context.function_name = &source_->function_meta(f).name;
      context.previous_node =
          (prev >= 0 &&
           nodes_[static_cast<size_t>(prev)].state == NodeState::kRoutable)
              ? prev
              : -1;
      context.nodes = &views_;
      target = router_->Route(context);
      if (target < 0 || target >= static_cast<int>(nodes_.size()) ||
          !views_[static_cast<size_t>(target)].routable) {
        return Status::Internal(
            "router '" + router_->name() + "' returned node (=" +
            std::to_string(target) + ") which is not routable at minute " +
            std::to_string(t));
      }
      if (prev >= 0 && target != prev) {
        ++reroutes_;
        ++nodes_[static_cast<size_t>(target)].reroutes_in;
      }
      assignment_[f] = static_cast<int32_t>(target);
    }
    Node& serving = nodes_[static_cast<size_t>(target)];
    if (!serving.lane.mem().Contains(f)) {
      ++views_[static_cast<size_t>(target)].projected_load;
    }
    serving.arrivals.push_back(inv);
    serving.last_used[f] = t;
    if (serving.capacity > 0) serving.lru.Touch(t, f);
  }

  for (Node& node : nodes_) {
    if (!NodeLive(node)) {
      // Nothing routes here, but the series keeps one entry per minute
      // and the latency queue keeps draining.
      node.lane.Idle(t);
      continue;
    }
    // Per node, a minute is a lane minute over its routed arrivals, with
    // the capacity shed between the policy step and the residency sample.
    node.lane.Admit(t, node.arrivals);
    EnforceCapacity(&node, t);
    node.lane.Accrue(t, node.arrivals);
  }
  ++cursor_;

  // Minute t is committed on every node: only now do observers see it.
  bool stop_requested = false;
  for (Node& node : nodes_) {
    if (NodeLive(node) &&
        !node.lane.Publish(t, node.arrivals, observers_)) {
      stop_requested = true;
    }
  }
  if (stop_requested) stopped_ = true;
  return Status::OK();
}

Result<ClusterOutcome> ClusterSession::Finish() {
  SPES_ASSIGN_OR_RETURN(const ScopedSpan finish_span, BeginFinish());

  const size_t n = source_->num_functions();
  const std::string policy_name = nodes_[0].policy->name();

  ClusterOutcome outcome;
  outcome.reroutes = reroutes_;

  // Fleet-wide aggregate: per-function accounts and the memory series are
  // element-wise sums over nodes; every derived metric comes from the
  // sums, so a single-node cluster reproduces the plain engine exactly.
  std::vector<FunctionAccount> fleet_accounts(n);
  std::vector<uint32_t> fleet_series;
  double fleet_overhead = 0.0;
  // Fleet latency: the exact histogram merge of every node's outcome
  // (fixed bucket geometry makes the merge lossless).
  LatencyOutcome fleet_latency;

  outcome.nodes.reserve(nodes_.size());
  for (size_t k = 0; k < nodes_.size(); ++k) {
    Node& node = nodes_[k];
    NodeOutcome out;
    out.node = static_cast<int>(k);
    out.sim = node.lane.TakeOutcome();
    for (size_t f = 0; f < n; ++f) fleet_accounts[f] += out.sim.accounts[f];
    const std::vector<uint32_t>& series = out.sim.memory_series;
    if (fleet_series.size() < series.size()) {
      fleet_series.resize(series.size(), 0);
    }
    for (size_t i = 0; i < series.size(); ++i) fleet_series[i] += series[i];
    fleet_overhead += out.sim.metrics.overhead_seconds;
    if (out.sim.latency != nullptr) {
      MergeLatencyOutcome(&fleet_latency, *out.sim.latency);
    }

    switch (node.state) {
      case NodeState::kPending:
        out.final_state = "pending";
        break;
      case NodeState::kRoutable:
        out.final_state = "routable";
        break;
      case NodeState::kDraining:
        out.final_state = "draining";
        break;
      case NodeState::kFailed:
        out.final_state = "failed";
        break;
    }
    out.pressure_evictions = node.pressure_evictions;
    out.reroutes_in = node.reroutes_in;
    out.policy = std::move(node.policy);
    outcome.nodes.push_back(std::move(out));
  }

  outcome.fleet.metrics = ComputeFleetMetrics(policy_name, fleet_accounts,
                                              fleet_series, fleet_overhead);
  outcome.fleet.accounts = std::move(fleet_accounts);
  outcome.fleet.memory_series = std::move(fleet_series);
  if (options_.latency.has_value()) {
    FinalizeLatencyOutcome(&fleet_latency);
    outcome.fleet.latency =
        std::make_shared<const LatencyOutcome>(std::move(fleet_latency));
  }

  for (SimObserver* observer : observers_) {
    for (size_t k = 0; k < outcome.nodes.size(); ++k) {
      observer->OnStreamEnd(k, outcome.nodes[k].sim);
    }
  }
  return outcome;
}

Result<ClusterCheckpoint> ClusterSession::Checkpoint() const {
  ClusterCheckpoint checkpoint;
  SPES_RETURN_NOT_OK(BeginCheckpoint(&checkpoint));
  checkpoint.reroutes = reroutes_;
  checkpoint.event_index = event_index_;
  checkpoint.assignment = assignment_;
  checkpoint.nodes.reserve(nodes_.size());
  for (const Node& node : nodes_) {
    ClusterCheckpoint::Node out;
    SPES_RETURN_NOT_OK(node.lane.Save(&out));
    out.state = static_cast<uint8_t>(node.state);
    out.capacity = node.capacity;
    out.last_used = node.last_used;
    out.pressure_evictions = node.pressure_evictions;
    out.reroutes_in = node.reroutes_in;
    checkpoint.nodes.push_back(std::move(out));
  }
  RecordCheckpointEvent("save");
  return checkpoint;
}

Status ClusterSession::Restore(const ClusterCheckpoint& checkpoint) {
  SPES_RETURN_NOT_OK(BeginRestore(checkpoint, checkpoint.nodes.size()));
  const size_t n = source_->num_functions();
  if (checkpoint.event_index > events_.size()) {
    return Status::InvalidArgument(
        "checkpoint event_index (=" + std::to_string(checkpoint.event_index) +
        ") exceeds this session's timeline (=" +
        std::to_string(events_.size()) + " events)");
  }
  if (checkpoint.assignment.size() != n) {
    return Status::InvalidArgument(
        "checkpoint assignment is sized for (=" +
        std::to_string(checkpoint.assignment.size()) +
        ") functions, expected (=" + std::to_string(n) + ")");
  }
  for (size_t f = 0; f < n; ++f) {
    const int32_t a = checkpoint.assignment[f];
    if (a < -1 || a >= static_cast<int32_t>(nodes_.size())) {
      return Status::InvalidArgument(
          "checkpoint assignment[" + std::to_string(f) + "] (=" +
          std::to_string(a) + ") is outside [-1, " +
          std::to_string(nodes_.size() - 1) + "]");
    }
  }
  for (size_t k = 0; k < nodes_.size(); ++k) {
    const ClusterCheckpoint::Node& in = checkpoint.nodes[k];
    const std::string where = "checkpoint node " + std::to_string(k);
    SPES_RETURN_NOT_OK(
        nodes_[k].lane.CheckShape(in, where, "session", checkpoint.cursor));
    if (in.state > static_cast<uint8_t>(NodeState::kFailed)) {
      return Status::InvalidArgument(where + " state (=" +
                                     std::to_string(in.state) +
                                     ") is not a node lifecycle state");
    }
    if (in.capacity != nodes_[k].capacity) {
      return Status::InvalidArgument(
          where + " capacity (=" + std::to_string(in.capacity) +
          ") does not match this session's cluster spec (=" +
          std::to_string(nodes_[k].capacity) + ")");
    }
    if (in.last_used.size() != n) {
      return Status::InvalidArgument(
          where + " last_used is sized for (=" +
          std::to_string(in.last_used.size()) + ") functions, expected (=" +
          std::to_string(n) + ")");
    }
    // A last arrival at or after the cursor would make an idle instance
    // look executing, shielding it from capacity eviction.
    for (size_t f = 0; f < n; ++f) {
      const int32_t used = in.last_used[f];
      if (used < -1 || used >= checkpoint.cursor) {
        return Status::InvalidArgument(
            where + " last_used[" + std::to_string(f) + "] (=" +
            std::to_string(used) + ") is outside [-1, " +
            std::to_string(checkpoint.cursor) + ")");
      }
    }
  }

  // Shape checks all passed; hand each node's lane its policy, latency
  // and engine state, then the cluster-side fields. A failure here leaves
  // the session in an unspecified mix of old and new state — callers must
  // discard the session on a non-OK Restore.
  for (size_t k = 0; k < nodes_.size(); ++k) {
    const ClusterCheckpoint::Node& in = checkpoint.nodes[k];
    Node& node = nodes_[k];
    SPES_RETURN_NOT_OK(node.lane.Load(in, checkpoint.cursor));
    node.state = static_cast<NodeState>(in.state);
    node.last_used = in.last_used;
    if (node.capacity > 0) {
      node.lru.Rebuild(node.lane.mem(), node.last_used, checkpoint.cursor - 1);
    }
    node.pressure_evictions = in.pressure_evictions;
    node.reroutes_in = in.reroutes_in;
  }
  reroutes_ = checkpoint.reroutes;
  event_index_ = static_cast<size_t>(checkpoint.event_index);
  assignment_ = checkpoint.assignment;
  EndRestore(checkpoint);
  return Status::OK();
}

std::string SerializeClusterCheckpoint(const ClusterCheckpoint& checkpoint) {
  BinaryWriter w;
  w.PutBytes(kClusterCheckpointMagic);
  w.PutU32(kClusterCheckpointVersion);
  WriteCheckpointWindow(w, checkpoint);
  w.PutU64(checkpoint.reroutes);
  w.PutU64(checkpoint.event_index);
  w.PutVector(checkpoint.assignment);
  w.PutU64(checkpoint.nodes.size());
  for (const ClusterCheckpoint::Node& node : checkpoint.nodes) {
    w.PutBytes(node.policy_name);
    w.PutU8(node.state);
    w.PutI32(node.capacity);
    WriteLaneCounters(w, node);
    w.PutVector(node.last_used);
    WriteLaneTotals(w, node);
    w.PutU64(node.pressure_evictions);
    w.PutU64(node.reroutes_in);
    w.PutBytes(node.policy_state);
    w.PutBytes(node.latency_state);
  }
  return w.Take();
}

Status CheckOutcomeInvariants(const ClusterOutcome& outcome) {
  const SimulationOutcome& fleet = outcome.fleet;
  SPES_RETURN_NOT_OK(CheckOutcomeInvariants(fleet));
  std::vector<FunctionAccount> sum(fleet.accounts.size());
  std::vector<uint64_t> series(fleet.memory_series.size(), 0);
  for (const NodeOutcome& node : outcome.nodes) {
    const std::string where = "node (=" + std::to_string(node.node) + "): ";
    const Status status = CheckOutcomeInvariants(node.sim);
    if (!status.ok()) return Status::Internal(where + status.message());
    if (node.sim.accounts.size() != sum.size() ||
        node.sim.memory_series.size() != series.size()) {
      return Status::Internal(where + "outcome shape differs from the fleet's");
    }
    for (size_t f = 0; f < sum.size(); ++f) sum[f] += node.sim.accounts[f];
    for (size_t t = 0; t < series.size(); ++t) {
      series[t] += node.sim.memory_series[t];
    }
  }
  for (size_t f = 0; f < sum.size(); ++f) {
    if (!(sum[f] == fleet.accounts[f])) {
      return Status::Internal("per-node accounts of function (=" +
                              std::to_string(f) +
                              ") do not sum to the fleet account");
    }
  }
  for (size_t t = 0; t < series.size(); ++t) {
    if (series[t] != fleet.memory_series[t]) {
      return Status::Internal("per-node memory at series index (=" +
                              std::to_string(t) +
                              ") does not sum to the fleet's");
    }
  }
  return Status::OK();
}

Result<ClusterCheckpoint> ParseClusterCheckpoint(const std::string& bytes) {
  BinaryReader r(bytes);
  SPES_ASSIGN_OR_RETURN(const std::string magic, r.Bytes());
  if (magic != kClusterCheckpointMagic) {
    return Status::InvalidArgument(
        "not a SPES cluster checkpoint (bad magic tag)");
  }
  SPES_ASSIGN_OR_RETURN(const uint32_t version, r.U32());
  if (version != kClusterCheckpointVersion) {
    return Status::InvalidArgument(
        "unsupported cluster checkpoint version (=" +
        std::to_string(version) + "), expected (=" +
        std::to_string(kClusterCheckpointVersion) + ")");
  }
  ClusterCheckpoint checkpoint;
  SPES_RETURN_NOT_OK(ReadCheckpointWindow(r, &checkpoint));
  SPES_ASSIGN_OR_RETURN(checkpoint.reroutes, r.U64());
  SPES_ASSIGN_OR_RETURN(checkpoint.event_index, r.U64());
  SPES_ASSIGN_OR_RETURN(checkpoint.assignment, r.Vector<int32_t>());
  // Minimal encoded node: 117 bytes (empty name/blob/vector prefixes +
  // state + capacity + totals + overhead + cluster counters) — bounds
  // reserve() against corrupt counts.
  SPES_ASSIGN_OR_RETURN(const uint64_t num_nodes, r.Length(117));
  checkpoint.nodes.reserve(num_nodes);
  for (uint64_t k = 0; k < num_nodes; ++k) {
    ClusterCheckpoint::Node node;
    SPES_ASSIGN_OR_RETURN(node.policy_name, r.Bytes());
    SPES_ASSIGN_OR_RETURN(node.state, r.U8());
    SPES_ASSIGN_OR_RETURN(node.capacity, r.I32());
    SPES_RETURN_NOT_OK(ReadLaneCounters(r, &node));
    SPES_ASSIGN_OR_RETURN(node.last_used, r.Vector<int32_t>());
    SPES_RETURN_NOT_OK(ReadLaneTotals(r, &node));
    SPES_ASSIGN_OR_RETURN(node.pressure_evictions, r.U64());
    SPES_ASSIGN_OR_RETURN(node.reroutes_in, r.U64());
    SPES_ASSIGN_OR_RETURN(node.policy_state, r.Bytes());
    SPES_ASSIGN_OR_RETURN(node.latency_state, r.Bytes());
    checkpoint.nodes.push_back(std::move(node));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        "cluster checkpoint has " + std::to_string(r.remaining()) +
        " trailing bytes");
  }
  return checkpoint;
}

}  // namespace spes
