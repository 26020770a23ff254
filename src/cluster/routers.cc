// The built-in routing strategies (hash, least_loaded, locality) and the
// RouterRegistry::Global() that registers them.
//
// All three are pure functions of the RoutingContext. Tie-breaking is
// always "lowest node id", and the hash is FNV-1a over the function name
// (the same stable keying the trace transforms use), so every strategy is
// bitwise-deterministic across runs and independent of fleet ordering.

#include "cluster/router.h"

#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "common/rng.h"

namespace spes {

namespace {

constexpr char kKind[] = "router";

// Placement hashes use MixNameSeed (common/rng.h) — the same stable
// name-keyed mixing the stochastic trace transforms draw their
// per-function streams from.

/// The routable node with the smallest projected load; ties go to the
/// lowest id. `require_headroom` restricts the search to nodes whose
/// projected load is below `pressure` x capacity (uncapped nodes always
/// qualify); returns -1 when no routable node passes the restriction.
int LeastLoaded(const std::vector<NodeView>& nodes, bool require_headroom,
                double pressure) {
  int best = -1;
  size_t best_load = std::numeric_limits<size_t>::max();
  for (const NodeView& node : nodes) {
    if (!node.routable) continue;
    if (require_headroom && node.capacity > 0 &&
        static_cast<double>(node.projected_load) >=
            pressure * static_cast<double>(node.capacity)) {
      continue;
    }
    if (node.projected_load < best_load) {
      best = node.node;
      best_load = node.projected_load;
    }
  }
  return best;
}

/// `hash` — stable function→node assignment: the node is a pure function
/// of (function name, seed, routable set), so the mapping never moves
/// while the node set is stable. When the routable set changes (fail,
/// drain, add) the modulus changes and assignments reshuffle — the
/// classic mod-N rehash cost, surfaced as re-routed cold starts.
class HashRouter : public Router {
 public:
  explicit HashRouter(uint64_t seed) : seed_(seed) {}

  std::string name() const override { return "hash"; }

  int Route(const RoutingContext& context) const override {
    const std::vector<NodeView>& nodes = *context.nodes;
    size_t routable = 0;
    for (const NodeView& node : nodes) {
      if (node.routable) ++routable;
    }
    size_t pick = MixNameSeed(*context.function_name, seed_) % routable;
    for (const NodeView& node : nodes) {
      if (!node.routable) continue;
      if (pick == 0) return node.node;
      --pick;
    }
    return -1;  // unreachable: the session guarantees a routable node
  }

 private:
  uint64_t seed_;
};

/// `least_loaded` — route by live memory: a function keeps its sticky
/// node while it remains routable; (re)assignments go to the routable
/// node with the fewest projected instances.
class LeastLoadedRouter : public Router {
 public:
  std::string name() const override { return "least_loaded"; }

  int Route(const RoutingContext& context) const override {
    if (context.previous_node >= 0) return context.previous_node;
    return LeastLoaded(*context.nodes, /*require_headroom=*/false, 0.0);
  }
};

/// `locality` — sticky with spill-over on pressure: a function stays on
/// its node while that node has headroom (projected load below
/// `pressure` x capacity); otherwise the arrival spills to the least
/// loaded node with headroom (or the overall least loaded when every
/// node is pressured) and that node becomes the new sticky home. First
/// arrivals are hash-spread so the fleet starts out spatially balanced.
class LocalityRouter : public Router {
 public:
  LocalityRouter(double pressure, uint64_t seed)
      : pressure_(pressure), seed_(seed) {}

  std::string name() const override { return "locality"; }

  int Route(const RoutingContext& context) const override {
    const std::vector<NodeView>& nodes = *context.nodes;
    if (context.previous_node >= 0) {
      const NodeView& prev = nodes[static_cast<size_t>(context.previous_node)];
      if (prev.capacity == 0 ||
          static_cast<double>(prev.projected_load) <
              pressure_ * static_cast<double>(prev.capacity)) {
        return prev.node;
      }
      const int spill =
          LeastLoaded(nodes, /*require_headroom=*/true, pressure_);
      return spill >= 0 ? spill
                        : LeastLoaded(nodes, /*require_headroom=*/false, 0.0);
    }
    // No sticky home yet: hash-spread, preferring nodes with headroom.
    size_t candidates = 0;
    for (const NodeView& node : nodes) {
      if (node.routable) ++candidates;
    }
    size_t pick = MixNameSeed(*context.function_name, seed_) % candidates;
    for (const NodeView& node : nodes) {
      if (!node.routable) continue;
      if (pick == 0) {
        if (node.capacity == 0 ||
            static_cast<double>(node.projected_load) <
                pressure_ * static_cast<double>(node.capacity)) {
          return node.node;
        }
        const int spill =
            LeastLoaded(nodes, /*require_headroom=*/true, pressure_);
        return spill >= 0
                   ? spill
                   : LeastLoaded(nodes, /*require_headroom=*/false, 0.0);
      }
      --pick;
    }
    return -1;  // unreachable: the session guarantees a routable node
  }

 private:
  double pressure_;
  uint64_t seed_;
};

void RegisterBuiltinRouters(RouterRegistry& registry) {
  registry
      .Register(
          {"hash",
           "stable function->node assignment by name hash (mod-N rehash "
           "when the node set changes)",
           {{"seed", ParamType::kInt, ParamValue(0),
             "hash seed; distinct seeds give distinct stable placements", 0}},
           [](const RouterParams& params) -> Result<std::unique_ptr<Router>> {
             return std::unique_ptr<Router>(
                 new HashRouter(static_cast<uint64_t>(params.GetInt("seed"))));
           }})
      .CheckOK();
  registry
      .Register(
          {"least_loaded",
           "sticky assignment; (re)assignments go to the node with the "
           "fewest live instances",
           {},
           [](const RouterParams&) -> Result<std::unique_ptr<Router>> {
             return std::unique_ptr<Router>(new LeastLoadedRouter());
           }})
      .CheckOK();
  registry
      .Register(
          {"locality",
           "sticky while the home node has headroom; spills to the least "
           "loaded node under memory pressure",
           {{"pressure", ParamType::kDouble, ParamValue(1.0),
             "spill threshold as a fraction of node capacity", 1e-9, 1.0},
            {"seed", ParamType::kInt, ParamValue(0),
             "hash seed for the initial spread of first arrivals", 0}},
           [](const RouterParams& params) -> Result<std::unique_ptr<Router>> {
             return std::unique_ptr<Router>(new LocalityRouter(
                 params.GetDouble("pressure"),
                 static_cast<uint64_t>(params.GetInt("seed"))));
           }})
      .CheckOK();
}

}  // namespace

Result<RouterSpec> ParseRouterSpec(const std::string& text) {
  return ParseNamedSpec(text, kKind);
}

template <>
RouterRegistry& RouterRegistry::Global() {
  static RouterRegistry* registry = [] {
    auto* r = new RouterRegistry(kKind);
    RegisterBuiltinRouters(*r);
    return r;
  }();
  return *registry;
}

}  // namespace spes
