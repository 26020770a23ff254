// Invocation routing for simulated clusters: which node serves a function.
//
// A Router is the cluster counterpart of a provisioning Policy: a small,
// stateless strategy object consulted once per arriving function per
// minute to pick the node that serves it. Routers self-register in the
// RouterRegistry, an alias of the shared Registry<Product> template
// (core/param_spec.h): canonical lowercase names, typed ParamSpec schemas
// with defaults, and Result<> errors naming the offending field, so a
// ClusterSpec names its router as data — `hash`, `least_loaded{}`,
// `locality{pressure=0.9}`.
//
// Routers are deliberately stateless: the sticky function→node assignment
// map lives in the ClusterSession (cluster/cluster.h), which passes each
// decision the function's previous node. Determinism therefore only
// requires that Route() be a pure function of its context.

#ifndef SPES_CLUSTER_ROUTER_H_
#define SPES_CLUSTER_ROUTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/param_spec.h"

namespace spes {

/// \brief A router as data: canonical name plus parameter overrides.
/// Parameters not listed take the registered defaults.
using RouterSpec = NamedSpec;

/// \brief Validated parameters handed to a registered router factory.
using RouterParams = ParamMap;

/// \brief Parses `name{param=value,...}` into a RouterSpec (same grammar
/// as policy specs; errors say "router spec ...").
Result<RouterSpec> ParseRouterSpec(const std::string& text);

/// \brief Live, read-only facts about one node at routing time.
struct NodeView {
  int node = 0;          ///< stable node id (index into the cluster)
  bool routable = true;  ///< accepts new assignments this minute
  int capacity = 0;      ///< instance capacity; 0 means uncapped
  /// Loaded instances at the start of the minute plus arrivals already
  /// routed here this minute that will load a new instance — so routing
  /// an intra-minute burst spreads it instead of dog-piling one node.
  size_t projected_load = 0;
};

/// \brief Everything a router may consult for one routing decision.
/// Borrowed pointers are valid only for the duration of the Route() call.
struct RoutingContext {
  uint32_t function = 0;                       ///< fleet index
  const std::string* function_name = nullptr;  ///< hashed trace name
  /// The function's sticky node from earlier minutes, or -1 when it has
  /// none (first arrival, or its node drained/failed away).
  int previous_node = -1;
  /// Every node of the cluster, indexed by node id; at least one entry is
  /// routable (the session guarantees it).
  const std::vector<NodeView>* nodes = nullptr;
};

/// \brief Interface implemented by every routing strategy. Route() must
/// return the id of a routable node and must be a pure function of the
/// context (no internal state), so cluster runs stay deterministic.
class Router {
 public:
  virtual ~Router() = default;

  /// \brief Human-readable router name used in reports.
  [[nodiscard]] virtual std::string name() const = 0;

  /// \brief Picks the node that serves this arrival.
  [[nodiscard]] virtual int Route(const RoutingContext& context) const = 0;
};

/// \brief Name -> (schema, factory) table for cluster routers.
using RouterRegistry = Registry<std::unique_ptr<Router>>;

/// \brief Every built-in router: `hash`, `least_loaded`, `locality`
/// (registered in cluster/routers.cc).
template <>
RouterRegistry& RouterRegistry::Global();

}  // namespace spes

#endif  // SPES_CLUSTER_ROUTER_H_
