// The rebuild-and-partial_sort capacity eviction, kept as the
// differential-testing oracle for the cluster's incremental LRU index.
//
// ClusterSession evicts from a per-node LRU index fed by the routing loop
// and a membership diff, at O(evictions + changes) per node-minute.
// ReferenceCapacityVictims() is the rule it must reproduce, computed the
// way the cluster used to: walk every loaded instance, skip the executing
// (pinned) ones, and partial-sort the rest by (last_used, id).
// tests/cluster_eviction_test.cc replays real cluster runs against it.

#ifndef SPES_CLUSTER_REFERENCE_EVICTION_H_
#define SPES_CLUSTER_REFERENCE_EVICTION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/memset.h"

namespace spes {

/// \brief The instances a node at minute `t` evicts to get from
/// `mem.Count()` down to `capacity` loaded instances: the lowest
/// (last_used[f], f) pairs among loaded f, where instances with
/// last_used[f] == t are executing and skipped. Fewer than the excess
/// come back when too many instances are executing. Ascending
/// (last_used, id) order; empty when the node fits.
std::vector<uint32_t> ReferenceCapacityVictims(
    const MemSet& mem, const std::vector<int32_t>& last_used, int t,
    size_t capacity);

}  // namespace spes

#endif  // SPES_CLUSTER_REFERENCE_EVICTION_H_
