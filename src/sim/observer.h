// The SimObserver hook interface of the streaming engine (sim/stream.h).
//
// Observers are attached to a SimStream and receive one callback per
// simulated minute per lane, carrying a read-only view of that lane's
// arrivals, memory set and incremental counters. Time-series capture,
// live metric snapshots, progress reporting and early-stop predicates are
// all observers (see sim/observers.h for the stock ones) instead of logic
// baked into the engine loop.

#ifndef SPES_SIM_OBSERVER_H_
#define SPES_SIM_OBSERVER_H_

#include <cstddef>
#include <vector>

#include "sim/accounting.h"
#include "sim/memset.h"
#include "sim/policy.h"

namespace spes {

struct LatencyLiveTotals;  // latency/latency.h

/// \brief Static facts about a stream, delivered once before its first
/// simulated minute.
struct StreamInfo {
  int train_minutes = 0;   ///< training prefix length
  int start_minute = 0;    ///< first simulated minute (== train_minutes)
  int end_minute = 0;      ///< one past the last simulated minute (resolved)
  size_t num_lanes = 0;    ///< lockstep policy lanes (1 for single-policy)
  size_t num_functions = 0;
};

/// \brief Read-only view of one lane at the end of one simulated minute
/// (after the policy step, execution pinning and residency accounting).
/// Borrowed references are valid only for the duration of the callback.
/// Building the view is O(1): per-function accounts are not part of it
/// (SimStream::SnapshotMetrics and the outcome carry them).
struct MinuteView {
  int minute = 0;   ///< the absolute trace minute just simulated
  size_t lane = 0;  ///< which policy lane (0 for single-policy streams)
  const Policy* policy = nullptr;
  const std::vector<Invocation>* arrivals = nullptr;  ///< this minute's
  const MemSet* mem = nullptr;                        ///< post-step state
  const std::vector<uint32_t>* memory_series = nullptr;  ///< so far
  LiveTotals totals;  ///< fleet-wide counters through this minute
  /// Live latency counters when the opt-in latency subsystem is enabled;
  /// null otherwise (latency/latency.h).
  const LatencyLiveTotals* latency = nullptr;

  /// \brief Instances loaded at the end of this minute.
  [[nodiscard]] uint32_t loaded_instances() const {
    return static_cast<uint32_t>(mem->Count());
  }
};

/// \brief Per-minute hook interface. Implementations must not retain the
/// borrowed pointers inside a MinuteView past the callback.
class SimObserver {
 public:
  virtual ~SimObserver() = default;

  /// \brief Called once, before the stream's first simulated minute
  /// (policies are already trained at this point).
  virtual void OnStreamStart(const StreamInfo& info) { (void)info; }

  /// \brief Called once per lane per simulated minute, in lane order,
  /// after every lane has finished that minute and the session's cursor
  /// has moved past it: a snapshot or checkpoint taken here sees the
  /// minute committed on every lane. Return false to request an early
  /// stop: the session halts after this minute.
  virtual bool OnMinute(const MinuteView& view) {
    (void)view;
    return true;
  }

  /// \brief Called once per lane when the stream is finished (end of
  /// window or early stop), with the lane's final outcome.
  virtual void OnStreamEnd(size_t lane, const SimulationOutcome& outcome) {
    (void)lane;
    (void)outcome;
  }
};

}  // namespace spes

#endif  // SPES_SIM_OBSERVER_H_
