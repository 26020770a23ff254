// Provisioning policy interface shared by SPES and all baselines.
//
// A policy is trained offline on the first `train_minutes` of a trace and
// then stepped once per simulated minute. Within a step it sees the minute's
// arrivals and mutates the MemSet (pre-loads and evictions). The engine —
// not the policy — accounts cold starts, so all policies are measured
// identically.

#ifndef SPES_SIM_POLICY_H_
#define SPES_SIM_POLICY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/memset.h"
#include "trace/trace.h"
#include "trace/trace_source.h"  // Invocation lives with the trace sources

namespace spes {

/// \brief Interface implemented by every provisioning strategy.
class Policy {
 public:
  virtual ~Policy() = default;

  /// \brief Human-readable policy name used in reports.
  [[nodiscard]] virtual std::string name() const = 0;

  /// \brief Offline phase: observe `trace` restricted to minutes
  /// [0, train_minutes). Called exactly once before any OnMinute().
  virtual void Train(const Trace& trace, int train_minutes) = 0;

  /// \brief "Train me on the whole horizon": true when Train() must see
  /// every minute of the trace, not just the train window (the oracle
  /// indexes its future there). Engines then hand Train() the full trace
  /// — materialized from a streamed source if need be — and every policy
  /// still runs on every path; see TrainPolicies() in sim/engine_lane.h.
  [[nodiscard]] virtual bool RequiresFullTrace() const { return false; }

  /// \brief Online step for minute `t` (absolute trace minute).
  ///
  /// The engine has already loaded every arriving function into `mem`
  /// (executions occupy memory regardless of policy); the policy applies
  /// its keep-alive / pre-warm / eviction logic. `arrivals` lists this
  /// minute's invoked functions with counts, one entry per function.
  ///
  /// Successive calls have strictly increasing `t`, but minutes may be
  /// skipped: a cluster node is not stepped while it is pending or failed,
  /// so an added node's first call comes at its `add{}` minute. Between
  /// calls `mem` may lose instances the policy did not remove (capacity
  /// eviction on a cluster node).
  virtual void OnMinute(int t, const std::vector<Invocation>& arrivals,
                        MemSet* mem) = 0;

  /// \name Checkpoint support (opt-in)
  ///
  /// A checkpointable policy can serialize everything OnMinute() mutates
  /// into an opaque blob and later restore it, so a SimStream holding the
  /// policy can snapshot mid-window and resume bit-for-bit (sim/stream.h).
  /// RestoreState() is called on a policy that was constructed with the
  /// same parameters and Train()ed on the same trace and window as the one
  /// that produced the blob; it only needs to reinstate online-mutable
  /// state. A policy may also keep derived state that the blob does not
  /// hold (an index, a deadline queue): it rebuilds that state after
  /// Train() and RestoreState(), and a RestoreState() followed by
  /// SaveState() returns the input bytes. The default implementation
  /// opts out.
  /// @{
  [[nodiscard]] virtual bool SupportsCheckpoint() const { return false; }
  [[nodiscard]] virtual Result<std::string> SaveState() const {
    return Status::NotImplemented("policy '" + name() +
                                  "' does not support checkpointing");
  }
  virtual Status RestoreState(const std::string& blob) {
    (void)blob;
    return Status::NotImplemented("policy '" + name() +
                                  "' does not support checkpointing");
  }
  /// @}
};

}  // namespace spes

#endif  // SPES_SIM_POLICY_H_
