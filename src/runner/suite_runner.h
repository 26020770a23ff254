// SuiteRunner: runs a whole batch of ScenarioSpecs — a figure sweep as
// data — either fanned out across a thread pool or as lockstep lanes over
// one trace walk.
//
// Policies are stateful (Train() fills per-function models), so each slot
// builds a fresh policy instance through the registry; nothing is shared
// between slots except read-only traces. Results are collected by slot
// index, so the output order — and therefore every report table built from
// it — is bitwise identical at any thread count.

#ifndef SPES_RUNNER_SUITE_RUNNER_H_
#define SPES_RUNNER_SUITE_RUNNER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "sim/engine.h"
#include "sim/policy.h"
#include "trace/trace.h"

namespace spes {

struct ScenarioSpec;  // sim/scenario.h; spec-batch callers include it.

/// \brief Outcome of one slot. `outcome` is meaningful only when
/// `status.ok()`; `policy` is the trained instance (kept alive for
/// per-type breakdowns such as BreakdownByType). For cluster slots,
/// `outcome` is the fleet-wide aggregate, `policy` is null, and `cluster`
/// carries the per-node breakdown.
struct JobResult {
  std::string label;
  Status status;
  SimulationOutcome outcome;
  std::unique_ptr<Policy> policy;
  std::shared_ptr<const ClusterOutcome> cluster;
};

/// \brief Progress callback: invoked after each slot finishes with the
/// number of completed slots, the total, and the finished slot's result.
/// Serialized by the runner (never called concurrently).
using ProgressCallback =
    std::function<void(size_t finished, size_t total, const JobResult&)>;

/// \brief Runner knobs.
struct SuiteRunnerOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  int num_threads = 0;
  ProgressCallback progress;
};

/// \brief Runs spec batches through the scenario core (sim/scenario.h).
///
/// Every form validates each spec and builds its policy (or cluster)
/// through the registries; an invalid spec yields a JobResult carrying the
/// precise validation/registry error in its slot while sibling specs still
/// run. Each slot's label is the spec's label, or the policy's name()
/// when empty. Workloads resolve through one TraceCache per batch: specs
/// sharing a (source, chain) share one realized trace, and a chain is
/// applied to the cached base of its source, once per distinct chain.
class SuiteRunner {
 public:
  explicit SuiteRunner(SuiteRunnerOptions options = {});

  /// \brief Thread-pool batch with `trace` standing in for every spec's
  /// trace source; each spec's transform chain is applied on top of it.
  [[nodiscard]] std::vector<JobResult> Run(
      const Trace& trace, const std::vector<ScenarioSpec>& specs) const;

  /// \brief Trace-less thread-pool batch: every spec realizes its *own*
  /// trace source with its transform chain applied, so one batch can sweep
  /// policies across stressed workload variants as pure data. Realization
  /// runs on the calling thread; a spec whose source or chain fails yields
  /// a JobResult carrying the precise error in its slot.
  [[nodiscard]] std::vector<JobResult> Run(
      const std::vector<ScenarioSpec>& specs) const;

  /// \brief Lockstep batch over `trace` (standing in for every spec's
  /// source, as in Run(trace, specs)): instead of one run per spec, specs
  /// sharing a workload (the same transform chain) and every SimOptions
  /// field but recorder_slot become lanes of ONE multi-policy SimStream,
  /// so each group walks its workload once — one arrival decode per minute
  /// serves every policy in the group. Runs on the calling thread.
  /// Results are slot-indexed and bitwise identical to Run(trace, specs).
  /// Each spec's observers see only their own spec's run, presented as a
  /// single-lane stream (MinuteView::lane == 0, exactly as in the pooled
  /// Run) — but lanes in a group share one cursor, so an early stop
  /// requested by ANY spec's observer halts that whole group and its
  /// sibling slots return partial-window outcomes (with OK status).
  /// Recorded events of a group carry its first slot. Cluster specs do
  /// not join a lane group (a cluster is already its own multi-lane
  /// session); each runs as a group of one. The progress callback fires
  /// per slot: failed slots first, then each group as it completes, in
  /// order of the groups' first slots.
  [[nodiscard]] std::vector<JobResult> RunLockstep(
      const Trace& trace, const std::vector<ScenarioSpec>& specs) const;

  /// \brief Effective worker count for `num_jobs` slots (>= 1).
  [[nodiscard]] int EffectiveThreads(size_t num_jobs) const;

 private:
  SuiteRunnerOptions options_;
};

/// \brief Convenience: metrics of every successful slot, in slot order
/// (failed slots are skipped).
std::vector<FleetMetrics> CollectMetrics(const std::vector<JobResult>& results);

}  // namespace spes

#endif  // SPES_RUNNER_SUITE_RUNNER_H_
