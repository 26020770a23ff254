// The trace-driven simulation engine.
//
// Follows the simulation principles of §V-A (inherited from Shahrad et al.):
// every execution completes within (and occupies memory for) its arrival
// minute, cold-start latency is uniform, memory is uncapped (one node holds
// all instances), and each function instance consumes one memory unit. The
// engine only needs to track, per minute, which instances are loaded, which
// functions arrive, and how long the policy's step takes.

#ifndef SPES_SIM_ENGINE_H_
#define SPES_SIM_ENGINE_H_

#include <optional>

#include "common/status.h"
#include "latency/latency.h"
#include "sim/accounting.h"
#include "sim/policy.h"
#include "trace/trace.h"

namespace spes {

class RunRecorder;  // obs/recorder.h

/// \brief Engine knobs. Executions always pin: whatever the policy (or a
/// capped cluster node) decides, an arriving function stays loaded through
/// its arrival minute, so wasted minutes = loaded - invoked minutes.
struct SimOptions {
  /// First simulated minute; the policy trains on [0, train_minutes).
  int train_minutes = 12 * kMinutesPerDay;
  /// One past the last simulated minute; 0 means the trace horizon, and
  /// values beyond the horizon are clamped to it.
  int end_minute = 0;
  /// Opt-in latency subsystem (latency/latency.h): when set, every lane
  /// (or cluster node) samples per-request service times, runs them
  /// through its concurrency queue and reports SLO metrics. When unset
  /// (the default) the latency path is never touched and runs are
  /// byte-identical to an engine without the subsystem.
  std::optional<LatencySpec> latency;
  /// Opt-in observability (obs/recorder.h): when set, the engine emits
  /// wall-clock spans, strided heartbeats and subsystem events to the
  /// recorder. Strictly write-only — the recorder never feeds
  /// simulation state, so recorded runs are bitwise-identical to
  /// unrecorded ones (golden-pinned). Not owned; must outlive the run.
  RunRecorder* recorder = nullptr;
  /// Logical SuiteRunner job slot stamped into recorded events so
  /// traces are stable at any thread count. Ignored when recorder is
  /// null; must be non-negative.
  int recorder_slot = 0;
};

/// \brief Trace-independent validation of the engine knobs: a negative
/// train_minutes or end_minute, an end_minute before train_minutes, or an
/// invalid latency block yields InvalidArgument naming the offending
/// field. Shared by the engine and by ScenarioSpec validation
/// (sim/scenario.h) so bad windows are rejected up front, before any
/// trace is realized.
Status ValidateSimOptions(const SimOptions& options);

/// \brief Trains `policy` on the trace prefix and replays the rest.
///
/// Per simulated minute t:
///   1. every arriving function not in memory records a cold start;
///   2. arriving functions are loaded (execution occupies memory);
///   3. the policy's OnMinute mutates the MemSet (timed for RQ2 overhead),
///      then every arriving function is re-loaded (executions pin);
///   4. residency/waste/memory counters are updated.
///
/// Deterministic given (trace, policy behaviour); only the overhead
/// measurement depends on the wall clock.
///
/// Simulate() is a thin wrapper that opens a full-window SimStream
/// (sim/stream.h) and drains it; the loop above lives in the stream. Use
/// SimStream directly for incremental stepping, observers, checkpoints
/// or lockstep multi-policy runs.
///
/// This is the low-level entry point, kept as a compatibility shim for
/// callers that construct Policy instances by hand; besides the scenario
/// run core it is the only library code that opens a SimStream. New code
/// should describe the run as a ScenarioSpec and use one of the six
/// scenario entry points — RunScenario() from sim/scenario.h, or
/// SuiteRunner::Run / RunLockstep from runner/suite_runner.h for batches
/// — which build policies through the registry and validate the spec up
/// front.
Result<SimulationOutcome> Simulate(const Trace& trace, Policy* policy,
                                   const SimOptions& options);

}  // namespace spes

#endif  // SPES_SIM_ENGINE_H_
