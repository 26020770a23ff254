// EngineLane: one lane of the streaming engine — a policy, its MemSet and
// every per-lane counter — and the §V-A minute step over it.
//
// SimStream drives one lane per lockstep policy over one shared arrival
// decode; ClusterSession drives one lane per node over that node's routed
// arrivals. Both run the same two halves per minute, split at the one
// point where they differ:
//
//   Admit(t, arrivals)   cold-start accounting, Policy::OnMinute (timed),
//                        execution pinning
//   (cluster only: capacity eviction on mem())
//   Accrue(t, arrivals)  residency and waste, the memory series, the
//                        latency lane
//
// Once every lane has accrued minute t and the session's cursor has moved
// past it, the session calls Publish(t, ...) on each lane in lane order:
// the observers and the heartbeat. An observer therefore only ever sees
// committed minutes, and a snapshot or checkpoint it takes is consistent
// across lanes.
//
// Both checkpoint wire formats (SPESCKPT and SPESCLCK) are built from the
// two records declared here: a CheckpointWindow (SimCheckpoint and
// ClusterCheckpoint derive from it) and a LaneCheckpoint per lane
// (SimCheckpoint::Lane is one; ClusterCheckpoint::Node extends it). The
// lane fills and reinstates its record (Save/Load), and the helpers
// below encode both records; each format lists its own interleaving of
// them. TrainPolicies() picks the one trace a session's policies train
// on. SessionCore is the session skeleton around the lanes — owned
// adapter, cursor, stop/consumed flags, observers, Step(), RunUntil(),
// OnStreamStart and the Finish(), Checkpoint() and Restore() preambles —
// that both sessions inherit.

#ifndef SPES_SIM_ENGINE_LANE_H_
#define SPES_SIM_ENGINE_LANE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/status.h"
#include "latency/latency.h"
#include "obs/recorder.h"
#include "sim/accounting.h"
#include "sim/columnar.h"
#include "sim/engine.h"
#include "sim/memset.h"
#include "sim/observer.h"
#include "sim/policy.h"
#include "trace/trace_source.h"

namespace spes {

/// \brief Validates `options` against a trace of `horizon` minutes and
/// resolves the end minute (0 = the horizon; larger requests clamp to it).
Result<int> ResolveStreamWindow(int horizon, const SimOptions& options);

/// \brief Trains every policy of one session, in lane order, each inside
/// a "train" span tagged with its lane index. The trace they train on is
/// chosen here and nowhere else: the source's own realized trace when it
/// holds one (no copy), otherwise a prefix materialized from the source —
/// the train window, or the whole horizon when any policy
/// RequiresFullTrace(). Fails only when that materialization fails.
Status TrainPolicies(TraceSource& source, const std::vector<Policy*>& policies,
                     const SimOptions& options);

/// \brief The per-request sampling keys every latency lane of one session
/// shares, or null when `options` has no latency block. The keys depend
/// only on function names and the latency seed, so lockstep lanes and
/// cluster nodes sample identical per-request streams.
std::shared_ptr<const std::vector<uint64_t>> SharedLatencyHashes(
    const TraceSource& source, const SimOptions& options);

/// \brief The window a checkpoint was taken in, common to both session
/// checkpoints (validated on Restore).
struct CheckpointWindow {
  /// Next minute to simulate when resumed.
  int cursor = 0;
  /// The window the session was created with.
  int train_minutes = 0;
  int end_minute = 0;  ///< resolved end (never 0 unless the window is empty)
  uint64_t num_functions = 0;
  bool stopped = false;  ///< an early stop was requested before the snapshot
};

/// \brief One engine lane in a checkpoint: every counter the engine
/// maintains plus the policy's and latency lane's serialized state.
struct LaneCheckpoint {
  std::string policy_name;  ///< Policy::name(), validated on Restore
  std::vector<FunctionAccount> accounts;
  std::vector<uint32_t> memory_series;
  std::vector<uint8_t> loaded;  ///< MemSet membership bytes
  LiveTotals totals;
  double overhead_seconds = 0.0;
  std::string policy_state;  ///< Policy::SaveState() blob
  /// LatencyLane::SaveState() blob when the session ran with a latency
  /// block; empty otherwise.
  std::string latency_state;
};

/// \name Checkpoint codec helpers shared by SPESCKPT and SPESCLCK
/// @{

/// \brief Cursor, window, fleet size and stop flag, plus a legacy execution
/// pin byte that is always written as 1 and rejected when 0.
void WriteCheckpointWindow(BinaryWriter& w, const CheckpointWindow& c);
Status ReadCheckpointWindow(BinaryReader& r, CheckpointWindow* c);

/// \brief Per-function accounts, the memory series and the membership
/// bytes of one lane record.
void WriteLaneCounters(BinaryWriter& w, const LaneCheckpoint& lane);
Status ReadLaneCounters(BinaryReader& r, LaneCheckpoint* lane);

/// \brief Live totals and the wall-clock overhead of one lane record.
void WriteLaneTotals(BinaryWriter& w, const LaneCheckpoint& lane);
Status ReadLaneTotals(BinaryReader& r, LaneCheckpoint* lane);
/// @}

class EngineLane {
 public:
  /// \brief A fresh lane `index` over `num_functions` functions for the
  /// window [options.train_minutes, end_minute): empty memory, zeroed
  /// counters, and a latency lane when `latency_hashes` is non-null (see
  /// SharedLatencyHashes). `policy` is borrowed and already trained.
  static Result<EngineLane> Create(
      size_t index, Policy* policy, size_t num_functions,
      const SimOptions& options, int end_minute,
      std::shared_ptr<const std::vector<uint64_t>> latency_hashes);

  [[nodiscard]] Policy* policy() const { return policy_; }
  [[nodiscard]] const MemSet& mem() const { return mem_; }
  /// Mutable membership, for the cluster's capacity eviction between
  /// Admit() and Accrue().
  [[nodiscard]] MemSet& mem() { return mem_; }

  /// \brief First half of minute `t`: every arrival not in memory is a
  /// cold start (flagged for the latency lane when one is attached), the
  /// arrival loads, the policy steps (its wall time is the lane's
  /// overhead_seconds), then executing functions are pinned.
  void Admit(int t, const std::vector<Invocation>& arrivals);

  /// \brief Second half of minute `t`: the residency sample, waste, the
  /// memory-series entry and the latency lane. Commits minute `t`.
  void Accrue(int t, const std::vector<Invocation>& arrivals);

  /// \brief Minute `t` (committed by Accrue()) to the outside: one
  /// MinuteView per observer, then the strided heartbeat. The session
  /// calls it once every lane has accrued `t`; it is the one caller of
  /// SimObserver::OnMinute. Returns false when an observer asked to stop.
  bool Publish(int t, const std::vector<Invocation>& arrivals,
               const std::vector<SimObserver*>& observers);

  /// \brief A minute the lane holds nothing (a pending or failed cluster
  /// node): a 0 memory-series entry, and the latency queue keeps
  /// draining — admitted requests complete and waiters time out.
  void Idle(int t);

  /// \brief Loses every instance at minute `t` (a node failure), closing
  /// the open residency intervals first.
  void EvictAll(int t);

  /// \brief Live metrics over the committed minutes. O(n).
  [[nodiscard]] FleetMetrics Snapshot() const;

  /// \brief The lane's outcome over the committed minutes; moves the
  /// memory series and latency outcome out, so call it once, at the end.
  [[nodiscard]] SimulationOutcome TakeOutcome();

  /// \brief Fills the lane's checkpoint record at its committed cursor.
  Status Save(LaneCheckpoint* out) const;

  /// \brief Restore-time shape checks of one record against this lane:
  /// policy name, fleet size, series length for `cursor`, and latency
  /// presence, wasted == loaded - invoked minutes. `where` names the
  /// record ("checkpoint lane 2"), `owner` the session kind ("stream").
  Status CheckShape(const LaneCheckpoint& in, const std::string& where,
                    const char* owner, int cursor) const;

  /// \brief Reinstates a record that passed CheckShape(): policy and
  /// latency state, then the engine counters, positioned at `cursor`.
  Status Load(const LaneCheckpoint& in, int cursor);

 private:
  EngineLane(size_t index, Policy* policy, size_t num_functions,
             const SimOptions& options, int end_minute);

  /// The cold-start loop of Admit(); `kFlagCold` also records which
  /// arrivals were cold in cold_flags_.
  template <bool kFlagCold>
  void CountArrivals(const std::vector<Invocation>& arrivals);

  /// Feeds minute `t` to the latency lane, if any: the one call site of
  /// LatencyLane::OnMinute.
  void FeedLatency(int t, const std::vector<Invocation>& arrivals);

  /// The committed cursor: the next minute to run. Accrue() and Idle()
  /// each push one memory-series entry per minute, so the series length
  /// is the count of committed minutes.
  [[nodiscard]] int Cursor() const {
    return start_ + static_cast<int>(memory_series_.size());
  }

  size_t index_;
  Policy* policy_;
  RunRecorder* recorder_;
  int recorder_slot_;
  int start_;
  int end_;
  MemSet mem_;
  /// Columnar (SoA) per-function counters — the hot-loop representation.
  LaneColumns cols_;
  std::vector<uint32_t> memory_series_;
  LiveTotals totals_;
  double overhead_seconds_ = 0.0;
  /// Per-lane latency/queue state when SimOptions.latency is set; null
  /// (and the latency path untouched) otherwise.
  std::unique_ptr<LatencyLane> latency_;
  /// Scratch: this minute's per-arrival cold flags (latency path only).
  std::vector<uint8_t> cold_flags_;
};

/// \brief The session skeleton SimStream and ClusterSession share: the
/// owned in-memory adapter, the cursor over [start, end), the early-stop
/// and consumed flags, the observers, the shared arrival decoder, the
/// Step()/RunUntil()/Finish() plumbing around them, and the preambles of
/// Checkpoint() and Restore(). A session derives from it and supplies
/// StepLocked() (one minute), LaneCount(), policy(i) and SimulateLabel()
/// (the "simulate" span detail). `kind` names the session class in
/// cursor errors ("SimStream"), `noun` the session in checkpoint errors
/// ("stream") and `lane_noun` one of its lanes ("lane").
class SessionCore {
 public:
  /// \brief Attaches a per-minute observer (borrowed; null is ignored).
  /// Must be called before the first Step(); OnStreamStart fires at that
  /// first step.
  void AddObserver(SimObserver* observer) {
    if (observer != nullptr) observers_.push_back(observer);
  }

  /// \name Cursor state
  /// @{
  [[nodiscard]] int cursor() const { return cursor_; }       ///< next minute to run
  [[nodiscard]] int start_minute() const { return start_; }  ///< == train_minutes
  [[nodiscard]] int end_minute() const { return end_; }      ///< resolved end
  /// Minutes decoded so far: one arrival decode serves every lane, so
  /// this counts simulated minutes, not minutes x lanes.
  [[nodiscard]] int64_t minutes_decoded() const { return minutes_decoded_; }
  /// True once the cursor reached end_minute(), an early stop halted the
  /// session, or Finish() consumed it.
  [[nodiscard]] bool done() const { return finished_ || stopped_ || cursor_ >= end_; }
  /// True when the session halted before end_minute().
  [[nodiscard]] bool stopped_early() const { return stopped_; }
  /// @}

  /// \brief The trained policy of lane `lane` (borrowed).
  [[nodiscard]] virtual const Policy* policy(size_t lane) const = 0;

  /// \brief Simulates one minute across all lanes. Cancelled once the
  /// session was stopped early (an observer returned false, or
  /// SimStream::RequestStop), OutOfRange once it is exhausted or consumed
  /// by Finish().
  Status Step();

  /// \brief Steps until the cursor reaches min(minute, end_minute()). A
  /// minute at or before the cursor is a no-op. Cancelled when an early
  /// stop halts the session short of the target, matching Step();
  /// OutOfRange once consumed by Finish().
  Status RunUntil(int minute);

 protected:
  /// `owned` is the in-memory adapter a Trace overload built (null for a
  /// borrowed `source`); heap-allocated so `source` stays stable across
  /// moves of the session.
  SessionCore(const char* kind, const char* noun, const char* lane_noun,
              TraceSource* source, std::unique_ptr<TraceSource> owned,
              const SimOptions& options, int end);
  SessionCore(SessionCore&&) = default;
  SessionCore& operator=(SessionCore&&) = default;
  ~SessionCore() = default;

  /// \name Session hooks
  /// @{
  [[nodiscard]] virtual size_t LaneCount() const = 0;
  [[nodiscard]] virtual std::string SimulateLabel() const = 0;
  /// One simulated minute for every lane; Step() has checked the cursor.
  virtual Status StepLocked() = 0;
  /// @}

  /// Delivers OnStreamStart exactly once, before any other callback, and
  /// opens the "simulate" span.
  void EnsureStarted();

  /// The Finish() preamble: runs to the end of the window, marks the
  /// session consumed, closes the "simulate" span, emits the decoder
  /// event, and returns the open "finish" span for the caller's scope.
  Result<ScopedSpan> BeginFinish();

  /// The Checkpoint() preamble: refuses a consumed session and one with
  /// a policy that cannot checkpoint, then fills `c`. The session adds
  /// its per-lane records, then calls RecordCheckpointEvent("save").
  Status BeginCheckpoint(CheckpointWindow* c) const;

  /// The Restore() preamble: refuses a consumed session, then checks that
  /// `c` came from a session over the same fleet size and window as this
  /// one, with its cursor inside the window and `num_records` lane records. The session adds its per-lane checks and loads, then
  /// calls EndRestore().
  Status BeginRestore(const CheckpointWindow& c, size_t num_records) const;

  /// Closes a successful Restore(): the cursor and stop flag of `c`, then
  /// the "restore" event.
  void EndRestore(const CheckpointWindow& c);

  /// The recorder's checkpoint event ("save" or "restore") at the cursor.
  void RecordCheckpointEvent(const char* what) const;

  const char* kind_;
  const char* noun_;
  const char* lane_noun_;
  std::unique_ptr<TraceSource> owned_source_;
  TraceSource* source_;
  SimOptions options_;
  int start_;
  int end_;
  int cursor_;
  bool started_ = false;   ///< OnStreamStart delivered
  bool stopped_ = false;   ///< early stop requested
  bool finished_ = false;  ///< outcomes moved out
  int64_t minutes_decoded_ = 0;
  std::vector<SimObserver*> observers_;
  /// Block-transposed minute-major decode shared by every lane.
  ArrivalDecoder decoder_;
  /// Open "simulate" span token when SimOptions.recorder is set; closed
  /// by BeginFinish(). Observability only — never feeds sim state.
  uint64_t simulate_span_ = 0;
};

}  // namespace spes

#endif  // SPES_SIM_ENGINE_LANE_H_
