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
//                        latency lane, observers and the heartbeat
//
// The lane also owns its checkpoint fields (Save/Load), its outcome and
// the helpers that encode the per-lane fields both checkpoint wire
// formats (SPESCKPT and SPESCLCK) carry. TrainPolicies() picks the one
// trace a session's policies train on. SessionCore is the session
// skeleton around the lanes — owned adapter, cursor, stop/consumed
// flags, observers, Step(), RunUntil(), OnStreamStart and the Finish(),
// Checkpoint() and Restore() preambles — that both sessions inherit.

#ifndef SPES_SIM_ENGINE_LANE_H_
#define SPES_SIM_ENGINE_LANE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
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
  /// memory-series entry, the latency lane, one MinuteView per observer
  /// and the strided heartbeat. Returns false when an observer asked to
  /// stop.
  bool Accrue(int t, const std::vector<Invocation>& arrivals,
              const std::vector<SimObserver*>& observers);

  /// \brief A minute the lane holds nothing (a pending or failed cluster
  /// node): a 0 memory-series entry, and the latency queue keeps
  /// draining — admitted requests complete and waiters time out.
  void Idle(int t);

  /// \brief Loses every instance at minute `t` (a node failure), closing
  /// the open residency intervals first.
  void EvictAll(int t);

  /// \brief Live metrics over the minutes before `cursor`. O(n).
  [[nodiscard]] FleetMetrics Snapshot(int cursor) const;

  /// \brief The lane's outcome at `cursor`; moves the memory series and
  /// latency outcome out, so call it once, at the end.
  [[nodiscard]] SimulationOutcome TakeOutcome(int cursor);

  /// \brief Fills the per-lane fields of a checkpoint record
  /// (SimCheckpoint::Lane or ClusterCheckpoint::Node) at `cursor`.
  template <typename Record>
  Status Save(int cursor, Record* out) const;

  /// \brief Restore-time shape checks of one record against this lane:
  /// policy name, fleet size, series length for `cursor`, and latency
  /// presence. `where` names the record ("checkpoint lane 2"), `owner`
  /// the session kind ("stream").
  template <typename Record>
  Status CheckShape(const Record& in, const std::string& where,
                    const char* owner, int cursor) const;

  /// \brief Reinstates a record that passed CheckShape(): policy and
  /// latency state, then the engine counters, positioned at `cursor`.
  template <typename Record>
  Status Load(const Record& in, int cursor);

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

  size_t index_;
  Policy* policy_;
  bool pin_executing_functions_;
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
  /// Classic account view, materialized for observers only.
  std::vector<FunctionAccount> scratch_accounts_;
};

/// \brief The session skeleton SimStream and ClusterSession share: the
/// owned in-memory adapter, the cursor over [start, end), the early-stop
/// and consumed flags, the observers, the shared arrival decoder, the
/// Step()/RunUntil()/Finish() plumbing around them, and the preambles of
/// Checkpoint() and Restore(). `Session` inherits it publicly (CRTP),
/// befriends it, and supplies StepLocked() (one minute), LaneCount(),
/// policy(i) and SimulateLabel() (the "simulate" span detail). `kind`
/// names the session class in cursor errors ("SimStream"), `noun` the
/// session in checkpoint errors ("stream") and `lane_noun` one of its
/// lanes ("lane").
template <class Session>
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

  /// \brief Simulates one minute across all lanes. Cancelled once the
  /// session was stopped early (an observer returned false, or
  /// SimStream::RequestStop), OutOfRange once it is exhausted or consumed
  /// by Finish().
  Status Step() {
    if (finished_) {
      return Status::OutOfRange(std::string(kind_) +
                                " was consumed by Finish()");
    }
    if (stopped_) {
      return Status::Cancelled(std::string(kind_) +
                               " was stopped early at minute (=" +
                               std::to_string(cursor_) + ")");
    }
    if (cursor_ >= end_) {
      return Status::OutOfRange(
          std::string(kind_) + " is exhausted: cursor (=" +
          std::to_string(cursor_) + ") reached end_minute (=" +
          std::to_string(end_) + ")");
    }
    EnsureStarted();
    return static_cast<Session&>(*this).StepLocked();
  }

  /// \brief Steps until the cursor reaches min(minute, end_minute()). A
  /// minute at or before the cursor is a no-op. Cancelled when an early
  /// stop halts the session short of the target, matching Step();
  /// OutOfRange once consumed by Finish().
  Status RunUntil(int minute) {
    if (finished_) {
      return Status::OutOfRange(std::string(kind_) +
                                " was consumed by Finish()");
    }
    const int target = std::min(minute, end_);
    while (cursor_ < target && !stopped_) {
      SPES_RETURN_NOT_OK(Step());
    }
    if (stopped_ && cursor_ < target) {
      // Same signal Step() gives: an early stop left the target unreached.
      return Status::Cancelled(
          std::string(kind_) + " was stopped early at minute (=" +
          std::to_string(cursor_) + ") before reaching minute (=" +
          std::to_string(target) + ")");
    }
    return Status::OK();
  }

 protected:
  /// `owned` is the in-memory adapter a Trace overload built (null for a
  /// borrowed `source`); heap-allocated so `source` stays stable across
  /// moves of the session.
  SessionCore(const char* kind, const char* noun, const char* lane_noun,
              TraceSource* source, std::unique_ptr<TraceSource> owned,
              const SimOptions& options, int end)
      : kind_(kind),
        noun_(noun),
        lane_noun_(lane_noun),
        owned_source_(std::move(owned)),
        source_(source),
        options_(options),
        start_(options.train_minutes),
        end_(end),
        cursor_(options.train_minutes),
        decoder_(source) {}

  /// Delivers OnStreamStart exactly once, before any other callback, and
  /// opens the "simulate" span.
  void EnsureStarted() {
    if (started_) return;
    started_ = true;
    const Session& session = static_cast<const Session&>(*this);
    if (options_.recorder != nullptr) {
      simulate_span_ = options_.recorder->BeginSpan(
          "simulate", options_.recorder_slot, 0, session.SimulateLabel());
    }
    StreamInfo info;
    info.train_minutes = options_.train_minutes;
    info.start_minute = start_;
    info.end_minute = end_;
    info.num_lanes = session.LaneCount();
    info.num_functions = source_->num_functions();
    for (SimObserver* observer : observers_) observer->OnStreamStart(info);
  }

  /// The Finish() preamble: runs to the end of the window, marks the
  /// session consumed, closes the "simulate" span, emits the decoder
  /// event, and returns the open "finish" span for the caller's scope.
  Result<ScopedSpan> BeginFinish() {
    if (finished_) {
      return Status::OutOfRange(std::string(kind_) +
                                " was already consumed by Finish()");
    }
    // Even a zero-step window (train == horizon, or a session restored at
    // its end) pairs OnStreamStart with OnStreamEnd, so observers always
    // get their sizing hook before any other callback.
    EnsureStarted();
    // An early stop is a documented way to end a session: Finish() still
    // delivers the partial-window outcome, so Cancelled is success here.
    const Status run = RunUntil(end_);
    if (!run.ok() && run.code() != StatusCode::kCancelled) return run;
    finished_ = true;
    if (options_.recorder != nullptr) {
      options_.recorder->EndSpan(simulate_span_);
      simulate_span_ = 0;
      options_.recorder->DecoderEvent(options_.recorder_slot,
                                      decoder_.blocks_decoded(),
                                      decoder_.invocations_decoded());
    }
    return ScopedSpan(options_.recorder, "finish", options_.recorder_slot, 0);
  }

  /// The Checkpoint() preamble: refuses a consumed session and one with
  /// a policy that cannot checkpoint, then fills the window fields of
  /// `c`. The session adds its per-lane records, then calls
  /// RecordCheckpointEvent("save").
  template <typename Checkpoint>
  Status BeginCheckpoint(Checkpoint* c) const {
    if (finished_) {
      return Status::OutOfRange(std::string("cannot Checkpoint a ") + noun_ +
                                " consumed by Finish()");
    }
    const Session& session = static_cast<const Session&>(*this);
    for (size_t i = 0; i < session.LaneCount(); ++i) {
      const Policy* policy = session.policy(i);
      if (!policy->SupportsCheckpoint()) {
        return Status::NotImplemented(
            "policy '" + policy->name() + "' (" + lane_noun_ + " " +
            std::to_string(i) + ") does not support checkpointing");
      }
    }
    c->cursor = cursor_;
    c->train_minutes = options_.train_minutes;
    c->end_minute = end_;
    c->pin_executing_functions = options_.pin_executing_functions;
    c->num_functions = source_->num_functions();
    c->stopped = stopped_;
    return Status::OK();
  }

  /// The Restore() preamble: refuses a consumed session, then checks that
  /// `c` came from a session over the same fleet size, window and pinning
  /// as this one, with its cursor inside the window and `num_records`
  /// lane records. The session adds its per-lane checks and loads, then
  /// calls EndRestore().
  template <typename Checkpoint>
  Status BeginRestore(const Checkpoint& c, size_t num_records) const {
    if (finished_) {
      return Status::OutOfRange(std::string("cannot Restore a ") + noun_ +
                                " consumed by Finish()");
    }
    const std::string owner = noun_;
    const size_t n = source_->num_functions();
    if (c.num_functions != n) {
      return Status::InvalidArgument(
          "checkpoint num_functions (=" + std::to_string(c.num_functions) +
          ") does not match this " + owner + "'s trace (=" +
          std::to_string(n) + ")");
    }
    if (c.train_minutes != options_.train_minutes) {
      return Status::InvalidArgument(
          "checkpoint train_minutes (=" + std::to_string(c.train_minutes) +
          ") does not match this " + owner + " (=" +
          std::to_string(options_.train_minutes) + ")");
    }
    if (c.end_minute != end_) {
      return Status::InvalidArgument(
          "checkpoint end_minute (=" + std::to_string(c.end_minute) +
          ") does not match this " + owner + " (=" + std::to_string(end_) +
          ")");
    }
    if (c.pin_executing_functions != options_.pin_executing_functions) {
      return Status::InvalidArgument(
          "checkpoint pin_executing_functions (=" +
          std::string(c.pin_executing_functions ? "true" : "false") +
          ") does not match this " + owner);
    }
    if (c.cursor < start_ || c.cursor > end_) {
      return Status::InvalidArgument(
          "checkpoint cursor (=" + std::to_string(c.cursor) +
          ") is outside this " + owner + "'s window [" +
          std::to_string(start_) + ", " + std::to_string(end_) + "]");
    }
    const size_t lanes = static_cast<const Session&>(*this).LaneCount();
    if (num_records != lanes) {
      return Status::InvalidArgument(
          "checkpoint has (=" + std::to_string(num_records) + ") " +
          lane_noun_ + "s but this " + owner + " has (=" +
          std::to_string(lanes) + ")");
    }
    return Status::OK();
  }

  /// Closes a successful Restore(): the cursor and stop flag of `c`, then
  /// the "restore" event.
  template <typename Checkpoint>
  void EndRestore(const Checkpoint& c) {
    cursor_ = c.cursor;
    stopped_ = c.stopped;
    RecordCheckpointEvent("restore");
  }

  /// The recorder's checkpoint event ("save" or "restore") at the cursor.
  void RecordCheckpointEvent(const char* what) const {
    if (options_.recorder != nullptr) {
      options_.recorder->CheckpointEvent(what, options_.recorder_slot,
                                         static_cast<uint64_t>(cursor_));
    }
  }

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

/// \name Checkpoint codec helpers shared by SPESCKPT and SPESCLCK
///
/// Templates over the checkpoint struct (SimCheckpoint/ClusterCheckpoint)
/// and its per-lane record (SimCheckpoint::Lane/ClusterCheckpoint::Node),
/// which share these field names and their byte layout.
/// @{

/// \brief Cursor, window, pinning, fleet size and stop flag.
template <typename Checkpoint>
void WriteCheckpointWindow(BinaryWriter& w, const Checkpoint& c) {
  w.PutI32(c.cursor);
  w.PutI32(c.train_minutes);
  w.PutI32(c.end_minute);
  w.PutBool(c.pin_executing_functions);
  w.PutU64(c.num_functions);
  w.PutBool(c.stopped);
}

template <typename Checkpoint>
Status ReadCheckpointWindow(BinaryReader& r, Checkpoint* c) {
  SPES_ASSIGN_OR_RETURN(c->cursor, r.I32());
  SPES_ASSIGN_OR_RETURN(c->train_minutes, r.I32());
  SPES_ASSIGN_OR_RETURN(c->end_minute, r.I32());
  SPES_ASSIGN_OR_RETURN(c->pin_executing_functions, r.Bool());
  SPES_ASSIGN_OR_RETURN(c->num_functions, r.U64());
  SPES_ASSIGN_OR_RETURN(c->stopped, r.Bool());
  return Status::OK();
}

/// \brief Per-function accounts, the memory series and the membership
/// bytes of one lane record.
template <typename Record>
void WriteLaneCounters(BinaryWriter& w, const Record& lane) {
  w.PutU64(lane.accounts.size());
  for (const FunctionAccount& acc : lane.accounts) {
    w.PutU64(acc.invocations);
    w.PutU64(acc.invoked_minutes);
    w.PutU64(acc.cold_starts);
    w.PutU64(acc.loaded_minutes);
    w.PutU64(acc.wasted_minutes);
  }
  w.PutU64(lane.memory_series.size());
  for (uint32_t v : lane.memory_series) w.PutU32(v);
  w.PutU64(lane.loaded.size());
  for (uint8_t v : lane.loaded) w.PutU8(v);
}

template <typename Record>
Status ReadLaneCounters(BinaryReader& r, Record* lane) {
  SPES_ASSIGN_OR_RETURN(const uint64_t num_accounts, r.Length(40));
  lane->accounts.reserve(num_accounts);
  for (uint64_t k = 0; k < num_accounts; ++k) {
    FunctionAccount acc;
    SPES_ASSIGN_OR_RETURN(acc.invocations, r.U64());
    SPES_ASSIGN_OR_RETURN(acc.invoked_minutes, r.U64());
    SPES_ASSIGN_OR_RETURN(acc.cold_starts, r.U64());
    SPES_ASSIGN_OR_RETURN(acc.loaded_minutes, r.U64());
    SPES_ASSIGN_OR_RETURN(acc.wasted_minutes, r.U64());
    lane->accounts.push_back(acc);
  }
  SPES_ASSIGN_OR_RETURN(const uint64_t num_series, r.Length(4));
  lane->memory_series.reserve(num_series);
  for (uint64_t k = 0; k < num_series; ++k) {
    SPES_ASSIGN_OR_RETURN(const uint32_t v, r.U32());
    lane->memory_series.push_back(v);
  }
  SPES_ASSIGN_OR_RETURN(const uint64_t num_loaded, r.Length(1));
  lane->loaded.reserve(num_loaded);
  for (uint64_t k = 0; k < num_loaded; ++k) {
    SPES_ASSIGN_OR_RETURN(const uint8_t v, r.U8());
    lane->loaded.push_back(v);
  }
  return Status::OK();
}

/// \brief Live totals and the wall-clock overhead of one lane record.
template <typename Record>
void WriteLaneTotals(BinaryWriter& w, const Record& lane) {
  w.PutU64(lane.totals.invocations);
  w.PutU64(lane.totals.cold_starts);
  w.PutU64(lane.totals.loaded_instance_minutes);
  w.PutU64(lane.totals.wasted_memory_minutes);
  w.PutDouble(lane.overhead_seconds);
}

template <typename Record>
Status ReadLaneTotals(BinaryReader& r, Record* lane) {
  SPES_ASSIGN_OR_RETURN(lane->totals.invocations, r.U64());
  SPES_ASSIGN_OR_RETURN(lane->totals.cold_starts, r.U64());
  SPES_ASSIGN_OR_RETURN(lane->totals.loaded_instance_minutes, r.U64());
  SPES_ASSIGN_OR_RETURN(lane->totals.wasted_memory_minutes, r.U64());
  SPES_ASSIGN_OR_RETURN(lane->overhead_seconds, r.Double());
  return Status::OK();
}
/// @}

template <typename Record>
Status EngineLane::Save(int cursor, Record* out) const {
  out->policy_name = policy_->name();
  cols_.Materialize(cursor, mem_, &out->accounts);
  out->memory_series = memory_series_;
  out->loaded = mem_.ToBytes();
  out->totals = totals_;
  out->overhead_seconds = overhead_seconds_;
  SPES_ASSIGN_OR_RETURN(out->policy_state, policy_->SaveState());
  if (latency_ != nullptr) out->latency_state = latency_->SaveState();
  return Status::OK();
}

template <typename Record>
Status EngineLane::CheckShape(const Record& in, const std::string& where,
                              const char* owner, int cursor) const {
  if (in.policy_name != policy_->name()) {
    return Status::InvalidArgument(where + " holds policy '" +
                                   in.policy_name + "' but this " + owner +
                                   " has '" + policy_->name() + "'");
  }
  const size_t n = mem_.Capacity();
  if (in.accounts.size() != n || in.loaded.size() != n) {
    return Status::InvalidArgument(
        where + " is sized for (=" + std::to_string(in.accounts.size()) +
        ") functions, expected (=" + std::to_string(n) + ")");
  }
  // Every lane — a dark cluster node too — pushes one series entry per
  // simulated minute, so the length pins the cursor.
  const size_t expected_series = static_cast<size_t>(cursor - start_);
  if (in.memory_series.size() != expected_series) {
    return Status::InvalidArgument(
        where + " memory series has (=" +
        std::to_string(in.memory_series.size()) +
        ") entries but the cursor implies (=" +
        std::to_string(expected_series) + ")");
  }
  // A LatencyLane blob is never empty, so presence of latency state is
  // exactly "the origin session ran with a latency block".
  if (in.latency_state.empty() != (latency_ == nullptr)) {
    return Status::InvalidArgument(
        where + (in.latency_state.empty()
                     ? std::string(" has no latency state but this ") +
                           owner + " has a latency block"
                     : std::string(" carries latency state but this ") +
                           owner + " has no latency block"));
  }
  return Status::OK();
}

template <typename Record>
Status EngineLane::Load(const Record& in, int cursor) {
  SPES_RETURN_NOT_OK(policy_->RestoreState(in.policy_state));
  if (latency_ != nullptr) {
    SPES_RETURN_NOT_OK(latency_->RestoreState(
        in.latency_state, static_cast<size_t>(cursor - start_)));
  }
  memory_series_ = in.memory_series;
  totals_ = in.totals;
  overhead_seconds_ = in.overhead_seconds;
  const size_t n = mem_.Capacity();
  mem_ = MemSet(n);
  for (size_t f = 0; f < n; ++f) {
    if (in.loaded[f]) mem_.Add(f);
  }
  cols_.LoadFrom(in.accounts, mem_, cursor);
  return Status::OK();
}

}  // namespace spes

#endif  // SPES_SIM_ENGINE_LANE_H_
