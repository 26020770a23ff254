#include "sim/engine_lane.h"

#include <algorithm>
#include <utility>

#include "obs/clock.h"
#include "obs/recorder.h"

namespace spes {

Result<int> ResolveStreamWindow(int horizon, const SimOptions& options) {
  SPES_RETURN_NOT_OK(ValidateSimOptions(options));
  if (options.train_minutes > horizon) {
    return Status::InvalidArgument(
        "SimOptions.train_minutes (=" + std::to_string(options.train_minutes) +
        ") exceeds the trace horizon (=" + std::to_string(horizon) +
        " minutes)");
  }
  // end_minute == 0 means the trace horizon; a larger request clamps to it
  // (a policy cannot be replayed past the recorded trace).
  return options.end_minute > 0 ? std::min(options.end_minute, horizon)
                                : horizon;
}

Status TrainPolicies(TraceSource& source, const std::vector<Policy*>& policies,
                     const SimOptions& options) {
  const Trace* training = source.realized_trace();
  Trace prefix;
  if (training == nullptr) {
    const bool full = std::any_of(policies.begin(), policies.end(),
                                  [](const Policy* policy) {
                                    return policy->RequiresFullTrace();
                                  });
    SPES_ASSIGN_OR_RETURN(prefix, source.MaterializePrefix(
                                      full ? source.num_minutes()
                                           : options.train_minutes));
    training = &prefix;
  }
  for (size_t i = 0; i < policies.size(); ++i) {
    const ScopedSpan span(options.recorder, "train", options.recorder_slot,
                          static_cast<int>(i), policies[i]->name());
    policies[i]->Train(*training, options.train_minutes);
  }
  return Status::OK();
}

std::shared_ptr<const std::vector<uint64_t>> SharedLatencyHashes(
    const TraceSource& source, const SimOptions& options) {
  if (!options.latency.has_value()) return nullptr;
  return std::make_shared<const std::vector<uint64_t>>(
      ComputeFunctionHashes(source, options.latency->seed));
}

EngineLane::EngineLane(size_t index, Policy* policy, size_t num_functions,
                       const SimOptions& options, int end_minute)
    : index_(index),
      policy_(policy),
      recorder_(options.recorder),
      recorder_slot_(options.recorder_slot),
      start_(options.train_minutes),
      end_(end_minute),
      mem_(num_functions) {
  cols_.Reset(num_functions);
  memory_series_.reserve(static_cast<size_t>(end_minute - start_));
}

Result<EngineLane> EngineLane::Create(
    size_t index, Policy* policy, size_t num_functions,
    const SimOptions& options, int end_minute,
    std::shared_ptr<const std::vector<uint64_t>> latency_hashes) {
  EngineLane lane(index, policy, num_functions, options, end_minute);
  if (latency_hashes != nullptr) {
    SPES_ASSIGN_OR_RETURN(
        lane.latency_,
        CreateLatencyLane(*options.latency, std::move(latency_hashes)));
  }
  return lane;
}

template <bool kFlagCold>
void EngineLane::CountArrivals(const std::vector<Invocation>& arrivals) {
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const Invocation& inv = arrivals[i];
    cols_.invocations[inv.function] += inv.count;
    cols_.invoked_minutes[inv.function] += 1;
    totals_.invocations += inv.count;
    if (!mem_.Contains(inv.function)) {
      cols_.cold_starts[inv.function] += 1;
      totals_.cold_starts += 1;
      if constexpr (kFlagCold) cold_flags_[i] = 1;
    }
    mem_.Add(inv.function);
  }
}

void EngineLane::Admit(int t, const std::vector<Invocation>& arrivals) {
  // 1-2. Cold-start accounting, then execution loads the instance. With a
  // latency lane attached the loop also flags which arrivals were cold
  // (the flags feed LatencyLane::OnMinute in Accrue()). The flag store is
  // a byte store, which may alias anything, so the flag-free loop is a
  // separate instantiation that keeps the column pointers in registers.
  if (latency_ != nullptr) {
    cold_flags_.assign(arrivals.size(), 0);
    CountArrivals<true>(arrivals);
  } else {
    CountArrivals<false>(arrivals);
  }

  // 3. Policy step (timed for the RQ2 overhead measurement; the
  // monotonic clock lives in obs/clock so the linter can confine it).
  const double start = MonotonicSeconds();
  policy_->OnMinute(t, arrivals, &mem_);
  overhead_seconds_ += MonotonicSeconds() - start;

  // Executions pin: whatever the policy decided, an instance that executed
  // occupies memory through its arrival minute.
  for (const Invocation& inv : arrivals) mem_.Add(inv.function);
}

void EngineLane::Accrue(int t, const std::vector<Invocation>& arrivals) {
  // 4. Residency accounting: a word-at-a-time bitset diff opens/closes
  // residency intervals and live totals come from the maintained popcount.
  // Every arrival is pinned (one per function), so all loaded instances
  // but the arrivals are idle. An instance is idle unless its function
  // arrived on *this* lane this minute (a warm copy left on another
  // cluster node is pure waste).
  cols_.AccrueResidency(t, mem_);
  const uint64_t live = mem_.Count();
  totals_.loaded_instance_minutes += live;
  totals_.wasted_memory_minutes += live - arrivals.size();
  memory_series_.push_back(static_cast<uint32_t>(live));

  FeedLatency(t, arrivals);
}

bool EngineLane::Publish(int t, const std::vector<Invocation>& arrivals,
                         const std::vector<SimObserver*>& observers) {
  bool keep_going = true;
  if (!observers.empty()) {
    MinuteView view;
    view.minute = t;
    view.lane = index_;
    view.policy = policy_;
    view.arrivals = &arrivals;
    view.mem = &mem_;
    view.memory_series = &memory_series_;
    view.totals = totals_;
    if (latency_ != nullptr) view.latency = &latency_->live();
    for (SimObserver* observer : observers) {
      if (!observer->OnMinute(view)) keep_going = false;
    }
  }

  if (recorder_ != nullptr) {
    // Strided heartbeat: sampled on simulated-minute boundaries (plus
    // the final minute), so the recorded counters are a pure function
    // of sim state — wall-clock speed never changes what is sampled.
    const int stride = recorder_->heartbeat_minute_stride();
    if ((t + 1 - start_) % stride == 0 || t + 1 == end_) {
      HeartbeatRecord heartbeat;
      heartbeat.slot = recorder_slot_;
      heartbeat.lane = static_cast<int>(index_);
      heartbeat.minute = t;
      heartbeat.invocations = totals_.invocations;
      heartbeat.cold_starts = totals_.cold_starts;
      heartbeat.loaded_instance_minutes = totals_.loaded_instance_minutes;
      heartbeat.wasted_memory_minutes = totals_.wasted_memory_minutes;
      heartbeat.loaded_instances = static_cast<uint32_t>(mem_.Count());
      if (latency_ != nullptr) {
        heartbeat.queue_depth = latency_->live().queue_depth;
      }
      recorder_->EmitHeartbeat(heartbeat);
    }
  }
  return keep_going;
}

void EngineLane::Idle(int t) {
  memory_series_.push_back(0);
  cold_flags_.clear();
  FeedLatency(t, {});
}

void EngineLane::FeedLatency(int t, const std::vector<Invocation>& arrivals) {
  if (latency_ != nullptr) latency_->OnMinute(t, arrivals, cold_flags_);
}

void EngineLane::EvictAll(int t) {
  mem_ = MemSet(mem_.Capacity());
  cols_.AccrueResidency(t, mem_);
}

FleetMetrics EngineLane::Snapshot() const {
  std::vector<FunctionAccount> accounts;
  cols_.Materialize(Cursor(), mem_, &accounts);
  return ComputeFleetMetrics(policy_->name(), accounts, memory_series_,
                             overhead_seconds_);
}

SimulationOutcome EngineLane::TakeOutcome() {
  SimulationOutcome outcome;
  cols_.Materialize(Cursor(), mem_, &outcome.accounts);
  outcome.metrics = ComputeFleetMetrics(policy_->name(), outcome.accounts,
                                        memory_series_, overhead_seconds_);
  outcome.memory_series = std::move(memory_series_);
  if (latency_ != nullptr) {
    outcome.latency =
        std::make_shared<const LatencyOutcome>(latency_->TakeOutcome());
  }
  return outcome;
}

Status EngineLane::Save(LaneCheckpoint* out) const {
  out->policy_name = policy_->name();
  cols_.Materialize(Cursor(), mem_, &out->accounts);
  out->memory_series = memory_series_;
  out->loaded = mem_.ToBytes();
  out->totals = totals_;
  out->overhead_seconds = overhead_seconds_;
  SPES_ASSIGN_OR_RETURN(out->policy_state, policy_->SaveState());
  if (latency_ != nullptr) out->latency_state = latency_->SaveState();
  return Status::OK();
}

Status EngineLane::CheckShape(const LaneCheckpoint& in,
                              const std::string& where, const char* owner,
                              int cursor) const {
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
  // Executions pin, so Load() derives the waste from loaded and invoked
  // minutes; a record that disagrees is corrupt.
  for (size_t f = 0; f < n; ++f) {
    const FunctionAccount& acc = in.accounts[f];
    if (acc.invoked_minutes > acc.loaded_minutes ||
        acc.wasted_minutes != acc.loaded_minutes - acc.invoked_minutes) {
      return Status::InvalidArgument(
          where + " function (=" + std::to_string(f) +
          ") has wasted_minutes != loaded_minutes - invoked_minutes");
    }
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

Status EngineLane::Load(const LaneCheckpoint& in, int cursor) {
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

void WriteCheckpointWindow(BinaryWriter& w, const CheckpointWindow& c) {
  w.PutI32(c.cursor);
  w.PutI32(c.train_minutes);
  w.PutI32(c.end_minute);
  w.PutBool(true);  // executions pin
  w.PutU64(c.num_functions);
  w.PutBool(c.stopped);
}

Status ReadCheckpointWindow(BinaryReader& r, CheckpointWindow* c) {
  SPES_ASSIGN_OR_RETURN(c->cursor, r.I32());
  SPES_ASSIGN_OR_RETURN(c->train_minutes, r.I32());
  SPES_ASSIGN_OR_RETURN(c->end_minute, r.I32());
  SPES_ASSIGN_OR_RETURN(const bool pinned, r.Bool());
  if (!pinned) {
    return Status::InvalidArgument(
        "checkpoint execution pin flag (=false) is unsupported: executions "
        "always pin");
  }
  SPES_ASSIGN_OR_RETURN(c->num_functions, r.U64());
  SPES_ASSIGN_OR_RETURN(c->stopped, r.Bool());
  return Status::OK();
}

void WriteLaneCounters(BinaryWriter& w, const LaneCheckpoint& lane) {
  w.PutU64(lane.accounts.size());
  for (const FunctionAccount& acc : lane.accounts) {
    w.PutU64(acc.invocations);
    w.PutU64(acc.invoked_minutes);
    w.PutU64(acc.cold_starts);
    w.PutU64(acc.loaded_minutes);
    w.PutU64(acc.wasted_minutes);
  }
  w.PutVector(lane.memory_series);
  w.PutVector(lane.loaded);
}

Status ReadLaneCounters(BinaryReader& r, LaneCheckpoint* lane) {
  SPES_ASSIGN_OR_RETURN(const uint64_t num_accounts, r.Length(40));
  lane->accounts.resize(static_cast<size_t>(num_accounts));
  for (FunctionAccount& acc : lane->accounts) {
    SPES_ASSIGN_OR_RETURN(acc.invocations, r.U64());
    SPES_ASSIGN_OR_RETURN(acc.invoked_minutes, r.U64());
    SPES_ASSIGN_OR_RETURN(acc.cold_starts, r.U64());
    SPES_ASSIGN_OR_RETURN(acc.loaded_minutes, r.U64());
    SPES_ASSIGN_OR_RETURN(acc.wasted_minutes, r.U64());
  }
  SPES_ASSIGN_OR_RETURN(lane->memory_series, r.Vector<uint32_t>());
  SPES_ASSIGN_OR_RETURN(lane->loaded, r.Vector<uint8_t>());
  return Status::OK();
}

void WriteLaneTotals(BinaryWriter& w, const LaneCheckpoint& lane) {
  w.PutU64(lane.totals.invocations);
  w.PutU64(lane.totals.cold_starts);
  w.PutU64(lane.totals.loaded_instance_minutes);
  w.PutU64(lane.totals.wasted_memory_minutes);
  w.PutDouble(lane.overhead_seconds);
}

Status ReadLaneTotals(BinaryReader& r, LaneCheckpoint* lane) {
  SPES_ASSIGN_OR_RETURN(lane->totals.invocations, r.U64());
  SPES_ASSIGN_OR_RETURN(lane->totals.cold_starts, r.U64());
  SPES_ASSIGN_OR_RETURN(lane->totals.loaded_instance_minutes, r.U64());
  SPES_ASSIGN_OR_RETURN(lane->totals.wasted_memory_minutes, r.U64());
  SPES_ASSIGN_OR_RETURN(lane->overhead_seconds, r.Double());
  return Status::OK();
}

SessionCore::SessionCore(const char* kind, const char* noun,
                         const char* lane_noun, TraceSource* source,
                         std::unique_ptr<TraceSource> owned,
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

Status SessionCore::Step() {
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
  return StepLocked();
}

Status SessionCore::RunUntil(int minute) {
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

void SessionCore::EnsureStarted() {
  if (started_) return;
  started_ = true;
  if (options_.recorder != nullptr) {
    simulate_span_ = options_.recorder->BeginSpan(
        "simulate", options_.recorder_slot, 0, SimulateLabel());
  }
  StreamInfo info;
  info.train_minutes = options_.train_minutes;
  info.start_minute = start_;
  info.end_minute = end_;
  info.num_lanes = LaneCount();
  info.num_functions = source_->num_functions();
  for (SimObserver* observer : observers_) observer->OnStreamStart(info);
}

Result<ScopedSpan> SessionCore::BeginFinish() {
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

Status SessionCore::BeginCheckpoint(CheckpointWindow* c) const {
  if (finished_) {
    return Status::OutOfRange(std::string("cannot Checkpoint a ") + noun_ +
                              " consumed by Finish()");
  }
  for (size_t i = 0; i < LaneCount(); ++i) {
    const Policy* lane_policy = policy(i);
    if (!lane_policy->SupportsCheckpoint()) {
      return Status::NotImplemented(
          "policy '" + lane_policy->name() + "' (" + lane_noun_ + " " +
          std::to_string(i) + ") does not support checkpointing");
    }
  }
  c->cursor = cursor_;
  c->train_minutes = options_.train_minutes;
  c->end_minute = end_;
  c->num_functions = source_->num_functions();
  c->stopped = stopped_;
  return Status::OK();
}

Status SessionCore::BeginRestore(const CheckpointWindow& c,
                                 size_t num_records) const {
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
  if (c.cursor < start_ || c.cursor > end_) {
    return Status::InvalidArgument(
        "checkpoint cursor (=" + std::to_string(c.cursor) +
        ") is outside this " + owner + "'s window [" +
        std::to_string(start_) + ", " + std::to_string(end_) + "]");
  }
  if (num_records != LaneCount()) {
    return Status::InvalidArgument(
        "checkpoint has (=" + std::to_string(num_records) + ") " +
        lane_noun_ + "s but this " + owner + " has (=" +
        std::to_string(LaneCount()) + ")");
  }
  return Status::OK();
}

void SessionCore::EndRestore(const CheckpointWindow& c) {
  cursor_ = c.cursor;
  stopped_ = c.stopped;
  RecordCheckpointEvent("restore");
}

void SessionCore::RecordCheckpointEvent(const char* what) const {
  if (options_.recorder != nullptr) {
    options_.recorder->CheckpointEvent(what, options_.recorder_slot,
                                       static_cast<uint64_t>(cursor_));
  }
}

}  // namespace spes
