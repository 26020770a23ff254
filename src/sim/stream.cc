#include "sim/stream.h"

#include <algorithm>
#include <utility>

#include "common/binary_io.h"
#include "obs/recorder.h"

namespace spes {

namespace {

/// Format tag of the serialized checkpoint byte stream. Version 1 is the
/// pre-latency layout; version 2 appends one latency-state blob per lane.
/// Streams without a latency block still serialize as version 1, byte for
/// byte, so existing checkpoint goldens (and old readers) are unaffected.
constexpr char kCheckpointMagic[] = "SPESCKPT";
constexpr uint32_t kCheckpointVersion = 1;
constexpr uint32_t kCheckpointVersionLatency = 2;

/// Shared lane validation of the Create() overloads.
Status ValidateStreamPolicies(const std::vector<Policy*>& policies) {
  if (policies.empty()) {
    return Status::InvalidArgument("a SimStream needs at least one policy");
  }
  for (size_t i = 0; i < policies.size(); ++i) {
    if (policies[i] == nullptr) {
      return Status::InvalidArgument(
          policies.size() == 1
              ? "policy must not be null"
              : "policy must not be null (lane " + std::to_string(i) + ")");
    }
    for (size_t j = 0; j < i; ++j) {
      if (policies[j] == policies[i]) {
        return Status::InvalidArgument(
            "lockstep lanes must hold distinct policy instances (lanes " +
            std::to_string(j) + " and " + std::to_string(i) +
            " share one)");
      }
    }
  }
  return Status::OK();
}

}  // namespace

SimStream::SimStream(TraceSource* source, std::unique_ptr<TraceSource> owned,
                     const SimOptions& options, int end)
    : SessionCore("SimStream", source, options, end),
      owned_source_(std::move(owned)) {}

Result<SimStream> SimStream::Create(const Trace& trace, Policy* policy,
                                    const SimOptions& options) {
  return Create(trace, std::vector<Policy*>{policy}, options);
}

Result<SimStream> SimStream::Create(TraceSource& source, Policy* policy,
                                    const SimOptions& options) {
  return Create(source, std::vector<Policy*>{policy}, options);
}

Result<SimStream> SimStream::Create(const Trace& trace,
                                    std::vector<Policy*> policies,
                                    const SimOptions& options) {
  auto owned = std::make_unique<InMemoryTraceSource>(trace);
  TraceSource* source = owned.get();
  return CreateImpl(source, std::move(owned), &trace, policies, options);
}

Result<SimStream> SimStream::Create(TraceSource& source,
                                    std::vector<Policy*> policies,
                                    const SimOptions& options) {
  return CreateImpl(&source, nullptr, /*full_trace=*/nullptr, policies,
                    options);
}

Result<SimStream> SimStream::CreateImpl(TraceSource* source,
                                        std::unique_ptr<TraceSource> owned,
                                        const Trace* full_trace,
                                        const std::vector<Policy*>& policies,
                                        const SimOptions& options) {
  SPES_RETURN_NOT_OK(ValidateStreamPolicies(policies));
  for (size_t i = 0; full_trace == nullptr && i < policies.size(); ++i) {
    if (policies[i]->RequiresFullTrace()) {
      return Status::InvalidArgument(
          "policy '" + policies[i]->name() + "'" +
          (policies.size() == 1 ? std::string()
                                : " (lane " + std::to_string(i) + ")") +
          " requires the full realized trace, but a streamed source only "
          "materializes the train prefix; run it over an in-memory Trace");
    }
  }
  SPES_ASSIGN_OR_RETURN(const int end,
                        ResolveStreamWindow(source->num_minutes(), options));
  // Streamed sources train on a materialized prefix — exactly the minutes
  // the Train() contract allows them to observe — shared across lanes.
  // In-memory streams train on the real full trace, so policies that peek
  // past the train window (the oracle) keep their exact behaviour.
  Trace train_prefix;
  if (full_trace == nullptr) {
    SPES_ASSIGN_OR_RETURN(train_prefix,
                          source->MaterializePrefix(options.train_minutes));
  }
  const Trace& training = full_trace != nullptr ? *full_trace : train_prefix;

  SimStream stream(source, std::move(owned), options, end);
  const size_t n = source->num_functions();
  const auto latency_hashes = SharedLatencyHashes(*source, options);
  stream.lanes_.reserve(policies.size());
  for (Policy* policy : policies) {
    const size_t index = stream.lanes_.size();
    {
      const ScopedSpan span(options.recorder, "train", options.recorder_slot,
                            static_cast<int>(index), policy->name());
      policy->Train(training, options.train_minutes);
    }
    SPES_ASSIGN_OR_RETURN(EngineLane lane,
                          EngineLane::Create(index, policy, n, options, end,
                                             latency_hashes));
    stream.lanes_.push_back(std::move(lane));
  }
  return stream;
}

void SimStream::AddObserver(SimObserver* observer) {
  if (observer != nullptr) observers_.push_back(observer);
}

Status SimStream::StepLocked() {
  const int t = cursor_;

  // Decode this minute's arrivals ONCE; every lane shares the decode. The
  // decoder transposes a whole block of minutes at a time, so this is
  // O(arrivals) amortized; the copy feeds the vector-taking Policy API.
  // A failed decode (corrupt/vanished disk block) aborts the step before
  // any lane state changes, so the cursor stays consistent.
  const std::span<const Invocation> decoded = decoder_.Decode(t);
  SPES_RETURN_NOT_OK(decoder_.status());
  arrivals_.assign(decoded.begin(), decoded.end());
  ++minutes_decoded_;

  bool stop_requested = false;
  for (EngineLane& lane : lanes_) {
    lane.Admit(t, arrivals_);
    if (!lane.Accrue(t, arrivals_, observers_)) stop_requested = true;
  }

  ++cursor_;
  if (stop_requested) stopped_ = true;
  return Status::OK();
}

std::string SimStream::SimulateLabel() const {
  return lanes_.size() == 1
             ? lanes_[0].policy()->name()
             : std::to_string(lanes_.size()) + " lockstep lanes";
}

FleetMetrics SimStream::SnapshotMetrics(size_t lane) const {
  return lanes_[lane].Snapshot(cursor_);
}

Result<std::vector<SimulationOutcome>> SimStream::FinishAll() {
  SPES_ASSIGN_OR_RETURN(const ScopedSpan finish_span, BeginFinish());
  std::vector<SimulationOutcome> outcomes;
  outcomes.reserve(lanes_.size());
  for (EngineLane& lane : lanes_) {
    outcomes.push_back(lane.TakeOutcome(cursor_));
  }
  for (SimObserver* observer : observers_) {
    for (size_t lane = 0; lane < outcomes.size(); ++lane) {
      observer->OnStreamEnd(lane, outcomes[lane]);
    }
  }
  return outcomes;
}

Result<SimulationOutcome> SimStream::Finish() {
  if (lanes_.size() != 1) {
    return Status::InvalidArgument(
        "Finish() requires a single-lane stream (this one has " +
        std::to_string(lanes_.size()) + " lanes); use FinishAll()");
  }
  SPES_ASSIGN_OR_RETURN(std::vector<SimulationOutcome> outcomes, FinishAll());
  return std::move(outcomes[0]);
}

Result<SimCheckpoint> SimStream::Checkpoint() const {
  if (finished_) {
    return Status::OutOfRange(
        "cannot Checkpoint a stream consumed by Finish()");
  }
  for (size_t i = 0; i < lanes_.size(); ++i) {
    if (!lanes_[i].policy()->SupportsCheckpoint()) {
      return Status::NotImplemented(
          "policy '" + lanes_[i].policy()->name() + "' (lane " +
          std::to_string(i) + ") does not support checkpointing");
    }
  }
  SimCheckpoint checkpoint;
  checkpoint.cursor = cursor_;
  checkpoint.train_minutes = options_.train_minutes;
  checkpoint.end_minute = end_;
  checkpoint.pin_executing_functions = options_.pin_executing_functions;
  checkpoint.num_functions = source_->num_functions();
  checkpoint.stopped = stopped_;
  checkpoint.lanes.reserve(lanes_.size());
  for (const EngineLane& lane : lanes_) {
    SimCheckpoint::Lane out;
    SPES_RETURN_NOT_OK(lane.Save(cursor_, &out));
    checkpoint.lanes.push_back(std::move(out));
  }
  if (options_.recorder != nullptr) {
    options_.recorder->CheckpointEvent("save", options_.recorder_slot,
                                       static_cast<uint64_t>(cursor_));
  }
  return checkpoint;
}

Status SimStream::Restore(const SimCheckpoint& checkpoint) {
  if (finished_) {
    return Status::OutOfRange("cannot Restore a stream consumed by Finish()");
  }
  SPES_RETURN_NOT_OK(CheckCheckpointWindow(
      checkpoint, source_->num_functions(), options_, end_, "stream"));
  if (checkpoint.lanes.size() != lanes_.size()) {
    return Status::InvalidArgument(
        "checkpoint has (=" + std::to_string(checkpoint.lanes.size()) +
        ") lanes but this stream has (=" + std::to_string(lanes_.size()) +
        ")");
  }
  for (size_t i = 0; i < lanes_.size(); ++i) {
    SPES_RETURN_NOT_OK(lanes_[i].CheckShape(
        checkpoint.lanes[i], "checkpoint lane " + std::to_string(i), "stream",
        checkpoint.cursor));
  }

  // Shape checks all passed; hand each lane its policy and latency state,
  // then its engine-side counters. A RestoreState failure here (e.g. a
  // corrupt policy blob) leaves the stream in an unspecified mix of old
  // and new state — callers must discard the stream on a non-OK Restore.
  for (size_t i = 0; i < lanes_.size(); ++i) {
    SPES_RETURN_NOT_OK(lanes_[i].Load(checkpoint.lanes[i], checkpoint.cursor));
  }
  cursor_ = checkpoint.cursor;
  stopped_ = checkpoint.stopped;
  if (options_.recorder != nullptr) {
    options_.recorder->CheckpointEvent("restore", options_.recorder_slot,
                                       static_cast<uint64_t>(cursor_));
  }
  return Status::OK();
}

std::string SerializeCheckpoint(const SimCheckpoint& checkpoint) {
  bool has_latency = false;
  for (const SimCheckpoint::Lane& lane : checkpoint.lanes) {
    if (!lane.latency_state.empty()) has_latency = true;
  }
  BinaryWriter w;
  w.PutBytes(kCheckpointMagic);
  w.PutU32(has_latency ? kCheckpointVersionLatency : kCheckpointVersion);
  WriteCheckpointWindow(w, checkpoint);
  w.PutU64(checkpoint.lanes.size());
  for (const SimCheckpoint::Lane& lane : checkpoint.lanes) {
    w.PutBytes(lane.policy_name);
    WriteLaneCounters(w, lane);
    WriteLaneTotals(w, lane);
    w.PutBytes(lane.policy_state);
    if (has_latency) w.PutBytes(lane.latency_state);
  }
  return w.Take();
}

Result<SimCheckpoint> ParseCheckpoint(const std::string& bytes) {
  BinaryReader r(bytes);
  SPES_ASSIGN_OR_RETURN(const std::string magic, r.Bytes());
  if (magic != kCheckpointMagic) {
    return Status::InvalidArgument(
        "not a SPES checkpoint (bad magic tag)");
  }
  SPES_ASSIGN_OR_RETURN(const uint32_t version, r.U32());
  if (version != kCheckpointVersion && version != kCheckpointVersionLatency) {
    return Status::InvalidArgument(
        "unsupported checkpoint version (=" + std::to_string(version) +
        "), expected (=" + std::to_string(kCheckpointVersion) + ") or (=" +
        std::to_string(kCheckpointVersionLatency) + ")");
  }
  SimCheckpoint checkpoint;
  SPES_RETURN_NOT_OK(ReadCheckpointWindow(r, &checkpoint));
  // Minimal encoded lane: 80 bytes (empty name/blob/vector prefixes +
  // totals + overhead) — bounds reserve() against corrupt counts.
  SPES_ASSIGN_OR_RETURN(const uint64_t num_lanes, r.Length(80));
  checkpoint.lanes.reserve(num_lanes);
  for (uint64_t i = 0; i < num_lanes; ++i) {
    SimCheckpoint::Lane lane;
    SPES_ASSIGN_OR_RETURN(lane.policy_name, r.Bytes());
    SPES_RETURN_NOT_OK(ReadLaneCounters(r, &lane));
    SPES_RETURN_NOT_OK(ReadLaneTotals(r, &lane));
    SPES_ASSIGN_OR_RETURN(lane.policy_state, r.Bytes());
    if (version >= kCheckpointVersionLatency) {
      SPES_ASSIGN_OR_RETURN(lane.latency_state, r.Bytes());
    }
    checkpoint.lanes.push_back(std::move(lane));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(r.remaining()) +
        " trailing bytes");
  }
  return checkpoint;
}

}  // namespace spes
