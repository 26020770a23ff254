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
  return CreateImpl(source, std::move(owned), policies, options);
}

Result<SimStream> SimStream::Create(TraceSource& source,
                                    std::vector<Policy*> policies,
                                    const SimOptions& options) {
  return CreateImpl(&source, nullptr, policies, options);
}

Result<SimStream> SimStream::CreateImpl(TraceSource* source,
                                        std::unique_ptr<TraceSource> owned,
                                        const std::vector<Policy*>& policies,
                                        const SimOptions& options) {
  SPES_RETURN_NOT_OK(ValidateStreamPolicies(policies));
  SPES_ASSIGN_OR_RETURN(const int end,
                        ResolveStreamWindow(source->num_minutes(), options));
  SimStream stream(source, std::move(owned), options, end);
  const size_t n = source->num_functions();
  const auto latency_hashes = SharedLatencyHashes(*source, options);
  stream.lanes_.reserve(policies.size());
  for (Policy* policy : policies) {
    SPES_ASSIGN_OR_RETURN(EngineLane lane,
                          EngineLane::Create(stream.lanes_.size(), policy, n,
                                             options, end, latency_hashes));
    stream.lanes_.push_back(std::move(lane));
  }
  SPES_RETURN_NOT_OK(TrainPolicies(*source, policies, options));
  return stream;
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

  for (EngineLane& lane : lanes_) {
    lane.Admit(t, arrivals_);
    lane.Accrue(t, arrivals_);
  }
  ++cursor_;

  // Minute t is committed on every lane: only now do observers see it.
  bool stop_requested = false;
  for (EngineLane& lane : lanes_) {
    if (!lane.Publish(t, arrivals_, observers_)) stop_requested = true;
  }
  if (stop_requested) stopped_ = true;
  return Status::OK();
}

std::string SimStream::SimulateLabel() const {
  return lanes_.size() == 1
             ? lanes_[0].policy()->name()
             : std::to_string(lanes_.size()) + " lockstep lanes";
}

FleetMetrics SimStream::SnapshotMetrics(size_t lane) const {
  return lanes_[lane].Snapshot();
}

Result<std::vector<SimulationOutcome>> SimStream::FinishAll() {
  SPES_ASSIGN_OR_RETURN(const ScopedSpan finish_span, BeginFinish());
  std::vector<SimulationOutcome> outcomes;
  outcomes.reserve(lanes_.size());
  for (EngineLane& lane : lanes_) {
    outcomes.push_back(lane.TakeOutcome());
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
  SimCheckpoint checkpoint;
  SPES_RETURN_NOT_OK(BeginCheckpoint(&checkpoint));
  checkpoint.lanes.reserve(lanes_.size());
  for (const EngineLane& lane : lanes_) {
    SimCheckpoint::Lane out;
    SPES_RETURN_NOT_OK(lane.Save(&out));
    checkpoint.lanes.push_back(std::move(out));
  }
  RecordCheckpointEvent("save");
  return checkpoint;
}

Status SimStream::Restore(const SimCheckpoint& checkpoint) {
  SPES_RETURN_NOT_OK(BeginRestore(checkpoint, checkpoint.lanes.size()));
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
  EndRestore(checkpoint);
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
