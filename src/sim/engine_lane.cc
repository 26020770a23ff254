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
      pin_executing_functions_(options.pin_executing_functions),
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

  if (pin_executing_functions_) {
    for (const Invocation& inv : arrivals) mem_.Add(inv.function);
  }
}

bool EngineLane::Accrue(int t, const std::vector<Invocation>& arrivals,
                        const std::vector<SimObserver*>& observers) {
  // 4. Residency accounting: a word-at-a-time bitset diff opens/closes
  // residency intervals, live totals come from the maintained popcount,
  // and the wasted count follows from the arrivals that are loaded at
  // this sample. An instance is idle unless its function arrived on
  // *this* lane this minute (a warm copy left on another cluster node is
  // pure waste).
  cols_.AccrueResidency(t, mem_);
  const uint64_t live = mem_.Count();
  totals_.loaded_instance_minutes += live;
  uint64_t invoked_loaded_now = 0;
  for (const Invocation& inv : arrivals) {
    if (mem_.Contains(inv.function)) {
      cols_.invoked_loaded_minutes[inv.function] += 1;
      ++invoked_loaded_now;
    }
  }
  totals_.wasted_memory_minutes += live - invoked_loaded_now;
  memory_series_.push_back(static_cast<uint32_t>(live));

  FeedLatency(t, arrivals);

  bool keep_going = true;
  if (!observers.empty()) {
    // Observers see the classic account view; materializing it per
    // minute is the documented cost of attaching one.
    cols_.Materialize(t + 1, mem_, &scratch_accounts_);
    MinuteView view;
    view.minute = t;
    view.lane = index_;
    view.policy = policy_;
    view.arrivals = &arrivals;
    view.mem = &mem_;
    view.accounts = &scratch_accounts_;
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
      RunRecorder::Heartbeat heartbeat;
      heartbeat.slot = recorder_slot_;
      heartbeat.lane = static_cast<int>(index_);
      heartbeat.minute = t;
      heartbeat.invocations = totals_.invocations;
      heartbeat.cold_starts = totals_.cold_starts;
      heartbeat.loaded_instance_minutes = totals_.loaded_instance_minutes;
      heartbeat.wasted_memory_minutes = totals_.wasted_memory_minutes;
      heartbeat.loaded_instances = static_cast<uint32_t>(live);
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

FleetMetrics EngineLane::Snapshot(int cursor) const {
  std::vector<FunctionAccount> accounts;
  cols_.Materialize(cursor, mem_, &accounts);
  return ComputeFleetMetrics(policy_->name(), accounts, memory_series_,
                             overhead_seconds_);
}

SimulationOutcome EngineLane::TakeOutcome(int cursor) {
  SimulationOutcome outcome;
  cols_.Materialize(cursor, mem_, &outcome.accounts);
  outcome.metrics = ComputeFleetMetrics(policy_->name(), outcome.accounts,
                                        memory_series_, overhead_seconds_);
  outcome.memory_series = std::move(memory_series_);
  if (latency_ != nullptr) {
    outcome.latency =
        std::make_shared<const LatencyOutcome>(latency_->TakeOutcome());
  }
  return outcome;
}

}  // namespace spes
