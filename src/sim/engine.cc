#include "sim/engine.h"

#include <string>

#include "sim/stream.h"

namespace spes {

Status ValidateSimOptions(const SimOptions& options) {
  if (options.train_minutes < 0) {
    return Status::InvalidArgument(
        "SimOptions.train_minutes (=" + std::to_string(options.train_minutes) +
        ") must be non-negative");
  }
  if (options.end_minute < 0) {
    return Status::InvalidArgument(
        "SimOptions.end_minute (=" + std::to_string(options.end_minute) +
        ") must be non-negative");
  }
  if (options.end_minute > 0 && options.end_minute < options.train_minutes) {
    return Status::InvalidArgument(
        "SimOptions.end_minute (=" + std::to_string(options.end_minute) +
        ") must not precede SimOptions.train_minutes (=" +
        std::to_string(options.train_minutes) + ")");
  }
  if (options.latency.has_value()) {
    SPES_RETURN_NOT_OK(ValidateLatencySpec(*options.latency));
  }
  if (options.recorder_slot < 0) {
    return Status::InvalidArgument(
        "SimOptions.recorder_slot (=" +
        std::to_string(options.recorder_slot) + ") must be non-negative");
  }
  return Status::OK();
}

Result<SimulationOutcome> Simulate(const Trace& trace, Policy* policy,
                                   const SimOptions& options) {
  // The batch entry point is a full-window streaming session: open a
  // single-lane SimStream and drain it. The minute step lives in
  // sim/engine_lane.cc.
  SPES_ASSIGN_OR_RETURN(SimStream stream,
                        SimStream::Create(trace, policy, options));
  return stream.Finish();
}

}  // namespace spes
