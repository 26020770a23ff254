#include "sim/reference_kernel.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/clock.h"
#include "sim/memset.h"

namespace spes {

Result<SimulationOutcome> SimulateReference(const Trace& trace,
                                            Policy* policy,
                                            const SimOptions& options) {
  if (policy == nullptr) {
    return Status::InvalidArgument("policy must not be null");
  }
  SPES_RETURN_NOT_OK(ValidateSimOptions(options));
  const int horizon = trace.num_minutes();
  if (options.train_minutes > horizon) {
    return Status::InvalidArgument(
        "SimOptions.train_minutes (=" + std::to_string(options.train_minutes) +
        ") exceeds the trace horizon (=" + std::to_string(horizon) +
        " minutes)");
  }
  const int end = options.end_minute > 0
                      ? std::min(options.end_minute, horizon)
                      : horizon;

  policy->Train(trace, options.train_minutes);

  const size_t n = trace.num_functions();
  MemSet mem(n);
  std::vector<FunctionAccount> accounts(n);
  std::vector<uint32_t> memory_series;
  memory_series.reserve(static_cast<size_t>(end - options.train_minutes));
  std::vector<Invocation> arrivals;
  std::vector<uint8_t> invoked_now(n, 0);
  double overhead_seconds = 0.0;

  for (int t = options.train_minutes; t < end; ++t) {
    // Decode this minute's arrivals with a full scan over the fleet.
    arrivals.clear();
    for (size_t f = 0; f < n; ++f) {
      const uint32_t c = trace.function(f).counts[static_cast<size_t>(t)];
      invoked_now[f] = c > 0 ? 1 : 0;
      if (c > 0) {
        arrivals.push_back({static_cast<uint32_t>(f), c});
      }
    }

    // 1-2. Cold-start accounting, then execution pins the instance.
    for (const Invocation& inv : arrivals) {
      FunctionAccount& acc = accounts[inv.function];
      acc.invocations += inv.count;
      acc.invoked_minutes += 1;
      if (!mem.Contains(inv.function)) acc.cold_starts += 1;
      mem.Add(inv.function);
    }

    // 3. Policy step (timed for the RQ2 overhead measurement; the
    // monotonic clock lives in obs/clock so the linter can confine it).
    const double start = MonotonicSeconds();
    policy->OnMinute(t, arrivals, &mem);
    overhead_seconds += MonotonicSeconds() - start;

    for (const Invocation& inv : arrivals) mem.Add(inv.function);

    // 4. Residency accounting: one membership probe per function.
    for (size_t f = 0; f < n; ++f) {
      if (!mem.Contains(f)) continue;
      FunctionAccount& acc = accounts[f];
      acc.loaded_minutes += 1;
      if (!invoked_now[f]) acc.wasted_minutes += 1;
    }
    memory_series.push_back(static_cast<uint32_t>(mem.Count()));
  }

  SimulationOutcome outcome;
  outcome.metrics = ComputeFleetMetrics(policy->name(), accounts,
                                        memory_series, overhead_seconds);
  outcome.accounts = std::move(accounts);
  outcome.memory_series = std::move(memory_series);
  return outcome;
}

}  // namespace spes
