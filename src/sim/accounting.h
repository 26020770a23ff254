// Per-function accounting and fleet-level metrics produced by a simulation:
// cold-start rate (CSR) distribution, wasted memory time (WMT), memory
// usage, effective memory consumption ratio (EMCR), always-cold ratio, and
// scheduler overhead — the quantities of RQ1-RQ3.

#ifndef SPES_SIM_ACCOUNTING_H_
#define SPES_SIM_ACCOUNTING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace spes {

struct LatencyOutcome;  // latency/latency.h

/// \brief Counters kept by the engine for one function over the simulation
/// window.
struct FunctionAccount {
  /// Total arrivals (sum of per-minute counts).
  uint64_t invocations = 0;
  /// Minutes with at least one arrival.
  uint64_t invoked_minutes = 0;
  /// Arrival minutes at which the function was not loaded.
  uint64_t cold_starts = 0;
  /// Minutes the instance was resident in memory.
  uint64_t loaded_minutes = 0;
  /// Resident minutes with no arrival = wasted memory time contribution.
  /// Executions pin, so this is loaded_minutes - invoked_minutes.
  uint64_t wasted_minutes = 0;

  bool operator==(const FunctionAccount&) const = default;

  /// \brief Field-wise sum (per-node accounts into a fleet account).
  FunctionAccount& operator+=(const FunctionAccount& other) {
    invocations += other.invocations;
    invoked_minutes += other.invoked_minutes;
    cold_starts += other.cold_starts;
    loaded_minutes += other.loaded_minutes;
    wasted_minutes += other.wasted_minutes;
    return *this;
  }

  /// \brief Function-wise cold-start rate: cold starts / invocations.
  ///
  /// Cold starts are counted per arrival-minute (at most one per minute —
  /// concurrent arrivals within a minute share the freshly started
  /// instance, per the paper's one-minute-execution simulation principle),
  /// while the denominator is total arrivals, matching §V-A2.
  [[nodiscard]] double ColdStartRate() const {
    return invocations == 0
               ? 0.0
               : static_cast<double>(cold_starts) /
                     static_cast<double>(invocations);
  }
};

/// \brief Monotone fleet-wide counters the streaming engine maintains
/// incrementally, so observers get O(1) live totals each minute without
/// re-summing the per-function accounts.
struct LiveTotals {
  uint64_t invocations = 0;
  uint64_t cold_starts = 0;
  uint64_t loaded_instance_minutes = 0;
  uint64_t wasted_memory_minutes = 0;
};

/// \brief Aggregate metrics for one policy run.
struct FleetMetrics {
  std::string policy_name;

  /// CSR per function with >= 1 invocation in the simulation window.
  std::vector<double> csr;

  double q3_csr = 0.0;     ///< 75th-percentile CSR (the paper's headline)
  double p90_csr = 0.0;    ///< 90th-percentile CSR
  double median_csr = 0.0;

  /// Fraction of invoked functions with CSR == 1.0 ("always cold").
  double always_cold_fraction = 0.0;
  /// Fraction of invoked functions with CSR == 0.0 (fully warm).
  double zero_cold_fraction = 0.0;

  uint64_t total_cold_starts = 0;
  uint64_t total_invocations = 0;

  /// Sum over minutes of idle loaded instances (WMT, in instance-minutes).
  uint64_t wasted_memory_minutes = 0;
  /// Sum over minutes of loaded instances (instance-minutes).
  uint64_t loaded_instance_minutes = 0;

  double average_memory = 0.0;  ///< mean loaded instances per minute
  uint64_t max_memory = 0;      ///< peak loaded instances in any minute

  /// EMCR: invoked loaded instance-minutes / loaded instance-minutes.
  double emcr = 0.0;

  /// Wall-clock seconds spent inside Policy::OnMinute, total and per
  /// simulated minute (the RQ2 overhead measurement).
  double overhead_seconds = 0.0;
  double overhead_seconds_per_minute = 0.0;
};

/// \brief Full outcome: per-function accounts + fleet metrics + the memory
/// time series (loaded instances at each simulated minute).
struct SimulationOutcome {
  std::vector<FunctionAccount> accounts;
  std::vector<uint32_t> memory_series;
  FleetMetrics metrics;
  /// Latency/SLO outcome when the opt-in latency subsystem was enabled
  /// for the run; null otherwise. Shared so outcomes stay cheap to copy.
  std::shared_ptr<const LatencyOutcome> latency;
};

/// \brief Checks the accounting identities every run must satisfy, on any
/// engine path and under any policy:
///  - per function, cold starts <= invoked minutes, and wasted minutes +
///    invoked minutes == loaded minutes (executions pin, so every invoked
///    minute is a loaded one and the rest are waste);
///  - the memory series sums to the loaded instance-minutes, which equal
///    the sum of the per-function loaded minutes;
///  - the per-function cold starts, wasted minutes and invocations sum to
///    the fleet metrics;
///  - with a latency outcome, every invocation was offered to the lane
///    (offered = served + shed + timeouts = invocations).
/// Returns Internal naming the first identity that fails.
Status CheckOutcomeInvariants(const SimulationOutcome& outcome);

/// \brief Derives FleetMetrics from raw accounts and the memory series.
FleetMetrics ComputeFleetMetrics(const std::string& policy_name,
                                 const std::vector<FunctionAccount>& accounts,
                                 const std::vector<uint32_t>& memory_series,
                                 double overhead_seconds);

}  // namespace spes

#endif  // SPES_SIM_ACCOUNTING_H_
