#include "sim/accounting.h"

#include <algorithm>
#include <string>

#include "common/stats.h"
#include "latency/latency.h"

namespace spes {

Status CheckOutcomeInvariants(const SimulationOutcome& outcome) {
  uint64_t cold_starts = 0, wasted = 0, loaded = 0, invocations = 0;
  for (size_t f = 0; f < outcome.accounts.size(); ++f) {
    const FunctionAccount& a = outcome.accounts[f];
    if (a.cold_starts > a.invoked_minutes) {
      return Status::Internal("function (=" + std::to_string(f) +
                              ") has more cold starts than invoked minutes");
    }
    if (a.wasted_minutes + a.invoked_minutes != a.loaded_minutes) {
      return Status::Internal("function (=" + std::to_string(f) +
                              ") has wasted + invoked != loaded minutes");
    }
    cold_starts += a.cold_starts;
    wasted += a.wasted_minutes;
    loaded += a.loaded_minutes;
    invocations += a.invocations;
  }
  uint64_t series = 0;
  for (const uint32_t live : outcome.memory_series) series += live;
  const FleetMetrics& m = outcome.metrics;
  if (series != m.loaded_instance_minutes || loaded != series) {
    return Status::Internal(
        "memory series sums to (=" + std::to_string(series) +
        ") instance-minutes, the metrics say (=" +
        std::to_string(m.loaded_instance_minutes) +
        ") and the accounts (=" + std::to_string(loaded) + ")");
  }
  if (cold_starts != m.total_cold_starts || wasted != m.wasted_memory_minutes ||
      invocations != m.total_invocations) {
    return Status::Internal(
        "per-function cold starts, wasted minutes or invocations do not sum "
        "to the fleet metrics");
  }
  if (outcome.latency != nullptr &&
      outcome.latency->offered() != m.total_invocations) {
    return Status::Internal(
        "latency lane was offered (=" +
        std::to_string(outcome.latency->offered()) + ") requests for (=" +
        std::to_string(m.total_invocations) + ") invocations");
  }
  return Status::OK();
}

FleetMetrics ComputeFleetMetrics(const std::string& policy_name,
                                 const std::vector<FunctionAccount>& accounts,
                                 const std::vector<uint32_t>& memory_series,
                                 double overhead_seconds) {
  FleetMetrics m;
  m.policy_name = policy_name;
  m.overhead_seconds = overhead_seconds;

  uint64_t effective_minutes = 0;
  int64_t always_cold = 0, zero_cold = 0;
  for (const FunctionAccount& acc : accounts) {
    m.wasted_memory_minutes += acc.wasted_minutes;
    m.loaded_instance_minutes += acc.loaded_minutes;
    effective_minutes += acc.loaded_minutes - acc.wasted_minutes;
    if (acc.invocations == 0) continue;
    const double csr = acc.ColdStartRate();
    m.csr.push_back(csr);
    m.total_cold_starts += acc.cold_starts;
    m.total_invocations += acc.invocations;
    if (csr >= 1.0) ++always_cold;
    if (csr <= 0.0) ++zero_cold;
  }

  if (!m.csr.empty()) {
    m.q3_csr = Percentile(m.csr, 75.0);
    m.p90_csr = Percentile(m.csr, 90.0);
    m.median_csr = Percentile(m.csr, 50.0);
    m.always_cold_fraction =
        static_cast<double>(always_cold) / static_cast<double>(m.csr.size());
    m.zero_cold_fraction =
        static_cast<double>(zero_cold) / static_cast<double>(m.csr.size());
  }

  if (!memory_series.empty()) {
    uint64_t sum = 0;
    for (uint32_t v : memory_series) {
      sum += v;
      m.max_memory = std::max<uint64_t>(m.max_memory, v);
    }
    m.average_memory =
        static_cast<double>(sum) / static_cast<double>(memory_series.size());
    m.overhead_seconds_per_minute =
        overhead_seconds / static_cast<double>(memory_series.size());
  }

  if (m.loaded_instance_minutes > 0) {
    m.emcr = static_cast<double>(effective_minutes) /
             static_cast<double>(m.loaded_instance_minutes);
  }
  return m;
}

}  // namespace spes
