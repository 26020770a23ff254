// ExpectSameOutcome: the one outcome-equality check the tests share.
//
// Two runs describe the same simulation when every per-function account,
// the memory series, every FleetMetrics field but the wall-clock
// overhead, and the latency outcome are bitwise equal. Path-equivalence,
// checkpoint, columnar-vs-reference and oracle tests all assert exactly
// this, so they all call this helper.

#ifndef SPES_TESTS_SAME_OUTCOME_H_
#define SPES_TESTS_SAME_OUTCOME_H_

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "latency/latency.h"
#include "sim/accounting.h"

namespace spes {

/// gtest printer, so a differing account names its counters.
inline void PrintTo(const FunctionAccount& a, std::ostream* os) {
  *os << "{invocations=" << a.invocations
      << ", invoked_minutes=" << a.invoked_minutes
      << ", cold_starts=" << a.cold_starts
      << ", loaded_minutes=" << a.loaded_minutes
      << ", wasted_minutes=" << a.wasted_minutes << "}";
}

/// \brief Expects `a` and `b` to describe bitwise-identical simulated
/// behaviour; `context` labels the failures. Reports the first differing
/// account only.
inline void ExpectSameOutcome(const SimulationOutcome& a,
                              const SimulationOutcome& b,
                              const std::string& context = "") {
  SCOPED_TRACE(context);
  ASSERT_EQ(a.accounts.size(), b.accounts.size());
  for (size_t f = 0; f < a.accounts.size(); ++f) {
    if (!(a.accounts[f] == b.accounts[f])) {
      EXPECT_EQ(a.accounts[f], b.accounts[f]) << "function " << f;
      break;
    }
  }
  EXPECT_EQ(a.memory_series, b.memory_series);

  const FleetMetrics& x = a.metrics;
  const FleetMetrics& y = b.metrics;
  EXPECT_EQ(x.policy_name, y.policy_name);
  EXPECT_EQ(x.csr, y.csr);
  EXPECT_EQ(x.q3_csr, y.q3_csr);
  EXPECT_EQ(x.p90_csr, y.p90_csr);
  EXPECT_EQ(x.median_csr, y.median_csr);
  EXPECT_EQ(x.always_cold_fraction, y.always_cold_fraction);
  EXPECT_EQ(x.zero_cold_fraction, y.zero_cold_fraction);
  EXPECT_EQ(x.total_cold_starts, y.total_cold_starts);
  EXPECT_EQ(x.total_invocations, y.total_invocations);
  EXPECT_EQ(x.wasted_memory_minutes, y.wasted_memory_minutes);
  EXPECT_EQ(x.loaded_instance_minutes, y.loaded_instance_minutes);
  EXPECT_EQ(x.average_memory, y.average_memory);
  EXPECT_EQ(x.max_memory, y.max_memory);
  EXPECT_EQ(x.emcr, y.emcr);

  ASSERT_EQ(a.latency == nullptr, b.latency == nullptr);
  if (a.latency != nullptr) {
    EXPECT_EQ(*a.latency, *b.latency);
  }
}

}  // namespace spes

#endif  // SPES_TESTS_SAME_OUTCOME_H_
