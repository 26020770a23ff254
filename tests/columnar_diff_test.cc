// Differential test for the columnar minute-major kernel: SimStream's
// outcome must be bitwise-equal to the kept naive reference loop
// (sim/reference_kernel.h) on random fleets across seeds and sparse and
// dense arrival mixes. The two implementations share no hot-path code
// (the reference counts wasted minutes one by one, the columnar kernel
// derives them), so any columnar bookkeeping bug (interval accrual,
// decode order, bitset diffing) shows up as a counter mismatch here.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/spes_policy.h"
#include "policies/faascache.h"
#include "policies/fixed_keepalive.h"
#include "sim/engine.h"
#include "sim/reference_kernel.h"
#include "sim/stream.h"
#include "tests/same_outcome.h"
#include "trace/generator.h"

namespace spes {
namespace {

struct FleetCase {
  std::string label;
  GeneratorConfig config;
};

std::vector<FleetCase> FleetCases() {
  std::vector<FleetCase> cases;
  for (const uint64_t seed : {7u, 123u, 2026u}) {
    GeneratorConfig dense;
    dense.num_functions = 120;
    dense.days = 3;
    dense.seed = seed;
    dense.intensity_zipf_exponent = 1.1;  // fat head: arrivals most minutes
    cases.push_back({"dense-seed" + std::to_string(seed), dense});

    GeneratorConfig sparse;
    sparse.num_functions = 200;
    sparse.days = 3;
    sparse.seed = seed;
    sparse.intensity_zipf_exponent = 2.4;  // long tail: mostly idle fleet
    cases.push_back({"sparse-seed" + std::to_string(seed), sparse});
  }
  return cases;
}

/// One policy instance per kernel — both freshly constructed the same way.
std::vector<std::unique_ptr<Policy>> MakePolicyPair(const std::string& name) {
  std::vector<std::unique_ptr<Policy>> pair;
  for (int i = 0; i < 2; ++i) {
    if (name == "spes") {
      pair.push_back(std::make_unique<SpesPolicy>());
    } else if (name == "fixed") {
      pair.push_back(std::make_unique<FixedKeepAlivePolicy>(10));
    } else {
      // A tight capacity forces the eviction scan every minute.
      pair.push_back(std::make_unique<FaasCachePolicy>(16));
    }
  }
  return pair;
}

TEST(ColumnarDiffTest, MatchesReferenceAcrossFleetsAndPolicies) {
  for (const FleetCase& fleet : FleetCases()) {
    const Trace trace =
        std::move(GenerateTrace(fleet.config).ValueOrDie().trace);
    for (const std::string policy_name : {"spes", "fixed", "faascache"}) {
      SimOptions options;
      options.train_minutes = kMinutesPerDay;

      auto policies = MakePolicyPair(policy_name);
      SimStream stream =
          SimStream::Create(trace, policies[0].get(), options).ValueOrDie();
      const SimulationOutcome columnar = stream.Finish().ValueOrDie();
      const SimulationOutcome reference =
          SimulateReference(trace, policies[1].get(), options).ValueOrDie();

      // The reference counts waste minute by minute; the columnar kernel
      // derives it as loaded - invoked minutes.
      ExpectSameOutcome(columnar, reference, fleet.label + "/" + policy_name);
      const Status invariants = CheckOutcomeInvariants(reference);
      EXPECT_TRUE(invariants.ok()) << invariants.message();
    }
  }
}

TEST(ColumnarDiffTest, LiveTotalsMatchReferenceMidWindow) {
  // Snapshot mid-window so open residency intervals (not just the final
  // materialization) are compared against the reference's running counters.
  GeneratorConfig config;
  config.num_functions = 150;
  config.days = 3;
  config.seed = 42;
  const Trace trace = std::move(GenerateTrace(config).ValueOrDie().trace);

  SimOptions options;
  options.train_minutes = kMinutesPerDay;
  const int midpoint = options.train_minutes + 517;  // deliberately odd

  FixedKeepAlivePolicy streamed(10);
  SimStream stream =
      SimStream::Create(trace, &streamed, options).ValueOrDie();
  ASSERT_TRUE(stream.RunUntil(midpoint).ok());
  const FleetMetrics snapshot = stream.SnapshotMetrics(0);

  SimOptions clipped = options;
  clipped.end_minute = midpoint;
  FixedKeepAlivePolicy reference(10);
  const SimulationOutcome ref =
      SimulateReference(trace, &reference, clipped).ValueOrDie();
  EXPECT_EQ(snapshot.total_invocations, ref.metrics.total_invocations);
  EXPECT_EQ(snapshot.total_cold_starts, ref.metrics.total_cold_starts);
  EXPECT_EQ(snapshot.loaded_instance_minutes,
            ref.metrics.loaded_instance_minutes);
  EXPECT_EQ(snapshot.wasted_memory_minutes,
            ref.metrics.wasted_memory_minutes);
  EXPECT_EQ(snapshot.max_memory, ref.metrics.max_memory);
}

}  // namespace
}  // namespace spes
