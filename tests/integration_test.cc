// End-to-end integration: generate a calibrated fleet, run SPES and every
// baseline through the engine, and check the qualitative orderings the
// paper reports (the "shape" acceptance criteria of DESIGN.md §5).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/spes_policy.h"
#include "policies/defuse.h"
#include "policies/faascache.h"
#include "policies/fixed_keepalive.h"
#include "policies/hybrid_histogram.h"
#include "policies/oracle.h"
#include "sim/engine.h"
#include "trace/generator.h"

namespace spes {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorConfig config;
    config.num_functions = 1200;
    config.days = 6;
    config.seed = 2024;
    auto generated = GenerateTrace(config);
    ASSERT_TRUE(generated.ok());
    trace_ = new Trace(std::move(generated.ValueOrDie().trace));

    options_.train_minutes = 4 * kMinutesPerDay;

    // SPES first: FaasCache's capacity comes from SPES's peak memory.
    spes_policy_ = new SpesPolicy();
    auto spes_out = Simulate(*trace_, spes_policy_, options_);
    ASSERT_TRUE(spes_out.ok());
    spes_ = new SimulationOutcome(std::move(spes_out).ValueOrDie());
  }

  static void TearDownTestSuite() {
    delete spes_;
    delete spes_policy_;
    delete trace_;
    spes_ = nullptr;
    spes_policy_ = nullptr;
    trace_ = nullptr;
  }

  static FleetMetrics Run(Policy* policy) {
    auto outcome = Simulate(*trace_, policy, options_);
    EXPECT_TRUE(outcome.ok());
    return outcome.ValueOrDie().metrics;
  }

  static Trace* trace_;
  static SpesPolicy* spes_policy_;
  static SimulationOutcome* spes_;
  static SimOptions options_;
};

Trace* IntegrationTest::trace_ = nullptr;
SpesPolicy* IntegrationTest::spes_policy_ = nullptr;
SimulationOutcome* IntegrationTest::spes_ = nullptr;
SimOptions IntegrationTest::options_;

TEST_F(IntegrationTest, SpesBeatsFixedOnColdStarts) {
  FixedKeepAlivePolicy fixed(10);
  const FleetMetrics fm = Run(&fixed);
  EXPECT_LT(spes_->metrics.q3_csr, fm.q3_csr);
}

TEST_F(IntegrationTest, SpesBeatsHybridFunctionOnColdStarts) {
  HybridHistogramPolicy hf(HybridGranularity::kFunction,
                           kHybridFallbackKeepAliveMinutes);
  const FleetMetrics m = Run(&hf);
  EXPECT_LE(spes_->metrics.q3_csr, m.q3_csr);
}

TEST_F(IntegrationTest, SpesBeatsDefuseOnWastedMemory) {
  DefusePolicy defuse;
  const FleetMetrics m = Run(&defuse);
  EXPECT_LT(spes_->metrics.wasted_memory_minutes, m.wasted_memory_minutes);
}

TEST_F(IntegrationTest, SpesMemoryCloseToFixed) {
  FixedKeepAlivePolicy fixed(10);
  const FleetMetrics fm = Run(&fixed);
  // Paper: SPES uses only ~8% more memory than Fixed-10min; allow slack.
  EXPECT_LT(spes_->metrics.average_memory, fm.average_memory * 1.8);
}

TEST_F(IntegrationTest, SpesEmcrIsHighest) {
  FixedKeepAlivePolicy fixed(10);
  HybridHistogramPolicy hf(HybridGranularity::kFunction,
                           kHybridFallbackKeepAliveMinutes);
  DefusePolicy defuse;
  EXPECT_GT(spes_->metrics.emcr, Run(&fixed).emcr);
  EXPECT_GT(spes_->metrics.emcr, Run(&hf).emcr);
  EXPECT_GT(spes_->metrics.emcr, Run(&defuse).emcr);
}

TEST_F(IntegrationTest, FaasCacheRespectsSpesPeakMemoryCap) {
  FaasCachePolicy faascache(spes_->metrics.max_memory);
  auto outcome = Simulate(*trace_, &faascache, options_);
  ASSERT_TRUE(outcome.ok());
  // Capacity violations can only come from same-minute executions.
  const auto& series = outcome.ValueOrDie().memory_series;
  int64_t above = 0;
  for (uint32_t used : series) {
    if (used > spes_->metrics.max_memory) ++above;
  }
  EXPECT_LT(static_cast<double>(above) / static_cast<double>(series.size()),
            0.05);
}

TEST_F(IntegrationTest, OracleLowerBoundsSpes) {
  OraclePolicy oracle;
  const FleetMetrics m = Run(&oracle);
  EXPECT_LE(m.total_cold_starts, spes_->metrics.total_cold_starts);
  EXPECT_LE(m.wasted_memory_minutes, spes_->metrics.wasted_memory_minutes);
}

TEST_F(IntegrationTest, SpesHasMostFullyWarmFunctionsAmongFunctionGranular) {
  // Paper: 57.99% of functions experience no cold start under SPES, more
  // than any baseline except none. At our fleet scale the absolute number
  // is smaller (fewer ultra-sparse one-shot functions that live entirely
  // inside a pre-warm window), so we assert the ordering and a floor.
  EXPECT_GT(spes_->metrics.zero_cold_fraction, 0.20);
  FixedKeepAlivePolicy fixed(10);
  HybridHistogramPolicy hf(HybridGranularity::kFunction,
                           kHybridFallbackKeepAliveMinutes);
  DefusePolicy defuse;
  EXPECT_GT(spes_->metrics.zero_cold_fraction, Run(&fixed).zero_cold_fraction);
  EXPECT_GT(spes_->metrics.zero_cold_fraction, Run(&hf).zero_cold_fraction);
  EXPECT_GT(spes_->metrics.zero_cold_fraction,
            Run(&defuse).zero_cold_fraction);
}

TEST_F(IntegrationTest, AblationCorrDoesNotHurtColdStarts) {
  SpesConfig no_corr;
  no_corr.enable_correlated = false;
  no_corr.enable_online_corr = false;
  SpesPolicy ablated(no_corr);
  const FleetMetrics m = Run(&ablated);
  // Removing the correlation machinery must not reduce cold starts.
  EXPECT_GE(m.q3_csr + 1e-9, spes_->metrics.q3_csr);
}

TEST_F(IntegrationTest, EngineInvariantColdStartsNeverExceedInvokedMinutes) {
  for (const auto& acc : spes_->accounts) {
    EXPECT_LE(acc.cold_starts, acc.invoked_minutes);
    EXPECT_LE(acc.invoked_minutes, acc.loaded_minutes);
  }
}

}  // namespace
}  // namespace spes
