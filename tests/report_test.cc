#include "metrics/report.h"

#include <gtest/gtest.h>

#include "sim/engine.h"
#include "trace/generator.h"

namespace spes {
namespace {

FleetMetrics FakeMetrics(const std::string& name, double q3, double mem,
                         uint64_t wmt) {
  FleetMetrics m;
  m.policy_name = name;
  m.q3_csr = q3;
  m.csr = {0.0, q3 / 2, q3, 1.0};
  m.average_memory = mem;
  m.wasted_memory_minutes = wmt;
  m.always_cold_fraction = 0.25;
  m.zero_cold_fraction = 0.25;
  m.emcr = 0.4;
  return m;
}

TEST(RelativeReductionTest, Basics) {
  EXPECT_NEAR(RelativeReduction(0.215, 0.108), 0.4977, 0.001);
  EXPECT_DOUBLE_EQ(RelativeReduction(0.0, 0.5), 0.0);
  EXPECT_LT(RelativeReduction(0.1, 0.2), 0.0);  // regression, not reduction
}

TEST(ComparisonTableTest, NormalizesAgainstReference) {
  std::vector<FleetMetrics> metrics = {FakeMetrics("SPES", 0.1, 100.0, 1000),
                                       FakeMetrics("Other", 0.2, 200.0, 3000)};
  Table table = BuildComparisonTable(metrics, "SPES");
  const std::string out = table.ToString();
  EXPECT_NE(out.find("SPES"), std::string::npos);
  EXPECT_NE(out.find("Other"), std::string::npos);
  // Other's normalized memory = 2.000, WMT = 3.000.
  EXPECT_NE(out.find("2.000"), std::string::npos);
  EXPECT_NE(out.find("3.000"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(ComparisonTableTest, MissingReferenceFallsBackToRaw) {
  std::vector<FleetMetrics> metrics = {FakeMetrics("A", 0.1, 50.0, 10)};
  Table table = BuildComparisonTable(metrics, "nope");
  EXPECT_EQ(table.num_rows(), 1u);
}

TEST(CsrCdfTableTest, OneRowPerPolicy) {
  std::vector<FleetMetrics> metrics = {FakeMetrics("A", 0.1, 1, 1),
                                       FakeMetrics("B", 0.3, 1, 1),
                                       FakeMetrics("C", 0.6, 1, 1)};
  Table table = BuildCsrCdfTable(metrics);
  EXPECT_EQ(table.num_rows(), 3u);
}

TEST(BreakdownByTypeTest, AggregatesRealRun) {
  GeneratorConfig config;
  config.num_functions = 300;
  config.days = 4;
  config.seed = 55;
  const auto generated = GenerateTrace(config);
  ASSERT_TRUE(generated.ok());
  const Trace& trace = generated.ValueOrDie().trace;
  SpesPolicy policy;
  SimOptions options;
  options.train_minutes = 3 * kMinutesPerDay;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());

  const auto rows = BreakdownByType(policy, outcome.ValueOrDie().accounts);
  ASSERT_EQ(rows.size(), static_cast<size_t>(kNumFunctionTypes));
  int64_t total_functions = 0;
  uint64_t total_cold = 0;
  for (const auto& row : rows) {
    total_functions += row.num_functions;
    total_cold += row.cold_starts;
    EXPECT_GE(row.mean_csr, 0.0);
    EXPECT_LE(row.mean_csr, 1.0);
  }
  EXPECT_EQ(total_functions, 300);
  EXPECT_EQ(total_cold, outcome.ValueOrDie().metrics.total_cold_starts);
}

}  // namespace
}  // namespace spes
