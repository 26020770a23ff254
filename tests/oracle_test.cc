#include "policies/oracle.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/cluster.h"
#include "core/policy_registry.h"
#include "policies/fixed_keepalive.h"
#include "sim/engine.h"
#include "sim/stream.h"
#include "tests/same_outcome.h"
#include "trace/generator.h"
#include "trace/trace_file.h"
#include "trace/transform.h"

namespace spes {
namespace {

/// The oracle as it was before its future index: it keeps a pointer to
/// the trace it trained on and scans all n functions every minute. The
/// differential reference for OraclePolicy.
class ScanOraclePolicy : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "Oracle"; }
  void Train(const Trace& trace, int train_minutes) override {
    (void)train_minutes;
    trace_ = &trace;
  }
  void OnMinute(int t, const std::vector<Invocation>& arrivals,
                MemSet* mem) override {
    (void)arrivals;
    const int next = t + 1;
    const bool has_next = next < trace_->num_minutes();
    for (size_t f = 0; f < trace_->num_functions(); ++f) {
      if (has_next &&
          trace_->function(f).counts[static_cast<size_t>(next)] > 0) {
        mem->Add(f);
      } else {
        mem->Remove(f);
      }
    }
  }

 private:
  const Trace* trace_ = nullptr;
};

/// Registers the reference as "scan_oracle", so a cluster can build it.
void RegisterScanOracle() {
  static const bool registered = [] {
    PolicyRegistry::Entry entry;
    entry.canonical_name = "scan_oracle";
    entry.summary = "the O(n)-per-minute reference oracle";
    entry.factory =
        [](const PolicyParams&) -> Result<std::unique_ptr<Policy>> {
      return std::unique_ptr<Policy>(std::make_unique<ScanOraclePolicy>());
    };
    PolicyRegistry::Global().Register(std::move(entry)).CheckOK();
    return true;
  }();
  (void)registered;
}

/// (fleet kind, whether end_minute stops short of the horizon)
using DifferentialCase = std::tuple<std::string, bool>;

class OracleDifferentialTest
    : public testing::TestWithParam<DifferentialCase> {};

TEST_P(OracleDifferentialTest, FutureIndexMatchesTheScanOracle) {
  const auto& [fleet, short_window] = GetParam();
  GeneratorConfig config;
  config.num_functions = 90;
  config.days = 3;
  config.seed = 80;
  if (fleet == "rare") config.rare_fraction = 0.4;
  Trace trace = std::move(GenerateTrace(config).ValueOrDie().trace);
  if (fleet == "burst") {
    trace = ApplyTransforms(
                std::move(trace),
                ParseTransformChain("inject_burst{at=3000,width=30,"
                                    "amplitude=5,fraction=0.3}")
                    .ValueOrDie())
                .ValueOrDie();
  }
  SimOptions options;
  options.train_minutes = kMinutesPerDay;
  // A window ending before the horizon still reads minute end_minute:
  // the look-ahead of the last simulated minute.
  if (short_window) options.end_minute = trace.num_minutes() - 100;

  // The new oracle runs streamed from packed bytes, with no realized
  // trace behind it; the reference reads the in-memory trace.
  TraceFileWriter writer =
      TraceFileWriter::Create(trace.num_minutes()).ValueOrDie();
  for (size_t f = 0; f < trace.num_functions(); ++f) {
    writer.Add(trace.function(f).meta, trace.function(f).counts).CheckOK();
  }
  const std::unique_ptr<TraceFileSource> packed =
      TraceFileSource::FromBytes(writer.ToBytes().ValueOrDie()).ValueOrDie();

  ScanOraclePolicy reference;
  OraclePolicy oracle;
  const SimulationOutcome expected =
      SimStream::Create(trace, &reference, options)
          .ValueOrDie()
          .Finish()
          .ValueOrDie();
  ASSERT_GT(expected.metrics.total_invocations, 0u);
  ExpectSameOutcome(expected, SimStream::Create(*packed, &oracle, options)
                                  .ValueOrDie()
                                  .Finish()
                                  .ValueOrDie());

  RegisterScanOracle();
  ClusterSpec two_nodes;
  two_nodes.nodes = 2;
  const ClusterOutcome expected_cluster =
      ClusterSession::Create(trace, two_nodes, {"scan_oracle", {}}, options)
          .ValueOrDie()
          .Finish()
          .ValueOrDie();
  const ClusterOutcome cluster =
      ClusterSession::Create(*packed, two_nodes, {"oracle", {}}, options)
          .ValueOrDie()
          .Finish()
          .ValueOrDie();
  ExpectSameOutcome(expected_cluster.fleet, cluster.fleet);
  ASSERT_EQ(cluster.nodes.size(), 2u);
  for (size_t k = 0; k < 2; ++k) {
    ExpectSameOutcome(expected_cluster.nodes[k].sim, cluster.nodes[k].sim);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fleets, OracleDifferentialTest,
    testing::Combine(testing::Values("plain", "rare", "burst"),
                     testing::Bool()),
    [](const testing::TestParamInfo<DifferentialCase>& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) ? "_short_window" : "_full_window");
    });

TEST(OracleTest, ZeroColdStartsOnGeneratedTraceAfterWarmup) {
  GeneratorConfig config;
  config.num_functions = 150;
  config.days = 3;
  config.seed = 77;
  const auto generated = GenerateTrace(config);
  ASSERT_TRUE(generated.ok());
  const Trace& trace = generated.ValueOrDie().trace;

  OraclePolicy policy;
  SimOptions options;
  options.train_minutes = 2 * kMinutesPerDay;
  const auto outcome = Simulate(trace, &policy, options);
  ASSERT_TRUE(outcome.ok());

  // Only the very first simulated minute can be cold.
  uint64_t cold = 0;
  for (const auto& acc : outcome.ValueOrDie().accounts) {
    cold += acc.cold_starts;
  }
  uint64_t first_minute_arrivals = 0;
  for (size_t f = 0; f < trace.num_functions(); ++f) {
    if (trace.function(f)
            .counts[static_cast<size_t>(options.train_minutes)] > 0) {
      ++first_minute_arrivals;
    }
  }
  EXPECT_LE(cold, first_minute_arrivals);
}

TEST(OracleTest, WasteNeverExceedsOnePrewarmMinutePerArrivalMinute) {
  // Every idle loaded minute under the oracle is the pre-warm minute of an
  // arrival in the NEXT minute, so per function waste <= invoked minutes.
  GeneratorConfig config;
  config.num_functions = 100;
  config.days = 3;
  config.seed = 78;
  const auto generated = GenerateTrace(config);
  ASSERT_TRUE(generated.ok());

  OraclePolicy policy;
  SimOptions options;
  options.train_minutes = 2 * kMinutesPerDay;
  const auto outcome =
      Simulate(generated.ValueOrDie().trace, &policy, options);
  ASSERT_TRUE(outcome.ok());
  for (const auto& acc : outcome.ValueOrDie().accounts) {
    EXPECT_LE(acc.wasted_minutes, acc.invoked_minutes);
  }
}

TEST(OracleTest, LowerBoundsEveryPolicyOnColdStarts) {
  // Sanity: oracle cold starts <= fixed keep-alive cold starts.
  GeneratorConfig config;
  config.num_functions = 120;
  config.days = 3;
  config.seed = 79;
  const auto generated = GenerateTrace(config);
  ASSERT_TRUE(generated.ok());
  const Trace& trace = generated.ValueOrDie().trace;
  SimOptions options;
  options.train_minutes = 2 * kMinutesPerDay;

  OraclePolicy oracle;
  const auto oracle_out = Simulate(trace, &oracle, options);
  ASSERT_TRUE(oracle_out.ok());

  FixedKeepAlivePolicy fixed(10);
  const auto fixed_out = Simulate(trace, &fixed, options);
  ASSERT_TRUE(fixed_out.ok());

  EXPECT_LE(oracle_out.ValueOrDie().metrics.total_cold_starts,
            fixed_out.ValueOrDie().metrics.total_cold_starts);
}

}  // namespace
}  // namespace spes
