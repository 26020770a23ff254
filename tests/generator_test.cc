#include "trace/generator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <string>
#include <type_traits>
#include <vector>

#include "common/stats.h"
#include "core/series_features.h"
#include "trace/summary.h"

namespace spes {
namespace {

GeneratorConfig SmallConfig(int functions = 300, int days = 4,
                            uint64_t seed = 42) {
  GeneratorConfig config;
  config.num_functions = functions;
  config.days = days;
  config.seed = seed;
  return config;
}

TEST(GeneratorTest, ProducesRequestedShape) {
  const auto generated = GenerateTrace(SmallConfig());
  ASSERT_TRUE(generated.ok());
  const GeneratedTrace& g = generated.ValueOrDie();
  EXPECT_EQ(g.trace.num_functions(), 300u);
  EXPECT_EQ(g.trace.num_minutes(), 4 * kMinutesPerDay);
  EXPECT_EQ(g.truth.size(), 300u);
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  const auto a = GenerateTrace(SmallConfig(120, 3, 9));
  const auto b = GenerateTrace(SmallConfig(120, 3, 9));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const Trace& ta = a.ValueOrDie().trace;
  const Trace& tb = b.ValueOrDie().trace;
  ASSERT_EQ(ta.num_functions(), tb.num_functions());
  for (size_t i = 0; i < ta.num_functions(); ++i) {
    EXPECT_EQ(ta.function(i).meta.name, tb.function(i).meta.name);
    EXPECT_EQ(ta.function(i).counts, tb.function(i).counts);
  }
}

TEST(GeneratorTest, RareFractionForcesTailHeavyPopulation) {
  // rare_fraction = 0 must consume no random draws (the default mix is
  // pinned by the goldens); 0.9 must push most of the fleet onto the rare
  // archetypes, thinning fleet-wide arrivals accordingly.
  GeneratorConfig config = SmallConfig(400, 3, 7);
  const Trace dense = std::move(GenerateTrace(config).ValueOrDie().trace);
  config.rare_fraction = 0.9;
  const auto generated = GenerateTrace(config);
  ASSERT_TRUE(generated.ok());
  const GeneratedTrace& g = generated.ValueOrDie();

  size_t rare = 0;
  for (const GroundTruth& truth : g.truth) {
    if (truth.kind == PatternKind::kRarePossible ||
        truth.kind == PatternKind::kRareRandom) {
      ++rare;
    }
  }
  // 90% forced rare plus whatever the base mix contributes.
  EXPECT_GE(rare, g.truth.size() * 8 / 10);

  uint64_t dense_total = 0, rare_total = 0;
  for (size_t f = 0; f < dense.num_functions(); ++f) {
    dense_total += dense.function(f).TotalInvocations();
    rare_total += g.trace.function(f).TotalInvocations();
  }
  EXPECT_LT(rare_total, dense_total / 4);
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  const auto a = GenerateTrace(SmallConfig(120, 3, 1));
  const auto b = GenerateTrace(SmallConfig(120, 3, 2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  uint64_t total_a = 0, total_b = 0;
  for (const auto& f : a.ValueOrDie().trace.functions()) {
    total_a += f.TotalInvocations();
  }
  for (const auto& f : b.ValueOrDie().trace.functions()) {
    total_b += f.TotalInvocations();
  }
  EXPECT_NE(total_a, total_b);
}

TEST(GeneratorTest, RejectsBadConfig) {
  GeneratorConfig config = SmallConfig();
  config.num_functions = 0;
  EXPECT_FALSE(GenerateTrace(config).ok());
  config = SmallConfig();
  config.days = 1;
  EXPECT_FALSE(GenerateTrace(config).ok());
}

TEST(GeneratorTest, TriggerMixApproximatesFig5) {
  const auto generated = GenerateTrace(SmallConfig(4000, 2, 5));
  ASSERT_TRUE(generated.ok());
  const auto mix = ComputeTriggerMix(generated.ValueOrDie().trace);
  // Loose band: the mix is sampled per app, not per function.
  EXPECT_NEAR(mix[static_cast<size_t>(TriggerType::kHttp)], 0.41, 0.08);
  EXPECT_NEAR(mix[static_cast<size_t>(TriggerType::kTimer)], 0.27, 0.08);
  EXPECT_NEAR(mix[static_cast<size_t>(TriggerType::kQueue)], 0.14, 0.06);
}

TEST(GeneratorTest, UnseenFunctionsSilentBeforeFinalDays) {
  GeneratorConfig config = SmallConfig(2000, 5, 11);
  config.unseen_fraction = 0.05;
  const auto generated = GenerateTrace(config);
  ASSERT_TRUE(generated.ok());
  const GeneratedTrace& g = generated.ValueOrDie();
  const int unseen_begin =
      g.trace.num_minutes() - config.unseen_days * kMinutesPerDay;
  int64_t unseen_count = 0;
  for (size_t i = 0; i < g.truth.size(); ++i) {
    if (g.truth[i].kind != PatternKind::kUnseen) continue;
    ++unseen_count;
    const auto& counts = g.trace.function(i).counts;
    for (int t = 0; t < unseen_begin; ++t) {
      ASSERT_EQ(counts[static_cast<size_t>(t)], 0u)
          << "unseen function active before the unseen window";
    }
  }
  EXPECT_GT(unseen_count, 0);
}

TEST(GeneratorTest, ChainFollowersLagTheirDriver) {
  GeneratorConfig config = SmallConfig(2000, 3, 13);
  config.chain_app_fraction = 0.9;
  const auto generated = GenerateTrace(config);
  ASSERT_TRUE(generated.ok());
  const GeneratedTrace& g = generated.ValueOrDie();
  int64_t followers = 0;
  for (size_t i = 0; i < g.truth.size(); ++i) {
    const GroundTruth& truth = g.truth[i];
    if (truth.kind != PatternKind::kChainFollower) continue;
    ++followers;
    ASSERT_GE(truth.chain_driver, 0);
    ASSERT_GT(truth.chain_lag, 0);
    ASSERT_LE(truth.chain_lag, config.chain_max_lag);
    // Spot-check: most follower arrivals sit `lag` after a driver arrival.
    const auto& follower = g.trace.function(i).counts;
    const auto& driver =
        g.trace.function(static_cast<size_t>(truth.chain_driver)).counts;
    int64_t matched = 0, total = 0;
    for (size_t t = 0; t < follower.size(); ++t) {
      if (follower[t] == 0) continue;
      ++total;
      const int64_t s = static_cast<int64_t>(t) - truth.chain_lag;
      if (s >= 0 && driver[static_cast<size_t>(s)] > 0) ++matched;
    }
    if (total >= 10) {
      EXPECT_GT(static_cast<double>(matched) / static_cast<double>(total),
                0.6);
    }
  }
  EXPECT_GT(followers, 0);
}

TEST(GeneratorTest, HeavyTailedInvocationTotals) {
  const auto generated = GenerateTrace(SmallConfig(3000, 3, 17));
  ASSERT_TRUE(generated.ok());
  const InvocationHistogram hist =
      ComputeInvocationHistogram(generated.ValueOrDie().trace);
  // The distribution must span at least 4 decades (Fig. 3 shape).
  EXPECT_GE(hist.buckets.size(), 4u);
  // And the low decades must dominate the high ones.
  EXPECT_GT(hist.buckets[0] + hist.buckets[1],
            hist.buckets[hist.buckets.size() - 1]);
}

TEST(SynthAlwaysWarmTest, NearlyEverySlotActive) {
  Rng rng(1);
  std::vector<uint32_t> counts(5000, 0);
  SynthAlwaysWarm(&rng, &counts, 0);
  int64_t active = 0;
  for (uint32_t c : counts) active += c > 0 ? 1 : 0;
  EXPECT_GT(active, 4950);
}

TEST(SynthRegularTest, GapsMatchPeriod) {
  Rng rng(2);
  std::vector<uint32_t> counts(6000, 0);
  SynthRegular(&rng, 20, &counts, 0);
  const SeriesFeatures f = ExtractSeriesFeatures(counts);
  ASSERT_GT(f.wts.size(), 50u);
  // The dominant WT is period - 1.
  const auto modes = TopModes(f.wts, 1);
  EXPECT_EQ(modes[0].value, 19);
}

TEST(SynthDensePoissonTest, ShortGaps) {
  Rng rng(3);
  std::vector<uint32_t> counts(4000, 0);
  SynthDensePoisson(&rng, 2.0, &counts, 0);
  const SeriesFeatures f = ExtractSeriesFeatures(counts);
  EXPECT_LE(Percentile(f.wts, 90.0), 3.0);
}

TEST(SynthSuccessiveBurstTest, WavesSatisfyGammaFloors) {
  Rng rng(4);
  std::vector<uint32_t> counts(20000, 0);
  SynthSuccessiveBurst(&rng, 400.0, 4, 8, &counts, 0);
  const SeriesFeatures f = ExtractSeriesFeatures(counts);
  ASSERT_GE(f.ats.size(), 2u);
  for (size_t i = 0; i + 1 < f.ats.size(); ++i) {
    // Interior waves obey the floors (the last may be horizon-truncated).
    EXPECT_GE(f.ats[i], 4);
    EXPECT_GE(f.ans[i], 8);
  }
}

TEST(SynthRarePossibleTest, WtsHaveRepeatedModes) {
  Rng rng(5);
  std::vector<uint32_t> counts(30000, 0);
  SynthRarePossible(&rng, 600, &counts, 0);
  const SeriesFeatures f = ExtractSeriesFeatures(counts);
  ASSERT_GE(f.wts.size(), 4u);
  EXPECT_FALSE(RepeatedValues(f.wts).empty());
}

TEST(SynthRareRandomTest, BoundedEventCount) {
  Rng rng(6);
  std::vector<uint32_t> counts(10000, 0);
  SynthRareRandom(&rng, 3, &counts, 0);
  uint64_t total = 0;
  for (uint32_t c : counts) total += c;
  EXPECT_EQ(total, 3u);
}

/// FNV-1a (64-bit) over every byte the generator decides: each
/// function's name, app, owner, trigger and counts, then its ground truth.
class GeneratorDigest {
 public:
  void Add(const FunctionTrace& f, const GroundTruth& truth) {
    AddString(f.meta.name);
    AddString(f.meta.app);
    AddString(f.meta.owner);
    AddScalar(static_cast<uint8_t>(f.meta.trigger));
    AddScalar(static_cast<uint64_t>(f.counts.size()));
    for (uint32_t c : f.counts) AddScalar(c);
    AddScalar(static_cast<uint8_t>(truth.kind));
    AddScalar(static_cast<int32_t>(truth.period));
    AddScalar(static_cast<int32_t>(truth.shift_minute));
    AddScalar(truth.chain_driver);
    AddScalar(static_cast<int32_t>(truth.chain_lag));
  }
  uint64_t value() const { return hash_; }

 private:
  void AddByte(uint8_t byte) { hash_ = (hash_ ^ byte) * 1099511628211ULL; }
  void AddString(const std::string& s) {
    AddScalar(static_cast<uint64_t>(s.size()));
    for (unsigned char c : s) AddByte(c);
  }
  template <typename T>
  void AddScalar(T value) {
    // Little-endian byte order, independent of the host.
    using Bits = std::make_unsigned_t<T>;
    auto bits = static_cast<Bits>(value);
    for (size_t i = 0; i < sizeof(T); ++i) {
      AddByte(static_cast<uint8_t>(bits & 0xffu));
      bits = static_cast<Bits>(bits >> 8);
    }
  }

  uint64_t hash_ = 1469598103934665603ULL;
};

struct DigestCase {
  const char* label;
  GeneratorConfig config;
  uint64_t digest;
};

std::vector<DigestCase> DigestCases() {
  std::vector<DigestCase> cases;
  // The default mix at 800 functions over a week: dense, always-warm,
  // concept-shifted, unseen and chain-follower functions all appear.
  cases.push_back({"default mix, 800 x 7 days", SmallConfig(800, 7, 2024),
                   0xe29a2a826007a570ULL});
  GeneratorConfig rare = SmallConfig(600, 4, 5);
  rare.rare_fraction = 0.9;
  cases.push_back(
      {"rare_fraction 0.9, 600 x 4 days", rare, 0xd23e7f291e50648dULL});
  cases.push_back({"2-day horizon, 500 functions", SmallConfig(500, 2, 77),
                   0x6ad024ed28eb07bbULL});
  return cases;
}

// Pins the generator's bytes: every (seed, config) pair must keep yielding
// exactly the same fleet, whatever the synthesizers' internals, through
// both entry points.
TEST(GeneratorDigestTest, PinsEveryGeneratedByte) {
  for (const DigestCase& c : DigestCases()) {
    SCOPED_TRACE(c.label);
    const auto generated = GenerateTrace(c.config);
    ASSERT_TRUE(generated.ok());
    const GeneratedTrace& g = generated.ValueOrDie();
    GeneratorDigest digest;
    for (size_t i = 0; i < g.truth.size(); ++i) {
      digest.Add(g.trace.function(i), g.truth[i]);
    }
    EXPECT_EQ(digest.value(), c.digest)
        << std::hex << "0x" << digest.value();

    GeneratorDigest streamed;
    ASSERT_TRUE(GenerateTraceStreamed(
                    c.config,
                    [&streamed](FunctionTrace&& f, const GroundTruth& truth) {
                      streamed.Add(f, truth);
                      return Status::OK();
                    })
                    .ok());
    EXPECT_EQ(streamed.value(), digest.value());
  }
}

// The pinned default-mix fleet must exercise every synthesizer path the
// digest is meant to cover, or the pin proves less than it claims.
TEST(GeneratorDigestTest, DefaultMixCoversEveryPath) {
  const auto generated = GenerateTrace(DigestCases()[0].config);
  ASSERT_TRUE(generated.ok());
  int dense = 0, always_warm = 0, dense_shifted_mid_day = 0, unseen = 0,
      followers = 0;
  for (const GroundTruth& truth : generated.ValueOrDie().truth) {
    dense += truth.kind == PatternKind::kDensePoisson;
    always_warm += truth.kind == PatternKind::kAlwaysWarm;
    unseen += truth.kind == PatternKind::kUnseen;
    followers += truth.kind == PatternKind::kChainFollower;
    dense_shifted_mid_day += truth.kind == PatternKind::kDensePoisson &&
                             truth.shift_minute > 0 &&
                             truth.shift_minute % kMinutesPerDay != 0;
  }
  EXPECT_GT(dense, 0);
  EXPECT_GT(always_warm, 0);
  EXPECT_GT(dense_shifted_mid_day, 0);
  EXPECT_GT(unseen, 0);
  EXPECT_GT(followers, 0);
}

TEST(PatternKindTest, AllKindsHaveNames) {
  for (int k = 0; k < kNumPatternKinds; ++k) {
    EXPECT_STRNE(PatternKindToString(static_cast<PatternKind>(k)), "?");
  }
}

}  // namespace
}  // namespace spes
