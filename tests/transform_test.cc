// Trace-transform registry and operators: parse/format round trips (specs
// and chains), registry error paths (unknown transform, unknown/ill-typed/
// out-of-domain parameters), per-operator semantics on a hand-built fleet,
// seeded reproducibility of the stochastic operators, TraceCache variants
// (one realization per source, one variant per chain), and determinism of
// a transformed SuiteRunner sweep across thread counts.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "obs/recorder.h"
#include "obs/run_log.h"
#include "runner/suite_runner.h"
#include "sim/scenario.h"
#include "trace/generator.h"
#include "trace/trace.h"
#include "trace/transform.h"

namespace spes {
namespace {

FunctionTrace Fn(const std::string& name, TriggerType trigger,
                 std::vector<uint32_t> counts) {
  FunctionTrace function;
  function.meta.owner = "owner_" + name;
  function.meta.app = "app_" + name;
  function.meta.name = name;
  function.meta.trigger = trigger;
  function.counts = std::move(counts);
  return function;
}

/// Four functions over 10 minutes: two http (one sparse, one always-busy),
/// a timer, and a never-invoked queue function.
Trace TinyTrace() {
  Trace trace(10);
  trace.Add(Fn("a", TriggerType::kHttp, {1, 0, 2, 0, 0, 0, 0, 0, 0, 1}))
      .CheckOK();
  trace.Add(Fn("b", TriggerType::kTimer, {0, 1, 0, 1, 0, 1, 0, 1, 0, 1}))
      .CheckOK();
  trace.Add(Fn("c", TriggerType::kQueue, std::vector<uint32_t>(10, 0)))
      .CheckOK();
  trace.Add(Fn("d", TriggerType::kHttp, std::vector<uint32_t>(10, 5)))
      .CheckOK();
  return trace;
}

uint64_t FleetTotal(const Trace& trace) {
  uint64_t total = 0;
  for (const FunctionTrace& f : trace.functions()) {
    total += f.TotalInvocations();
  }
  return total;
}

Trace Apply(const Trace& trace, const std::string& chain_text) {
  const std::vector<TransformSpec> chain =
      ParseTransformChain(chain_text).ValueOrDie();
  return ApplyTransforms(trace, chain).ValueOrDie();
}

TEST(TransformRegistryTest, GlobalKnowsAllBuiltinTransforms) {
  const TransformRegistry& registry = TransformRegistry::Global();
  for (const char* name :
       {"time_scale", "load_scale", "slice", "filter_trigger", "merge",
        "inject_burst", "inject_drift", "thin", "top_k"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
    ASSERT_NE(registry.Find(name), nullptr) << name;
    EXPECT_EQ(registry.Find(name)->canonical_name, name);
    EXPECT_FALSE(registry.Find(name)->summary.empty()) << name;
  }
  EXPECT_GE(registry.Names().size(), 9u);
}

TEST(TransformSpecTest, ParseFormatRoundTrip) {
  const TransformSpec spec =
      ParseTransformSpec("thin{keep_prob=0.25,seed=7}").ValueOrDie();
  EXPECT_EQ(spec.name, "thin");
  EXPECT_EQ(spec.params.at("keep_prob"), ParamValue(0.25));
  EXPECT_EQ(spec.params.at("seed"), ParamValue(7));

  const std::string text = FormatNamedSpec(spec);
  const TransformSpec reparsed = ParseTransformSpec(text).ValueOrDie();
  EXPECT_EQ(reparsed.name, spec.name);
  EXPECT_EQ(reparsed.params, spec.params);

  // Errors use the "transform" noun, not "policy".
  const auto bad = ParseTransformSpec("thin{keep_prob=0.5");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("transform spec"), std::string::npos);
}

TEST(TransformChainTest, ParseFormatRoundTrip) {
  const std::vector<TransformSpec> chain =
      ParseTransformChain("load_scale{factor=2.0} | thin{seed=3}")
          .ValueOrDie();
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0].name, "load_scale");
  EXPECT_EQ(chain[1].name, "thin");

  const std::string text = FormatTransformChain(chain);
  const std::vector<TransformSpec> reparsed =
      ParseTransformChain(text).ValueOrDie();
  ASSERT_EQ(reparsed.size(), 2u);
  EXPECT_EQ(reparsed[0].params, chain[0].params);
  EXPECT_EQ(reparsed[1].params, chain[1].params);

  EXPECT_TRUE(ParseTransformChain("").ValueOrDie().empty());
  EXPECT_TRUE(ParseTransformChain("  ").ValueOrDie().empty());
  EXPECT_FALSE(ParseTransformChain("thin||merge").ok());
  EXPECT_FALSE(ParseTransformChain("|thin").ok());
}

TEST(TransformRegistryTest, UnknownTransformIsNotFound) {
  const auto result = TransformRegistry::Global().Create({"no_such", {}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("no_such"), std::string::npos);
  // The error lists the registered alternatives.
  EXPECT_NE(result.status().message().find("load_scale"), std::string::npos);
}

TEST(TransformRegistryTest, UnknownParameterNamesTheField) {
  const auto result =
      TransformRegistry::Global().Create({"thin", {{"keepprob", 0.5}}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("keepprob"), std::string::npos);
  // The error lists the accepted parameter names.
  EXPECT_NE(result.status().message().find("keep_prob"), std::string::npos);
}

TEST(TransformRegistryTest, IllTypedParameterIsInvalidArgument) {
  const auto string_for_double =
      TransformRegistry::Global().Create({"thin", {{"keep_prob", "half"}}});
  ASSERT_FALSE(string_for_double.ok());
  EXPECT_EQ(string_for_double.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(string_for_double.status().message().find("expects double"),
            std::string::npos);

  const auto int_for_string =
      TransformRegistry::Global().Create({"top_k", {{"by", 7}}});
  ASSERT_FALSE(int_for_string.ok());
  EXPECT_EQ(int_for_string.status().code(), StatusCode::kInvalidArgument);
}

TEST(TransformRegistryTest, OutOfDomainValuesNameTheField) {
  const struct {
    const char* spec;
    const char* mentions;
  } kCases[] = {
      {"load_scale{factor=0.0}", "factor"},
      {"time_scale{factor=-1.0}", "factor"},
      {"thin{keep_prob=1.5}", "keep_prob"},
      {"merge{copies=0}", "copies"},
      {"merge{copies=65}", "copies"},
      {"top_k{k=0}", "k"},
      {"top_k{by=bogus}", "by"},
      {"filter_trigger{types=bogus}", "bogus"},
      {"inject_burst{amplitude=0}", "amplitude"},
      {"inject_burst{fraction=2.0}", "fraction"},
      {"inject_drift{at=-1}", "at"},
      {"slice{start_minute=-1}", "start_minute"},
  };
  for (const auto& test_case : kCases) {
    const auto result =
        TransformRegistry::Global().CreateFromString(test_case.spec);
    ASSERT_FALSE(result.ok()) << test_case.spec;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << test_case.spec;
    EXPECT_NE(result.status().message().find(test_case.mentions),
              std::string::npos)
        << test_case.spec;
  }
}

TEST(TimeScaleTest, CompressionMergesMinutesAndConservesTotals) {
  const Trace trace = TinyTrace();
  const Trace compressed = Apply(trace, "time_scale{factor=2.0}");
  EXPECT_EQ(compressed.num_minutes(), 5);
  EXPECT_EQ(FleetTotal(compressed), FleetTotal(trace));
  // d was 5 per minute; pairs of source minutes land in one slot.
  const int64_t d = compressed.FindByName("d");
  ASSERT_GE(d, 0);
  EXPECT_EQ(compressed.function(d).counts,
            (std::vector<uint32_t>{10, 10, 10, 10, 10}));
}

TEST(TimeScaleTest, StretchingSpreadsMinutesAndConservesTotals) {
  const Trace trace = TinyTrace();
  const Trace stretched = Apply(trace, "time_scale{factor=0.5}");
  EXPECT_EQ(stretched.num_minutes(), 20);
  EXPECT_EQ(FleetTotal(stretched), FleetTotal(trace));
  const int64_t d = stretched.FindByName("d");
  ASSERT_GE(d, 0);
  // Source minutes map to every other destination slot.
  EXPECT_EQ(stretched.function(d).counts[0], 5u);
  EXPECT_EQ(stretched.function(d).counts[1], 0u);
  EXPECT_EQ(stretched.function(d).counts[2], 5u);
}

TEST(LoadScaleTest, ScalesCountsAndNeverErasesActiveMinutes) {
  const Trace trace = TinyTrace();
  const Trace doubled = Apply(trace, "load_scale{factor=2.0}");
  EXPECT_EQ(FleetTotal(doubled), 2 * FleetTotal(trace));

  // Scaling far down still keeps every active minute at >= 1.
  const Trace floored = Apply(trace, "load_scale{factor=0.01}");
  for (size_t i = 0; i < trace.num_functions(); ++i) {
    EXPECT_EQ(floored.function(i).InvokedMinutes(),
              trace.function(i).InvokedMinutes());
  }
}

TEST(SliceTest, RestrictsTheHorizon) {
  const Trace trace = TinyTrace();
  const Trace window = Apply(trace, "slice{start_minute=2,end_minute=6}");
  EXPECT_EQ(window.num_minutes(), 4);
  const int64_t a = window.FindByName("a");
  ASSERT_GE(a, 0);
  EXPECT_EQ(window.function(a).counts, (std::vector<uint32_t>{2, 0, 0, 0}));

  // end_minute=0 means the trace horizon.
  EXPECT_EQ(Apply(trace, "slice{start_minute=5}").num_minutes(), 5);
}

TEST(SliceTest, ApplyTimeWindowErrorsNameTheFieldAndHorizon) {
  const Trace trace = TinyTrace();
  const auto past_end =
      ApplyTransforms(trace, {TransformSpec{"slice", {{"end_minute", 99}}}});
  ASSERT_FALSE(past_end.ok());
  EXPECT_EQ(past_end.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(past_end.status().message().find("end_minute"),
            std::string::npos);
  EXPECT_NE(past_end.status().message().find("10"), std::string::npos);

  const auto inverted = ApplyTransforms(
      trace,
      {TransformSpec{"slice", {{"start_minute", 6}, {"end_minute", 6}}}});
  ASSERT_FALSE(inverted.ok());
  EXPECT_NE(inverted.status().message().find("start_minute"),
            std::string::npos);
}

TEST(FilterTriggerTest, KeepsOnlyListedTypes) {
  const Trace trace = TinyTrace();
  const Trace http = Apply(trace, "filter_trigger{types=http}");
  EXPECT_EQ(http.num_functions(), 2u);
  EXPECT_GE(http.FindByName("a"), 0);
  EXPECT_GE(http.FindByName("d"), 0);

  const Trace mixed = Apply(trace, "filter_trigger{types=http+timer}");
  EXPECT_EQ(mixed.num_functions(), 3u);
  EXPECT_EQ(mixed.FindByName("c"), -1);
}

TEST(MergeTest, ClonesTheFleetUnderFreshNames) {
  const Trace trace = TinyTrace();
  const Trace merged = Apply(trace, "merge{copies=3}");
  EXPECT_EQ(merged.num_functions(), 3 * trace.num_functions());
  EXPECT_EQ(FleetTotal(merged), 3 * FleetTotal(trace));
  EXPECT_GE(merged.FindByName("a"), 0);
  EXPECT_GE(merged.FindByName("a#1"), 0);
  EXPECT_GE(merged.FindByName("a#2"), 0);
  // Copies get distinct apps/owners too, so grouping stays meaningful.
  EXPECT_EQ(merged.CountApps(), 3 * trace.CountApps());
}

TEST(InjectBurstTest, AddsLoadOnlyInsideTheWindow) {
  const Trace trace = TinyTrace();
  const Trace burst = Apply(
      trace, "inject_burst{at=4,width=3,amplitude=7,fraction=1.0}");
  EXPECT_EQ(burst.num_minutes(), trace.num_minutes());
  for (size_t i = 0; i < trace.num_functions(); ++i) {
    for (int t = 0; t < trace.num_minutes(); ++t) {
      const uint32_t expected = trace.function(i).counts[t] +
                                (t >= 4 && t < 7 ? 7u : 0u);
      EXPECT_EQ(burst.function(i).counts[t], expected) << i << "@" << t;
    }
  }
}

TEST(InjectBurstTest, BurstBeyondHorizonNamesTheField) {
  const auto result = ApplyTransforms(
      TinyTrace(), {TransformSpec{"inject_burst", {{"at", 10}}}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("'at'"), std::string::npos);
  // Chain context names the failing step.
  EXPECT_NE(result.status().message().find("inject_burst"),
            std::string::npos);
}

TEST(InjectDriftTest, SwapsBehaviourTailsConservingFleetTotals) {
  const Trace trace = TinyTrace();
  const Trace drifted =
      Apply(trace, "inject_drift{at=5,fraction=1.0}");
  EXPECT_EQ(FleetTotal(drifted), FleetTotal(trace));
  // Nothing changes before the drift point...
  for (size_t i = 0; i < trace.num_functions(); ++i) {
    for (int t = 0; t < 5; ++t) {
      EXPECT_EQ(drifted.function(i).counts[t], trace.function(i).counts[t]);
    }
  }
  // ... and at least one function behaves differently after it.
  bool changed = false;
  for (size_t i = 0; i < trace.num_functions(); ++i) {
    if (drifted.function(i).counts != trace.function(i).counts) {
      changed = true;
    }
  }
  EXPECT_TRUE(changed);
}

TEST(ThinTest, SeededThinningIsReproducible) {
  GeneratorConfig config;
  config.num_functions = 80;
  config.days = 2;
  config.seed = 11;
  const Trace trace = GenerateTrace(config).ValueOrDie().trace;

  const Trace once = Apply(trace, "thin{keep_prob=0.5,seed=9}");
  const Trace twice = Apply(trace, "thin{keep_prob=0.5,seed=9}");
  ASSERT_EQ(once.num_functions(), twice.num_functions());
  for (size_t i = 0; i < once.num_functions(); ++i) {
    EXPECT_EQ(once.function(i).counts, twice.function(i).counts) << i;
  }

  // A different seed draws a different subsample...
  const Trace other = Apply(trace, "thin{keep_prob=0.5,seed=10}");
  bool differs = false;
  for (size_t i = 0; i < once.num_functions(); ++i) {
    if (other.function(i).counts != once.function(i).counts) differs = true;
  }
  EXPECT_TRUE(differs);
  // ... every minute is a subsample of the original ...
  for (size_t i = 0; i < trace.num_functions(); ++i) {
    for (int t = 0; t < trace.num_minutes(); ++t) {
      EXPECT_LE(once.function(i).counts[t], trace.function(i).counts[t]);
    }
  }
  // ... and the degenerate probabilities are exact.
  EXPECT_EQ(FleetTotal(Apply(trace, "thin{keep_prob=1.0}")),
            FleetTotal(trace));
  EXPECT_EQ(FleetTotal(Apply(trace, "thin{keep_prob=0.0}")), 0u);
}

TEST(TopKTest, KeepsTheBusiestFunctionsInFleetOrder) {
  const Trace trace = TinyTrace();  // totals: a=4, b=5, c=0, d=50
  const Trace top2 = Apply(trace, "top_k{k=2}");
  ASSERT_EQ(top2.num_functions(), 2u);
  EXPECT_EQ(top2.function(0).meta.name, "b");  // original order preserved
  EXPECT_EQ(top2.function(1).meta.name, "d");

  const Trace by_peak = Apply(trace, "top_k{k=2,by=peak}");
  ASSERT_EQ(by_peak.num_functions(), 2u);  // peaks: a=2, b=1, c=0, d=5
  EXPECT_EQ(by_peak.function(0).meta.name, "a");
  EXPECT_EQ(by_peak.function(1).meta.name, "d");

  // k beyond the fleet keeps everything.
  EXPECT_EQ(Apply(trace, "top_k{k=100}").num_functions(),
            trace.num_functions());
}

TEST(ApplyTransformsTest, ChainErrorsNameTheStep) {
  const Trace trace = TinyTrace();
  std::vector<TransformSpec> chain;
  chain.push_back({"load_scale", {{"factor", 2.0}}});
  chain.push_back({"no_such_transform", {}});
  const auto result = ApplyTransforms(trace, chain);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("step 2"), std::string::npos);
  EXPECT_NE(result.status().message().find("no_such_transform"),
            std::string::npos);
}

TEST(ApplyTransformsTest, ChainAppliesInOrder) {
  const Trace trace = TinyTrace();
  // slice-then-scale == scale-then-slice for these operators, but
  // slice{end=5} after time_scale{2} reads a *different* window than
  // before it — pin the ordering explicitly.
  const Trace compressed_then_sliced =
      Apply(trace, "time_scale{factor=2.0} | slice{end_minute=2}");
  EXPECT_EQ(compressed_then_sliced.num_minutes(), 2);
  const int64_t d = compressed_then_sliced.FindByName("d");
  ASSERT_GE(d, 0);
  EXPECT_EQ(compressed_then_sliced.function(d).counts,
            (std::vector<uint32_t>{10, 10}));
}

TEST(TraceSpecTest, KeyCoversSourceAndChain) {
  GeneratorConfig config;
  config.num_functions = 50;
  config.days = 2;
  config.seed = 3;

  TraceSpec plain = TraceSpec::FromGenerator(config);
  TraceSpec stressed = TraceSpec::FromGenerator(config);
  stressed.Then({"load_scale", {{"factor", 2.0}}});

  EXPECT_NE(TraceSpecKey(plain), TraceSpecKey(stressed));
  EXPECT_EQ(TraceSpecKey(plain), TraceSpecKey(TraceSpec::FromGenerator(config)));
  EXPECT_NE(TraceSpecKey(plain).find("seed=3"), std::string::npos);
  EXPECT_NE(TraceSpecKey(stressed).find("load_scale"), std::string::npos);

  GeneratorConfig other = config;
  other.seed = 4;
  EXPECT_NE(TraceSpecKey(plain),
            TraceSpecKey(TraceSpec::FromGenerator(other)));
}

TEST(TraceCacheTest, SharesOneRealizationPerKey) {
  GeneratorConfig config;
  config.num_functions = 50;
  config.days = 2;
  config.seed = 3;

  TraceCache cache;
  const TraceSpec plain = TraceSpec::FromGenerator(config);
  TraceSpec stressed = TraceSpec::FromGenerator(config);
  stressed.Then({"top_k", {{"k", 10}}});

  const auto first = cache.Get(plain).ValueOrDie();
  const auto again = cache.Get(plain).ValueOrDie();
  EXPECT_EQ(first.get(), again.get());  // same realized trace, not a copy
  EXPECT_EQ(cache.size(), 1u);

  const auto transformed = cache.Get(stressed).ValueOrDie();
  EXPECT_NE(first.get(), transformed.get());
  EXPECT_EQ(transformed->num_functions(), 10u);
  EXPECT_EQ(cache.size(), 2u);

  // Nothing to realize for a provided source.
  EXPECT_EQ(cache.Get(TraceSpec{}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ScenarioSessionTest, CachesTransformedVariantsPerChain) {
  GeneratorConfig config;
  config.num_functions = 60;
  config.days = 2;
  config.seed = 5;
  TraceCache cache;
  const TraceSpec source = TraceSpec::FromGenerator(config);
  const std::shared_ptr<const Trace> base = cache.Get(source).ValueOrDie();

  // Every distinct chain is one cached variant: a repeat Get() hands back
  // the same trace, and each chain's variant is its own.
  std::vector<const Trace*> variants;
  for (const char* text : {"load_scale{factor=3.0}", "top_k{k=10}"}) {
    TraceSpec stressed = source;
    stressed.transforms = ParseTransformChain(text).ValueOrDie();
    const auto variant = cache.Get(stressed).ValueOrDie();
    const auto cached = cache.Get(stressed).ValueOrDie();
    EXPECT_EQ(variant.get(), cached.get()) << text;
    EXPECT_NE(variant.get(), base.get()) << text;
    variants.push_back(variant.get());
  }
  EXPECT_NE(variants[0], variants[1]);
  EXPECT_EQ(cache.Get(source).ValueOrDie().get(), base.get());

  // RunScenario applies the spec's transforms on top of the trace.
  const std::vector<TransformSpec> chain = {{"load_scale", {{"factor", 3.0}}}};
  ScenarioSpec spec;
  spec.policy = {"fixed_keepalive", {}};
  spec.options.train_minutes = kMinutesPerDay;
  const ScenarioOutcome unstressed = RunScenario(*base, spec).ValueOrDie();
  spec.trace.transforms = chain;
  const ScenarioOutcome stressed = RunScenario(*base, spec).ValueOrDie();
  EXPECT_GT(stressed.outcome.metrics.total_invocations,
            unstressed.outcome.metrics.total_invocations);
}

/// True when two traces hold the same functions with the same counts.
bool SameTrace(const Trace& a, const Trace& b) {
  if (a.num_functions() != b.num_functions()) return false;
  for (size_t f = 0; f < a.num_functions(); ++f) {
    if (a.function(f).meta.name != b.function(f).meta.name ||
        a.function(f).counts != b.function(f).counts) {
      return false;
    }
  }
  return true;
}

TEST(TraceCacheTest, ChainsOverOneSourceRealizeTheSourceOnce) {
  GeneratorConfig config;
  config.num_functions = 50;
  config.days = 2;
  config.seed = 3;
  const TraceSpec source = TraceSpec::FromGenerator(config);
  const Trace direct = RealizeTrace(source).ValueOrDie();

  StringLogSink sink;
  RunRecorder recorder(&sink);
  TraceCache cache;
  cache.set_recorder(&recorder);
  for (const char* text : {"load_scale{factor=2.0}", "top_k{k=10}",
                           "load_scale{factor=2.0} | top_k{k=10}"}) {
    TraceSpec variant = source;
    variant.transforms = ParseTransformChain(text).ValueOrDie();
    const auto cached = cache.Get(variant).ValueOrDie();
    EXPECT_TRUE(SameTrace(
        *cached, ApplyTransforms(direct, variant.transforms).ValueOrDie()))
        << text;
  }
  recorder.Finish();

  // Three variants plus the base they share: the source is realized once,
  // and the second and third chains hit its cached base.
  EXPECT_EQ(cache.size(), 4u);
  const ParsedRunLog log = ParseRunLog(sink.contents()).ValueOrDie();
  size_t realize_spans = 0;
  for (const SpanRecord& span : log.spans) {
    if (span.name == "realize") ++realize_spans;
  }
  EXPECT_EQ(realize_spans, 1u);
  EXPECT_EQ(log.cache.misses, 4u);
  EXPECT_EQ(log.cache.hits, 2u);
}

TEST(TraceCacheTest, SeededProvidedBaseServesChainedSpecs) {
  GeneratorConfig config;
  config.num_functions = 50;
  config.days = 2;
  config.seed = 3;
  const Trace trace = GenerateTrace(config).ValueOrDie().trace;
  const std::vector<TransformSpec> doubled =
      ParseTransformChain("load_scale{factor=2.0}").ValueOrDie();
  const std::vector<TransformSpec> top =
      ParseTransformChain("top_k{k=10}").ValueOrDie();

  std::vector<ScenarioSpec> specs(5);
  for (ScenarioSpec& spec : specs) spec.policy = {"fixed_keepalive", {}};
  specs[1].trace.transforms = doubled;
  specs[2].trace.transforms = doubled;
  // A realizable source is ignored too: the supplied trace stands in.
  specs[3].trace = TraceSpec::FromGenerator(GeneratorConfig{});
  specs[3].trace.transforms = top;
  specs[4].policy.name.clear();  // invalid: fails only its own slot

  const auto workloads = scenario_internal::ResolveWorkloads(&trace, specs);
  ASSERT_EQ(workloads.size(), 5u);
  EXPECT_EQ(workloads[0].ValueOrDie().get(), &trace);
  EXPECT_EQ(workloads[1].ValueOrDie().get(), workloads[2].ValueOrDie().get());
  EXPECT_TRUE(SameTrace(*workloads[1].ValueOrDie(),
                        ApplyTransforms(trace, doubled).ValueOrDie()));
  EXPECT_TRUE(SameTrace(*workloads[3].ValueOrDie(),
                        ApplyTransforms(trace, top).ValueOrDie()));
  EXPECT_EQ(workloads[4].status().code(), StatusCode::kInvalidArgument);
}

TEST(RealizeTraceTest, AppliesTheTransformChain) {
  GeneratorConfig config;
  config.num_functions = 40;
  config.days = 2;
  config.seed = 6;
  TraceSpec spec = TraceSpec::FromGenerator(config);
  spec.Then({"top_k", {{"k", 10}}}).Then({"merge", {{"copies", 2}}});
  const Trace trace = RealizeTrace(spec).ValueOrDie();
  EXPECT_EQ(trace.num_functions(), 20u);

  // A failing chain propagates the precise step error.
  TraceSpec bad = TraceSpec::FromGenerator(config);
  bad.Then({"slice", {{"end_minute", 10 * kMinutesPerDay}}});
  const auto result = RealizeTrace(bad);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("end_minute"), std::string::npos);
}

TEST(SuiteRunnerTransformSweepTest, TraceLessBatchIsThreadCountInvariant) {
  GeneratorConfig config;
  config.num_functions = 120;
  config.days = 3;
  config.seed = 23;

  SimOptions options;
  options.train_minutes = kMinutesPerDay;

  // One policy across four workload variants — the stressed-figure sweep
  // as pure data: no trace is passed, each spec realizes its own.
  const char* kChains[] = {
      "",
      "load_scale{factor=2.0}",
      "load_scale{factor=2.0} | inject_burst{at=2000,width=20,amplitude=30,"
      "fraction=0.3}",
      "thin{keep_prob=0.5,seed=4}",
  };
  std::vector<ScenarioSpec> specs;
  for (const char* chain : kChains) {
    ScenarioSpec spec;
    spec.label = chain[0] == '\0' ? "baseline" : chain;
    spec.trace = TraceSpec::FromGenerator(config);
    spec.trace.transforms = ParseTransformChain(chain).ValueOrDie();
    spec.policy = {"spes", {}};
    spec.options = options;
    specs.push_back(std::move(spec));
  }
  // An invalid chain fails only its own slot.
  ScenarioSpec broken;
  broken.label = "broken";
  broken.trace = TraceSpec::FromGenerator(config);
  broken.trace.transforms = {{"no_such_transform", {}}};
  broken.policy = {"spes", {}};
  broken.options = options;
  specs.push_back(std::move(broken));

  SuiteRunnerOptions serial_options;
  serial_options.num_threads = 1;
  const std::vector<JobResult> serial =
      SuiteRunner(serial_options).Run(specs);
  SuiteRunnerOptions parallel_options;
  parallel_options.num_threads = 4;
  const std::vector<JobResult> parallel =
      SuiteRunner(parallel_options).Run(specs);

  ASSERT_EQ(serial.size(), 5u);
  ASSERT_EQ(parallel.size(), 5u);
  for (size_t i = 0; i + 1 < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].status.ok()) << serial[i].status.ToString();
    ASSERT_TRUE(parallel[i].status.ok());
    // Bitwise-identical runs at any thread count.
    EXPECT_EQ(serial[i].outcome.memory_series,
              parallel[i].outcome.memory_series)
        << specs[i].label;
    EXPECT_EQ(serial[i].outcome.metrics.total_cold_starts,
              parallel[i].outcome.metrics.total_cold_starts);
  }
  EXPECT_EQ(serial[4].status.code(), StatusCode::kNotFound);
  EXPECT_NE(serial[4].status.message().find("no_such_transform"),
            std::string::npos);

  // The stressed variants actually change the workload.
  EXPECT_GT(serial[1].outcome.metrics.total_invocations,
            serial[0].outcome.metrics.total_invocations);
  EXPECT_LT(serial[3].outcome.metrics.total_invocations,
            serial[0].outcome.metrics.total_invocations);
}

}  // namespace
}  // namespace spes
