// Policy registry error paths (unknown policy, unknown / ill-typed /
// out-of-domain parameters), spec-string parsing, and the canonical-name
// round trip: every registered spec builds a policy whose name() matches
// the expected display name. Registration errors and the checks every
// registry shares live in registry_test.cc.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/policy_registry.h"

namespace spes {
namespace {

TEST(ParamValueTest, LiteralsPickTheRightAlternative) {
  EXPECT_EQ(ParamValue(true).type(), ParamType::kBool);
  EXPECT_EQ(ParamValue(10).type(), ParamType::kInt);
  EXPECT_EQ(ParamValue(0.5).type(), ParamType::kDouble);
  // A string literal must become a string, not decay to bool.
  EXPECT_EQ(ParamValue("function").type(), ParamType::kString);
  EXPECT_EQ(ParamValue("function").AsString(), "function");
}

TEST(ParsePolicySpecTest, BareNameAndBracedParams) {
  const PolicySpec bare = ParsePolicySpec("oracle").ValueOrDie();
  EXPECT_EQ(bare.name, "oracle");
  EXPECT_TRUE(bare.params.empty());

  const PolicySpec spec =
      ParsePolicySpec("fixed_keepalive{minutes=10}").ValueOrDie();
  EXPECT_EQ(spec.name, "fixed_keepalive");
  ASSERT_EQ(spec.params.size(), 1u);
  EXPECT_EQ(spec.params.at("minutes"), ParamValue(10));
}

TEST(ParsePolicySpecTest, ValueGrammarCoversAllTypes) {
  const PolicySpec spec =
      ParsePolicySpec(
          "spes{theta_prewarm=3, alpha=0.25, enable_adjusting=false}")
          .ValueOrDie();
  EXPECT_EQ(spec.params.at("theta_prewarm"), ParamValue(3));
  EXPECT_EQ(spec.params.at("alpha"), ParamValue(0.25));
  EXPECT_EQ(spec.params.at("enable_adjusting"), ParamValue(false));

  const PolicySpec strings =
      ParsePolicySpec("hybrid_histogram{granularity=application}")
          .ValueOrDie();
  EXPECT_EQ(strings.params.at("granularity"), ParamValue("application"));
}

TEST(ParsePolicySpecTest, MalformedSpecsAreInvalidArgument) {
  for (const char* bad :
       {"", "fixed_keepalive{minutes=10", "fixed_keepalive{minutes}",
        "fixed_keepalive{minutes=}", "fixed_keepalive{minutes=1,minutes=2}",
        "fixed keepalive", "name{bad key=1}", "spes{theta_prewarm=2}}",
        "spes{{theta_prewarm=2}"}) {
    const auto result = ParsePolicySpec(bad);
    EXPECT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(FormatNamedSpecTest, RoundTripsThroughParse) {
  PolicySpec spec;
  spec.name = "spes";
  spec.params["theta_prewarm"] = ParamValue(3);
  spec.params["alpha"] = ParamValue(0.1);
  spec.params["enable_correlated"] = ParamValue(false);
  const std::string text = FormatNamedSpec(spec);
  const PolicySpec reparsed = ParsePolicySpec(text).ValueOrDie();
  EXPECT_EQ(reparsed.name, spec.name);
  EXPECT_EQ(reparsed.params, spec.params);

  // Doubles keep their double-ness even when integral-valued.
  EXPECT_EQ(FormatParamValue(ParamValue(5.0)), "5.0");
  EXPECT_EQ(ParsePolicySpec("p{x=5.0}").ValueOrDie().params.at("x").type(),
            ParamType::kDouble);
}

TEST(PolicyRegistryTest, GlobalKnowsAllBuiltinPolicies) {
  // Each with its parameter count: a setting with one value in use is a
  // named constant, so of the baselines' published settings only
  // hybrid_histogram's granularity (HF vs HA) is a parameter.
  const PolicyRegistry& registry = PolicyRegistry::Global();
  const struct {
    const char* name;
    size_t params;
  } kPolicies[] = {
      {"spes", 10},   {"defuse", 0},           {"faascache", 1},
      {"oracle", 0},  {"hybrid_histogram", 1}, {"fixed_keepalive", 1},
  };
  for (const auto& policy : kPolicies) {
    EXPECT_TRUE(registry.Contains(policy.name)) << policy.name;
    ASSERT_NE(registry.Find(policy.name), nullptr) << policy.name;
    EXPECT_EQ(registry.Find(policy.name)->canonical_name, policy.name);
    EXPECT_EQ(registry.Find(policy.name)->params.size(), policy.params)
        << policy.name;
  }
  EXPECT_EQ(registry.Names().size(), 6u);
  EXPECT_EQ(registry.Find("hybrid_histogram")->params.at(0).name,
            "granularity");
}

TEST(PolicyRegistryTest, SpecRoundTripsToCanonicalDisplayName) {
  // spec -> policy -> name(): the registry entry must build the policy it
  // canonically names.
  const struct {
    const char* spec;
    const char* display_name;
  } kCases[] = {
      {"spes", "SPES"},
      {"defuse", "Defuse"},
      {"faascache", "FaasCache"},
      {"fixed_keepalive", "Fixed-10min"},
      {"fixed_keepalive{minutes=25}", "Fixed-25min"},
      {"hybrid_histogram", "Hybrid-Function"},
      {"hybrid_histogram{granularity=application}", "Hybrid-Application"},
      {"oracle", "Oracle"},
  };
  for (const auto& test_case : kCases) {
    const auto policy =
        PolicyRegistry::Global().CreateFromString(test_case.spec);
    ASSERT_TRUE(policy.ok()) << test_case.spec << ": "
                             << policy.status().ToString();
    EXPECT_EQ(policy.ValueOrDie()->name(), test_case.display_name)
        << test_case.spec;
  }
}

TEST(PolicyRegistryTest, UnknownPolicyIsNotFound) {
  const auto result = PolicyRegistry::Global().Create({"no_such_policy", {}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("no_such_policy"),
            std::string::npos);
  // The error lists the registered alternatives.
  EXPECT_NE(result.status().message().find("spes"), std::string::npos);
}

TEST(PolicyRegistryTest, EmptyPolicyNameIsInvalidArgument) {
  const auto result = PolicyRegistry::Global().Create({"", {}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PolicyRegistryTest, UnknownParameterIsInvalidArgument) {
  const auto result = PolicyRegistry::Global().Create(
      {"fixed_keepalive", {{"minuets", 10}}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("minuets"), std::string::npos);
  // The error lists the accepted parameter names.
  EXPECT_NE(result.status().message().find("minutes"), std::string::npos);

  // The baselines' published settings are constants, not parameters.
  const struct {
    const char* spec;
    const char* mentions;
  } kRemoved[] = {
      {"hybrid_histogram{range_minutes=9999999999}", "range_minutes"},
      {"defuse{min_confidence=80}", "min_confidence"},
      {"hybrid_histogram{tail_percentile=101}", "tail_percentile"},
      {"hybrid_histogram{margin_fraction=-0.1}", "margin_fraction"},
  };
  for (const auto& test_case : kRemoved) {
    const auto removed =
        PolicyRegistry::Global().CreateFromString(test_case.spec);
    ASSERT_FALSE(removed.ok()) << test_case.spec;
    EXPECT_EQ(removed.status().code(), StatusCode::kInvalidArgument)
        << test_case.spec;
    EXPECT_NE(removed.status().message().find(test_case.mentions),
              std::string::npos)
        << test_case.spec;
  }
}

TEST(PolicyRegistryTest, IllTypedParameterIsInvalidArgument) {
  const auto string_for_int = PolicyRegistry::Global().Create(
      {"fixed_keepalive", {{"minutes", "ten"}}});
  ASSERT_FALSE(string_for_int.ok());
  EXPECT_EQ(string_for_int.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(string_for_int.status().message().find("expects int"),
            std::string::npos);

  const auto int_for_bool = PolicyRegistry::Global().Create(
      {"spes", {{"enable_correlated", 3}}});
  ASSERT_FALSE(int_for_bool.ok());
  EXPECT_EQ(int_for_bool.status().code(), StatusCode::kInvalidArgument);

  const auto bool_for_string = PolicyRegistry::Global().Create(
      {"hybrid_histogram", {{"granularity", true}}});
  ASSERT_FALSE(bool_for_string.ok());
  EXPECT_EQ(bool_for_string.status().code(), StatusCode::kInvalidArgument);
}

TEST(PolicyRegistryTest, IntCoercesToDoubleButNotConversely) {
  EXPECT_TRUE(PolicyRegistry::Global()
                  .Create({"spes", {{"alpha", 1}}})
                  .ok());
  const auto result = PolicyRegistry::Global().Create(
      {"spes", {{"theta_prewarm", 2.5}}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PolicyRegistryTest, OutOfDomainValuesAreInvalidArgument) {
  const struct {
    const char* spec;
    const char* mentions;
  } kCases[] = {
      {"fixed_keepalive{minutes=0}", "minutes"},
      {"faascache{capacity=0}", "capacity"},
      {"faascache{capacity=-3}", "capacity"},
      {"hybrid_histogram{granularity=bogus}", "granularity"},
      {"spes{givenup_scaler=0}", "givenup_scaler"},
      {"spes{theta_prewarm=-1}", "theta_prewarm"},
      {"spes{theta_givenup_default=-1}", "theta_givenup_default"},
      // Values beyond INT_MAX must error, not truncate to int.
      {"fixed_keepalive{minutes=4294967297}", "minutes"},
      // Double parameters have domains too, at both ends.
      {"spes{alpha=0}", "alpha"},
      {"spes{alpha=1e10}", "alpha"},
  };
  for (const auto& test_case : kCases) {
    const auto result =
        PolicyRegistry::Global().CreateFromString(test_case.spec);
    ASSERT_FALSE(result.ok()) << test_case.spec;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << test_case.spec;
    EXPECT_NE(result.status().message().find(test_case.mentions),
              std::string::npos)
        << test_case.spec;
  }
}

TEST(PolicyRegistryTest, DefaultsMergeUnderOverrides) {
  // Overriding one parameter leaves the others at their registered
  // defaults: a 10-minute default window with only the granularity
  // overridden still builds (and the display name proves which unit won).
  const auto policy = PolicyRegistry::Global().Create(
      {"fixed_keepalive", {}});
  EXPECT_EQ(policy.ValueOrDie()->name(), "Fixed-10min");

  const auto overridden = PolicyRegistry::Global().Create(
      {"fixed_keepalive", {{"minutes", 3}}});
  EXPECT_EQ(overridden.ValueOrDie()->name(), "Fixed-3min");
}

}  // namespace
}  // namespace spes
