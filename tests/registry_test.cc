// Conformance of every registry built on Registry<Product>
// (core/param_spec.h): one typed suite over the four Global() registries
// checks that each built-in builds from its bare name and from its fully
// explicit default spec, that the explicit spec round-trips through
// FormatNamedSpec and the registry's Parse*Spec, that Names() agrees with
// Find()/Contains(), and that an unknown name is NotFound listing the
// alternatives. The registration-error cases run once, against the
// template itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "cluster/router.h"
#include "core/param_spec.h"
#include "core/policy_registry.h"
#include "latency/latency_model.h"
#include "trace/transform.h"

namespace spes {
namespace {

struct PolicyKind {
  using Registry = PolicyRegistry;
  static constexpr auto Parse = &ParsePolicySpec;
  static constexpr const char* kNoun = "policy";
};
struct RouterKind {
  using Registry = RouterRegistry;
  static constexpr auto Parse = &ParseRouterSpec;
  static constexpr const char* kNoun = "router";
};
struct LatencyModelKind {
  using Registry = LatencyModelRegistry;
  static constexpr auto Parse = &ParseLatencyModelSpec;
  static constexpr const char* kNoun = "latency model";
};
struct TransformKind {
  using Registry = TransformRegistry;
  static constexpr auto Parse = &ParseTransformSpec;
  static constexpr const char* kNoun = "transform";
};

template <class Kind>
class RegistryConformanceTest : public ::testing::Test {
 protected:
  static const typename Kind::Registry& registry() {
    return Kind::Registry::Global();
  }
};

using RegistryKinds =
    ::testing::Types<PolicyKind, RouterKind, LatencyModelKind, TransformKind>;
TYPED_TEST_SUITE(RegistryConformanceTest, RegistryKinds);

TYPED_TEST(RegistryConformanceTest, EveryBuiltinBuildsFromItsBareName) {
  ASSERT_FALSE(this->registry().Names().empty());
  for (const std::string& name : this->registry().Names()) {
    const auto product = this->registry().Create({name, {}});
    ASSERT_TRUE(product.ok()) << name << ": " << product.status().ToString();
    EXPECT_TRUE(static_cast<bool>(product.ValueOrDie())) << name;
  }
}

TYPED_TEST(RegistryConformanceTest, ExplicitDefaultSpecBuildsAndRoundTrips) {
  for (const std::string& name : this->registry().Names()) {
    NamedSpec spec{name, {}};
    for (const ParamSpec& param : this->registry().Find(name)->params) {
      spec.params[param.name] = param.default_value;
    }
    const auto product = this->registry().Create(spec);
    ASSERT_TRUE(product.ok()) << name << ": " << product.status().ToString();

    const std::string text = FormatNamedSpec(spec);
    const auto reparsed = TypeParam::Parse(text);
    ASSERT_TRUE(reparsed.ok()) << text << ": " << reparsed.status().ToString();
    EXPECT_EQ(reparsed.ValueOrDie(), spec) << text;
    EXPECT_EQ(FormatNamedSpec(reparsed.ValueOrDie()), text);
    EXPECT_TRUE(this->registry().CreateFromString(text).ok()) << text;
  }
}

TYPED_TEST(RegistryConformanceTest, NamesAreSortedAndAgreeWithFind) {
  const auto& registry = this->registry();
  const std::vector<std::string> names = registry.Names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
  for (const std::string& name : names) {
    EXPECT_TRUE(registry.Contains(name)) << name;
    ASSERT_NE(registry.Find(name), nullptr) << name;
    EXPECT_EQ(registry.Find(name)->canonical_name, name);
    EXPECT_FALSE(registry.Find(name)->summary.empty()) << name;
  }
  EXPECT_FALSE(registry.Contains("no_such_entry"));
  EXPECT_EQ(registry.Find("no_such_entry"), nullptr);
}

TYPED_TEST(RegistryConformanceTest, UnknownNameIsNotFoundAndListsAlternatives) {
  const auto result = this->registry().Create({"no_such_entry", {}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  const std::string message = result.status().message();
  EXPECT_NE(message.find(std::string("unknown ") + TypeParam::kNoun +
                         " 'no_such_entry'"),
            std::string::npos)
      << message;
  for (const std::string& name : this->registry().Names()) {
    EXPECT_NE(message.find(name), std::string::npos) << message;
  }
  // The string form reports the same error.
  EXPECT_EQ(this->registry().CreateFromString("no_such_entry").status(),
            result.status());
}

TYPED_TEST(RegistryConformanceTest, EmptyNameIsInvalidArgument) {
  const auto result = this->registry().Create({"", {}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find(TypeParam::kNoun),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Registration errors, once against the template.
// ---------------------------------------------------------------------------

using WidgetRegistry = Registry<int>;

WidgetRegistry::Entry WidgetEntry(const std::string& name) {
  WidgetRegistry::Entry entry;
  entry.canonical_name = name;
  entry.factory = [](const ParamMap&) -> Result<int> { return 7; };
  return entry;
}

TEST(RegistryTemplateTest, DuplicateRegistrationIsAlreadyExists) {
  WidgetRegistry registry("widget");
  EXPECT_TRUE(registry.Register(WidgetEntry("custom")).ok());
  const Status dup = registry.Register(WidgetEntry("custom"));
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_NE(dup.message().find("widget 'custom'"), std::string::npos)
      << dup.message();
  // The original entry survives the rejected re-registration.
  EXPECT_EQ(registry.Create({"custom", {}}).ValueOrDie(), 7);
}

TEST(RegistryTemplateTest, BadRegistrationsAreRejected) {
  WidgetRegistry registry("widget");
  const auto expect_invalid = [&registry](WidgetRegistry::Entry entry,
                                          const std::string& mentions) {
    const Status status = registry.Register(std::move(entry));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << mentions;
    EXPECT_NE(status.message().find("widget"), std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find(mentions), std::string::npos)
        << status.message();
  };
  expect_invalid(WidgetEntry(""), "canonical name ''");
  expect_invalid(WidgetEntry("bad name"), "'bad name'");

  WidgetRegistry::Entry no_factory;
  no_factory.canonical_name = "no_factory";
  expect_invalid(std::move(no_factory), "without a factory");

  WidgetRegistry::Entry dup_param = WidgetEntry("dup_param");
  dup_param.params = {
      {"x", ParamType::kInt, ParamValue(1), ""},
      {"x", ParamType::kInt, ParamValue(2), ""},
  };
  expect_invalid(std::move(dup_param), "parameter 'x' twice");

  WidgetRegistry::Entry mistyped_default = WidgetEntry("mistyped_default");
  mistyped_default.params = {{"x", ParamType::kInt, ParamValue(0.5), ""}};
  expect_invalid(std::move(mistyped_default), "parameter 'x' default");

  // None of the rejected entries was added.
  EXPECT_TRUE(registry.Names().empty());
}

TEST(RegistryTemplateTest, UnknownNamePluralizesTheKind) {
  WidgetRegistry registry("widget");
  ASSERT_TRUE(registry.Register(WidgetEntry("alpha")).ok());
  ASSERT_TRUE(registry.Register(WidgetEntry("beta")).ok());
  EXPECT_EQ(registry.Create({"gamma", {}}).status().message(),
            "unknown widget 'gamma'; registered widgets: alpha, beta");
  WidgetRegistry policies("policy");
  EXPECT_EQ(policies.Create({"gamma", {}}).status().message(),
            "unknown policy 'gamma'; registered policies: ");
}

}  // namespace
}  // namespace spes
