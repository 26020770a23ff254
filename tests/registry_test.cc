// Conformance of every registry built on Registry<Product>
// (core/param_spec.h): one typed suite over the four Global() registries
// checks that each built-in builds from its bare name and from its fully
// explicit default spec, that the explicit spec round-trips through
// FormatNamedSpec and the registry's Parse*Spec, that Names() agrees with
// Find()/Contains(), that an unknown name is NotFound listing the
// alternatives, and that every declared parameter domain holds its
// default, accepts its bounds and rejects one step beyond them — for the
// registry entries and for the schemas parsed outside a registry (the
// latency `queue{...}` block and the node events). The registration-error
// cases run once, against the template itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/router.h"
#include "core/param_spec.h"
#include "core/policy_registry.h"
#include "latency/latency.h"
#include "latency/latency_model.h"
#include "trace/transform.h"

namespace spes {
namespace {

/// A parameter schema checked by DeclaredDomainsHoldDefaultsAndBounds:
/// `build` turns `base` plus one override into a product the way the
/// schema's real caller does, and reports its status.
struct DomainSubject {
  std::string label;
  const std::vector<ParamSpec>* params;
  NamedSpec base;  ///< carries the schema's required parameters
  std::function<Status(const NamedSpec&)> build;
};

struct PolicyKind {
  using Registry = PolicyRegistry;
  static constexpr auto Parse = &ParsePolicySpec;
  static constexpr const char* kNoun = "policy";
  static std::vector<DomainSubject> ExtraSchemas() { return {}; }
};
struct RouterKind {
  using Registry = RouterRegistry;
  static constexpr auto Parse = &ParseRouterSpec;
  static constexpr const char* kNoun = "router";
  // Node events belong to the cluster spec the routers serve.
  static std::vector<DomainSubject> ExtraSchemas() {
    const auto build = [](const NamedSpec& spec) {
      return ParseNodeEvent(FormatNamedSpec(spec)).status();
    };
    return {{"node event add", &NodeEventParamSchema(NodeEvent::Kind::kAdd),
             {"add", {{"at", 0}}}, build},
            {"node event fail", &NodeEventParamSchema(NodeEvent::Kind::kFail),
             {"fail", {{"at", 0}, {"node", 0}}}, build}};
  }
};
struct LatencyModelKind {
  using Registry = LatencyModelRegistry;
  static constexpr auto Parse = &ParseLatencyModelSpec;
  static constexpr const char* kNoun = "latency model";
  // The admission half of a latency block.
  static std::vector<DomainSubject> ExtraSchemas() {
    const auto build = [](const NamedSpec& spec) {
      return ParseLatencySpec("constant @ " + FormatNamedSpec(spec)).status();
    };
    return {
        {"latency queue", &LatencyQueueParamSchema(), {"queue", {}}, build}};
  }
};
struct TransformKind {
  using Registry = TransformRegistry;
  static constexpr auto Parse = &ParseTransformSpec;
  static constexpr const char* kNoun = "transform";
  static std::vector<DomainSubject> ExtraSchemas() { return {}; }
};

/// True when `value` lies in the domain `param` declares.
bool WithinDomain(const ParamSpec& param, const ParamValue& value) {
  if (param.type == ParamType::kInt) {
    return (!param.min_value || value.AsInt() >= param.min_value->AsInt()) &&
           (!param.max_value || value.AsInt() <= param.max_value->AsInt());
  }
  return (!param.min_value ||
          value.AsDouble() >= param.min_value->AsDouble()) &&
         (!param.max_value || value.AsDouble() <= param.max_value->AsDouble());
}

/// The nearest value of the parameter's type beyond `bound`.
ParamValue StepBeyond(const ParamSpec& param, const ParamValue& bound,
                      bool upper) {
  if (param.type == ParamType::kInt) {
    return bound.AsInt() + (upper ? 1 : -1);
  }
  const double infinity = std::numeric_limits<double>::infinity();
  return std::nextafter(bound.AsDouble(), upper ? infinity : -infinity);
}

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

TYPED_TEST(RegistryConformanceTest, DeclaredDomainsHoldDefaultsAndBounds) {
  const auto create = [](const NamedSpec& spec) {
    return TypeParam::Registry::Global().Create(spec).status();
  };
  std::vector<DomainSubject> subjects = TypeParam::ExtraSchemas();
  for (const std::string& name : this->registry().Names()) {
    subjects.push_back(
        {name, &this->registry().Find(name)->params, {name, {}}, create});
  }
  int bounds_checked = 0;
  for (const DomainSubject& subject : subjects) {
    for (const ParamSpec& param : *subject.params) {
      const std::string where = subject.label + " " + param.name;
      // -1 is add's "omitted" capacity, outside the domain of given ones.
      if (subject.label != "node event add" || param.name != "capacity") {
        EXPECT_TRUE(WithinDomain(param, param.default_value)) << where;
      }
      const auto build_with = [&](const ParamValue& value) {
        NamedSpec spec = subject.base;
        spec.params[param.name] = value;
        return subject.build(spec);
      };
      for (const bool upper : {false, true}) {
        const std::optional<ParamValue>& bound =
            upper ? param.max_value : param.min_value;
        if (!bound) continue;
        ++bounds_checked;
        const Status at_bound = build_with(*bound);
        EXPECT_TRUE(at_bound.ok()) << where << ": " << at_bound.ToString();
        const ParamValue beyond = StepBeyond(param, *bound, upper);
        const Status outside = build_with(beyond);
        EXPECT_EQ(outside.code(), StatusCode::kInvalidArgument)
            << where << "=" << FormatParamValue(beyond);
        EXPECT_NE(outside.message().find("'" + param.name + "'"),
                  std::string::npos)
            << outside.message();
      }
    }
  }
  EXPECT_GT(bounds_checked, 0);
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

  WidgetRegistry::Entry mistyped_bound = WidgetEntry("mistyped_bound");
  mistyped_bound.params = {{"x", ParamType::kDouble, ParamValue(0.5), "", 0}};
  expect_invalid(std::move(mistyped_bound), "parameter 'x' bounds");

  WidgetRegistry::Entry string_bound = WidgetEntry("string_bound");
  string_bound.params = {{"x", ParamType::kString, ParamValue("a"), "", "a"}};
  expect_invalid(std::move(string_bound), "parameter 'x' bounds");

  WidgetRegistry::Entry empty_domain = WidgetEntry("empty_domain");
  empty_domain.params = {{"x", ParamType::kInt, ParamValue(1), "", 2, 1}};
  expect_invalid(std::move(empty_domain), "empty domain [2, 1]");

  // None of the rejected entries was added.
  EXPECT_TRUE(registry.Names().empty());
}

TEST(RegistryTemplateTest, OverridesOutsideTheDomainAreRejected) {
  WidgetRegistry registry("widget");
  WidgetRegistry::Entry entry = WidgetEntry("bounded");
  entry.params = {
      {"n", ParamType::kInt, ParamValue(1), "", 0, 10},
      {"f", ParamType::kDouble, ParamValue(0.5), "", 0.0, 1.0},
      {"seed", ParamType::kInt, ParamValue(0), "", 0},
      {"free", ParamType::kDouble, ParamValue(0.0), ""},
  };
  ASSERT_TRUE(registry.Register(entry).ok());
  const auto message = [&registry](const std::string& text) {
    return registry.CreateFromString(text).status().message();
  };
  EXPECT_EQ(message("bounded{n=11}"),
            "parameter 'n' of widget 'bounded' must be in [0, 10], got 11");
  // Ints coerce to doubles before the check; NaN lies in no domain.
  EXPECT_EQ(message("bounded{f=2}"),
            "parameter 'f' of widget 'bounded' must be in [0.0, 1.0], got 2.0");
  EXPECT_EQ(message("bounded{f=nan}"),
            "parameter 'f' of widget 'bounded' must be in [0.0, 1.0], got nan");
  // An omitted bound is unbounded; it prints as the type's limit.
  EXPECT_EQ(message("bounded{seed=-1}"),
            "parameter 'seed' of widget 'bounded' must be in "
            "[0, 9223372036854775807], got -1");
  EXPECT_TRUE(registry.CreateFromString("bounded{seed=9223372036854775807}")
                  .ok());
  EXPECT_TRUE(registry.CreateFromString("bounded{free=-1e300}").ok());
  EXPECT_TRUE(registry.CreateFromString("bounded{n=0,f=1}").ok());
  EXPECT_EQ(FormatParamDomain(entry.params[0]), "[0, 10]");
  EXPECT_EQ(FormatParamDomain(entry.params[3]), "");
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
