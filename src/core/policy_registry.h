// Policy registry: every provisioning policy self-registers under a
// canonical lowercase name ("spes", "fixed_keepalive", ...) together with a
// typed parameter schema, so a policy instance can be built from data — a
// PolicySpec — instead of a hand-wired constructor call. This is the
// factory layer behind the Scenario API (sim/scenario.h): benches, examples
// and config-driven workloads describe *which* policy with *which* knobs,
// and the registry validates the spec and produces the instance.
//
// Spec strings follow the convention `name{param=value,param=value}`, e.g.
//   fixed_keepalive{minutes=10}
//   hybrid_histogram{granularity=application}
//   spes{theta_prewarm=3,enable_online_corr=false}
// ParsePolicySpec()/FormatNamedSpec() convert between the string and
// structured forms; the round trip is exact for every value the parser
// itself produces (values are unquoted, so a *string* parameter whose
// text reads as a number or bool — none of the built-in schemas has one —
// would re-parse as that type).
//
// PolicyRegistry is the shared Registry<Product> template of
// core/param_spec.h, which also holds the typed-parameter machinery
// (ParamValue, ParamSpec, spec-string grammar, default merging).
//
// All failure modes are Result<>/Status-based: unknown policy names,
// duplicate registration, unknown parameters, ill-typed parameters and
// out-of-domain values never abort.

#ifndef SPES_CORE_POLICY_REGISTRY_H_
#define SPES_CORE_POLICY_REGISTRY_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "core/param_spec.h"
#include "sim/policy.h"

namespace spes {

/// \brief A policy as data: canonical name plus parameter overrides.
/// Parameters not listed take the registered defaults.
using PolicySpec = NamedSpec;

/// \brief Validated parameters handed to a registered policy factory.
using PolicyParams = ParamMap;

/// \brief Parses `name{param=value,...}` (the braces are optional when no
/// parameters are overridden). Values parse as bool (`true`/`false`),
/// int, double, or — failing those — a bare string.
Result<PolicySpec> ParsePolicySpec(const std::string& text);

/// \brief Name -> (schema, factory) table for provisioning policies.
using PolicyRegistry = Registry<std::unique_ptr<Policy>>;

/// \brief Every built-in policy, each registered by its own file through
/// the Register*Policy function below.
template <>
PolicyRegistry& PolicyRegistry::Global();

/// \name Built-in registrations (called by Global()), each defined in its
/// policy's own .cc next to the schema it registers.
/// @{
void RegisterSpesPolicy(PolicyRegistry& registry);
void RegisterDefusePolicy(PolicyRegistry& registry);
void RegisterFaasCachePolicy(PolicyRegistry& registry);
void RegisterFixedKeepAlivePolicy(PolicyRegistry& registry);
void RegisterHybridHistogramPolicy(PolicyRegistry& registry);
void RegisterOraclePolicy(PolicyRegistry& registry);
/// @}

}  // namespace spes

#endif  // SPES_CORE_POLICY_REGISTRY_H_
