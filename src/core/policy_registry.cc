#include "core/policy_registry.h"

namespace spes {

namespace {
constexpr char kKind[] = "policy";
}  // namespace

Result<PolicySpec> ParsePolicySpec(const std::string& text) {
  return ParseNamedSpec(text, kKind);
}

template <>
PolicyRegistry& PolicyRegistry::Global() {
  static PolicyRegistry* registry = [] {
    auto* r = new PolicyRegistry(kKind);
    RegisterSpesPolicy(*r);
    RegisterDefusePolicy(*r);
    RegisterFaasCachePolicy(*r);
    RegisterFixedKeepAlivePolicy(*r);
    RegisterHybridHistogramPolicy(*r);
    RegisterOraclePolicy(*r);
    return r;
  }();
  return *registry;
}

}  // namespace spes
