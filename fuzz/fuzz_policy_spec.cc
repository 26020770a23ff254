// Fuzzes ParsePolicySpec (the `name{k=v,...}` grammar every registry
// shares) and, when the spec names a registered policy or router, that
// registry's parameter validation and factory path. Properties checked
// beyond "no crash":
//   * Format(Parse(x)) reparses, and the canonical form is a fixed point.
//   * ParseRouterSpec accepts exactly the same specs.
//   * PolicyRegistry::Create and RouterRegistry::Create never crash on a
//     parsed spec — each either builds its product or returns a precise
//     Status.

#include <string>

#include "cluster/router.h"
#include "core/policy_registry.h"
#include "fuzz/fuzz_common.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);

  const spes::Result<spes::PolicySpec> parsed = spes::ParsePolicySpec(text);
  const spes::Result<spes::RouterSpec> as_router = spes::ParseRouterSpec(text);
  FUZZ_ASSERT(as_router.ok() == parsed.ok());
  if (!parsed.ok()) {
    FUZZ_ASSERT(!parsed.status().message().empty());
    return 0;
  }

  const std::string canonical = spes::FormatNamedSpec(parsed.ValueOrDie());
  const spes::Result<spes::PolicySpec> reparsed =
      spes::ParsePolicySpec(canonical);
  FUZZ_ASSERT(reparsed.ok());
  FUZZ_ASSERT(spes::FormatNamedSpec(reparsed.ValueOrDie()) == canonical);

  FUZZ_ASSERT(as_router.ValueOrDie() == parsed.ValueOrDie());

  // Registry validation + factory must be total over parsed specs.
  const auto policy =
      spes::PolicyRegistry::Global().Create(parsed.ValueOrDie());
  if (!policy.ok()) {
    FUZZ_ASSERT(!policy.status().message().empty());
  }
  const auto router =
      spes::RouterRegistry::Global().Create(parsed.ValueOrDie());
  if (!router.ok()) {
    FUZZ_ASSERT(!router.status().message().empty());
  }
  return 0;
}
