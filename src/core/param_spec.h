// Shared typed-parameter machinery and the one registry template behind
// every registry-built component.
//
// Four registries build instances from data, each an alias of
// Registry<Product> below: PolicyRegistry (core/policy_registry.h) builds
// provisioning policies, RouterRegistry (cluster/router.h) cluster
// routers, LatencyModelRegistry (latency/latency_model.h) service-time
// models and TransformRegistry (trace/transform.h) trace transforms. All
// speak the same spec language — `name{param=value,...}` strings, typed
// parameter schemas with defaults, Result<> errors naming the offending
// field — so the common plumbing lives here: the ParamValue variant, the
// NamedSpec structure, spec-string parse/format, schema validation, the
// default-merging type check and the registry itself. Error messages are
// parameterized by a `kind` noun ("policy", "router", "latency model",
// "transform"), the only per-registry datum, so each registry keeps
// precise, caller-facing diagnostics.

#ifndef SPES_CORE_PARAM_SPEC_H_
#define SPES_CORE_PARAM_SPEC_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"

namespace spes {

/// \brief Type tag of a declared parameter.
enum class ParamType { kBool, kInt, kDouble, kString };

/// \brief Stable lowercase name of a ParamType ("bool", "int", ...).
const char* ParamTypeToString(ParamType type);

/// \brief A typed parameter value: bool, int, double or string.
///
/// A dedicated class (rather than a bare std::variant) so that string
/// literals construct a string value — `ParamValue("function")` — instead
/// of silently converting the pointer to bool.
class ParamValue {
 public:
  ParamValue() : repr_(int64_t{0}) {}
  ParamValue(bool value) : repr_(value) {}                  // NOLINT
  ParamValue(int value) : repr_(int64_t{value}) {}          // NOLINT
  ParamValue(int64_t value) : repr_(value) {}               // NOLINT
  ParamValue(uint64_t value)                                // NOLINT
      : repr_(static_cast<int64_t>(value)) {}
  ParamValue(double value) : repr_(value) {}                // NOLINT
  ParamValue(const char* value) : repr_(std::string(value)) {}  // NOLINT
  ParamValue(std::string value) : repr_(std::move(value)) {}    // NOLINT

  [[nodiscard]] ParamType type() const;

  /// \name Typed access; the value must hold the requested alternative.
  /// @{
  [[nodiscard]] bool AsBool() const { return std::get<bool>(repr_); }
  [[nodiscard]] int64_t AsInt() const { return std::get<int64_t>(repr_); }
  [[nodiscard]] double AsDouble() const { return std::get<double>(repr_); }
  [[nodiscard]] const std::string& AsString() const { return std::get<std::string>(repr_); }
  /// @}

  bool operator==(const ParamValue& other) const = default;

 private:
  std::variant<bool, int64_t, double, std::string> repr_;
};

/// \brief Renders a value in spec-string form ("true", "10", "0.5", ...).
/// Doubles use the shortest round-trippable decimal form and always carry
/// a '.' or exponent so they re-parse as doubles.
std::string FormatParamValue(const ParamValue& value);

/// \brief Declaration of one parameter a registered component accepts.
///
/// A numeric parameter may declare its domain: inclusive bounds in its
/// own type, an omitted bound meaning unbounded. MergeSpecParams rejects
/// every override outside the domain, so factories read their parameters
/// without re-checking them. Defaults are not checked.
struct ParamSpec {
  std::string name;
  ParamType type = ParamType::kInt;
  ParamValue default_value;
  std::string description;
  std::optional<ParamValue> min_value = std::nullopt;
  std::optional<ParamValue> max_value = std::nullopt;
};

/// \brief INT_MAX, the upper bound of every int parameter a factory
/// narrows to `int`, so the value never truncates.
inline constexpr int64_t kIntParamMax = 2147483647;

/// \brief The declared domain as "[lo, hi]" (an omitted int bound prints
/// its int64 limit, an omitted double bound "-inf"/"inf"), or "" when the
/// parameter declares no bound.
std::string FormatParamDomain(const ParamSpec& param);

/// \brief A registry-buildable component as data: canonical name plus
/// parameter overrides. Parameters not listed take the registered
/// defaults. PolicySpec, RouterSpec, LatencyModelSpec and TransformSpec
/// are aliases of this type.
struct NamedSpec {
  std::string name;
  std::map<std::string, ParamValue> params;

  bool operator==(const NamedSpec& other) const = default;
};

/// \brief True when `text` is a valid canonical/parameter identifier
/// (non-empty, only [A-Za-z0-9_]).
bool IsSpecIdentifier(const std::string& text);

/// \brief Joins names with ", " for error messages and catalogs.
std::string JoinNames(const std::vector<std::string>& names);

/// \brief Parses `name{param=value,...}` (the braces are optional when no
/// parameters are overridden). Values parse as bool (`true`/`false`),
/// int, double, or — failing those — a bare string. `kind` is the noun
/// used in error messages ("policy", "transform").
Result<NamedSpec> ParseNamedSpec(const std::string& text,
                                 const std::string& kind);

/// \brief Inverse of ParseNamedSpec: canonical `name{k=v,...}` form with
/// keys in lexicographic order; just `name` when no overrides.
std::string FormatNamedSpec(const NamedSpec& spec);

/// \name '|'-separated spec chains
///
/// One grammar for every chain of specs — transform chains
/// (`load_scale{factor=2.0} | inject_burst{at=2900}`) and node-event
/// timelines alike: whitespace around '|' is ignored, a blank string is
/// the empty chain, and an empty segment between bars ("a||b", "|a") is
/// InvalidArgument naming the chain's `noun`. The formatter joins items
/// with " | ".
/// @{

/// \brief Parses `text` into items, each segment through `parse_item`
/// (a callable from const std::string& to Result<T>); the first failing
/// segment's error is returned.
template <typename T, typename ParseItem>
Result<std::vector<T>> ParseSpecChain(const std::string& text,
                                      const std::string& noun,
                                      ParseItem parse_item) {
  std::vector<T> chain;
  if (text.find_first_not_of(" \t") == std::string::npos) return chain;
  size_t start = 0;
  while (true) {
    const size_t bar = text.find('|', start);
    const size_t item_end = bar == std::string::npos ? text.size() : bar;
    const std::string item = text.substr(start, item_end - start);
    if (item.find_first_not_of(" \t") == std::string::npos) {
      return Status::InvalidArgument(noun + " '" + text +
                                     "' has an empty entry");
    }
    SPES_ASSIGN_OR_RETURN(T value, parse_item(item));
    chain.push_back(std::move(value));
    if (bar == std::string::npos) break;
    start = bar + 1;
  }
  return chain;
}

/// \brief Inverse of ParseSpecChain: each item through `format_item`
/// (a callable from const T& to std::string), joined with " | ".
template <typename T, typename FormatItem>
std::string FormatSpecChain(const std::vector<T>& chain,
                            FormatItem format_item) {
  std::string text;
  for (const T& item : chain) {
    if (!text.empty()) text += " | ";
    text += format_item(item);
  }
  return text;
}
/// @}

/// \brief Validated parameters handed to a registered factory: the
/// registered defaults overlaid with the spec's (type-checked) overrides,
/// so every declared parameter is present with its declared type.
class ParamMap {
 public:
  explicit ParamMap(std::map<std::string, ParamValue> values)
      : values_(std::move(values)) {}

  [[nodiscard]] bool GetBool(const std::string& name) const;
  [[nodiscard]] int64_t GetInt(const std::string& name) const;
  [[nodiscard]] double GetDouble(const std::string& name) const;
  [[nodiscard]] const std::string& GetString(const std::string& name) const;

  [[nodiscard]] const std::map<std::string, ParamValue>& values() const { return values_; }

 private:
  [[nodiscard]] const ParamValue& At(const std::string& name) const;

  std::map<std::string, ParamValue> values_;
};

/// \brief Registration-time check shared by the registries: the name must
/// be an identifier, the entry must carry a factory, every declared
/// default and bound must match its declared type, bounds may only be
/// declared on int and double parameters with min <= max, and no
/// parameter may be declared twice. Errors are InvalidArgument and name
/// the `kind` and `name`.
Status ValidateRegistryEntry(const std::string& kind, const std::string& name,
                             bool has_factory,
                             const std::vector<ParamSpec>& params);

/// \brief The lookup error for a name no entry matched: InvalidArgument
/// for an empty name, otherwise NotFound listing the `registered` names.
Status UnknownSpecName(const std::string& kind, const std::string& name,
                       const std::vector<std::string>& registered);

/// \brief Checks a value built in code against the domain `schema`
/// declares for parameter `name` — the check MergeSpecParams applies to
/// every parsed override, for structs filled without a spec string.
/// InvalidArgument names `where` (e.g. "LatencySpec.timeout_ms") and the
/// domain; Internal when `schema` declares no `name`.
Status CheckDeclaredDomain(const std::vector<ParamSpec>& schema,
                           const std::string& name, const ParamValue& value,
                           const std::string& where);

/// \brief Build-time parameter resolution shared by the registries, the
/// latency `queue{...}` block and node events: overlays `spec.params` onto
/// the declared defaults, rejecting unknown parameters, type mismatches
/// (ints coerce to doubles, nothing else converts) and overrides outside
/// the declared domain (NaN included) with InvalidArgument naming the
/// `kind`, the spec and the offending field.
Result<ParamMap> MergeSpecParams(const std::string& kind,
                                 const NamedSpec& spec,
                                 const std::vector<ParamSpec>& declared);

/// \brief Name -> (schema, factory) table that builds a `Product` from a
/// NamedSpec. Every registry-built component is an alias of it, told
/// apart only by the `kind` noun its errors use.
///
/// Global() is declared here and specialized once per product, next to
/// that product's built-ins; additional registries can be constructed
/// freely, e.g. by tests.
template <class Product>
class Registry {
 public:
  /// \brief Builds a product from validated parameters: every numeric
  /// value already lies in its declared domain. May still reject what a
  /// domain cannot express (e.g. an unknown string choice) with a Status.
  using Factory = std::function<Result<Product>(const ParamMap&)>;

  /// \brief One registered component.
  struct Entry {
    /// Canonical lowercase identifier, e.g. "fixed_keepalive".
    std::string canonical_name;
    /// One-line human description for catalogs.
    std::string summary;
    /// Accepted parameters with defaults; order is the display order.
    std::vector<ParamSpec> params;
    Factory factory;
  };

  /// \brief An empty registry whose errors call its components `kind`
  /// ("policy", "router", ...).
  explicit Registry(std::string kind) : kind_(std::move(kind)) {}

  /// \brief Adds an entry. Fails with AlreadyExists when the name is taken
  /// and InvalidArgument on a non-identifier name, a missing factory, a
  /// duplicated parameter declaration or a mistyped default.
  Status Register(Entry entry) {
    SPES_RETURN_NOT_OK(ValidateRegistryEntry(kind_, entry.canonical_name,
                                             static_cast<bool>(entry.factory),
                                             entry.params));
    const std::string name = entry.canonical_name;
    if (!entries_.emplace(name, std::move(entry)).second) {
      return Status::AlreadyExists(kind_ + " '" + name +
                                   "' is already registered");
    }
    return Status::OK();
  }

  /// \brief Builds a product from `spec`: unknown names yield NotFound
  /// (listing the registered alternatives); unknown parameters, type
  /// mismatches (ints coerce to doubles, nothing else converts) and
  /// rejected values yield InvalidArgument naming the offending field.
  [[nodiscard]] Result<Product> Create(const NamedSpec& spec) const {
    const Entry* entry = Find(spec.name);
    if (entry == nullptr) return UnknownSpecName(kind_, spec.name, Names());
    SPES_ASSIGN_OR_RETURN(const ParamMap params,
                          MergeSpecParams(kind_, spec, entry->params));
    return entry->factory(params);
  }

  /// \brief Convenience: Create(ParseNamedSpec(text, kind)).
  [[nodiscard]] Result<Product> CreateFromString(
      const std::string& text) const {
    SPES_ASSIGN_OR_RETURN(const NamedSpec spec, ParseNamedSpec(text, kind_));
    return Create(spec);
  }

  /// \brief True when `name` is registered.
  [[nodiscard]] bool Contains(const std::string& name) const {
    return entries_.count(name) > 0;
  }

  /// \brief Registered canonical names in lexicographic order.
  [[nodiscard]] std::vector<std::string> Names() const {
    std::vector<std::string> names;
    names.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) names.push_back(name);
    return names;
  }

  /// \brief Introspection: the entry for `name`, or nullptr when unknown.
  [[nodiscard]] const Entry* Find(const std::string& name) const {
    auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : &it->second;
  }

  /// \brief The process-wide registry, with every built-in registered on
  /// first use. Registration of additional entries is not synchronized;
  /// do it before fanning out worker threads.
  static Registry& Global();

 private:
  std::string kind_;
  std::map<std::string, Entry> entries_;
};

}  // namespace spes

#endif  // SPES_CORE_PARAM_SPEC_H_
