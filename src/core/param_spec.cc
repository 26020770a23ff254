#include "core/param_spec.h"

#include <charconv>
#include <cstdlib>
#include <limits>
#include <utility>

namespace spes {

namespace {

std::string Trimmed(const std::string& text) {
  size_t begin = text.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
  size_t end = text.find_last_not_of(" \t");
  return text.substr(begin, end - begin + 1);
}

/// Value grammar: bool keywords, then int, then double, else bare string.
ParamValue ParseValueToken(const std::string& token) {
  if (token == "true") return ParamValue(true);
  if (token == "false") return ParamValue(false);
  {
    int64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec == std::errc() && ptr == token.data() + token.size()) {
      return ParamValue(value);
    }
  }
  {
    // from_chars, like the to_chars formatter, is locale-independent;
    // strtod would mis-parse "0.25" under comma-decimal locales.
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec == std::errc() && ptr == token.data() + token.size()) {
      return ParamValue(value);
    }
  }
  return ParamValue(token);
}

/// A declared bound, or the type's own limit when the bound is omitted.
ParamValue BoundOrLimit(const std::optional<ParamValue>& bound, ParamType type,
                        bool upper) {
  if (bound) return *bound;
  if (type == ParamType::kInt) {
    return upper ? std::numeric_limits<int64_t>::max()
                 : std::numeric_limits<int64_t>::min();
  }
  return upper ? std::numeric_limits<double>::infinity()
               : -std::numeric_limits<double>::infinity();
}

/// True when `value` (already of the declared type) lies in the domain.
bool InDomain(const ParamSpec& param, const ParamValue& value) {
  const ParamValue lo = BoundOrLimit(param.min_value, param.type, false);
  const ParamValue hi = BoundOrLimit(param.max_value, param.type, true);
  if (param.type == ParamType::kInt) {
    return value.AsInt() >= lo.AsInt() && value.AsInt() <= hi.AsInt();
  }
  // Spelled positively so that NaN, which fails every comparison, is out.
  const double v = value.AsDouble();
  return v >= lo.AsDouble() && v <= hi.AsDouble();
}

}  // namespace

const char* ParamTypeToString(ParamType type) {
  switch (type) {
    case ParamType::kBool:
      return "bool";
    case ParamType::kInt:
      return "int";
    case ParamType::kDouble:
      return "double";
    case ParamType::kString:
      return "string";
  }
  return "unknown";
}

ParamType ParamValue::type() const {
  switch (repr_.index()) {
    case 0:
      return ParamType::kBool;
    case 1:
      return ParamType::kInt;
    case 2:
      return ParamType::kDouble;
    default:
      return ParamType::kString;
  }
}

std::string FormatParamDomain(const ParamSpec& param) {
  if (!param.min_value && !param.max_value) return "";
  std::string text = "[";
  text += FormatParamValue(BoundOrLimit(param.min_value, param.type, false));
  text += ", ";
  text += FormatParamValue(BoundOrLimit(param.max_value, param.type, true));
  return text + "]";
}

std::string FormatParamValue(const ParamValue& value) {
  switch (value.type()) {
    case ParamType::kBool:
      return value.AsBool() ? "true" : "false";
    case ParamType::kInt:
      return std::to_string(value.AsInt());
    case ParamType::kDouble: {
      char buf[64];
      const auto [ptr, ec] =
          std::to_chars(buf, buf + sizeof(buf), value.AsDouble());
      std::string text(buf, ptr);
      // Shortest form may look integral ("5"); keep the double-ness so the
      // text re-parses to the same ParamValue alternative.
      if (text.find_first_of(".eEni") == std::string::npos) text += ".0";
      return text;
    }
    case ParamType::kString:
      return value.AsString();
  }
  return "";
}

bool IsSpecIdentifier(const std::string& text) {
  if (text.empty()) return false;
  for (char c : text) {
    if (!(c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
          (c >= '0' && c <= '9'))) {
      return false;
    }
  }
  return true;
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string joined;
  for (const std::string& name : names) {
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  return joined;
}

Result<NamedSpec> ParseNamedSpec(const std::string& text,
                                 const std::string& kind) {
  const std::string trimmed = Trimmed(text);
  NamedSpec spec;
  const size_t brace = trimmed.find('{');
  if (brace == std::string::npos) {
    spec.name = trimmed;
  } else {
    if (trimmed.back() != '}') {
      return Status::InvalidArgument(kind + " spec '" + trimmed +
                                     "' has an unterminated '{'");
    }
    spec.name = Trimmed(trimmed.substr(0, brace));
    const std::string body =
        trimmed.substr(brace + 1, trimmed.size() - brace - 2);
    // Braces cannot appear inside parameter names or values, so any left
    // in the body are stray ("spes{x=2}}" must not parse as x="2}").
    if (body.find_first_of("{}") != std::string::npos) {
      return Status::InvalidArgument(kind + " spec '" + trimmed +
                                     "' has mismatched braces");
    }
    if (!Trimmed(body).empty()) {
      size_t start = 0;
      while (start <= body.size()) {
        size_t comma = body.find(',', start);
        if (comma == std::string::npos) comma = body.size();
        const std::string item = body.substr(start, comma - start);
        const size_t eq = item.find('=');
        if (eq == std::string::npos) {
          return Status::InvalidArgument(kind + " spec parameter '" +
                                         Trimmed(item) +
                                         "' is not of the form key=value");
        }
        const std::string key = Trimmed(item.substr(0, eq));
        const std::string value = Trimmed(item.substr(eq + 1));
        if (!IsSpecIdentifier(key)) {
          return Status::InvalidArgument(kind + " spec parameter name '" +
                                         key + "' is not an identifier");
        }
        if (value.empty()) {
          return Status::InvalidArgument(kind + " spec parameter '" + key +
                                         "' has an empty value");
        }
        if (spec.params.count(key) > 0) {
          return Status::InvalidArgument(kind + " spec parameter '" + key +
                                         "' is given twice");
        }
        spec.params.emplace(key, ParseValueToken(value));
        start = comma + 1;
        if (comma == body.size()) break;
      }
    }
  }
  if (!IsSpecIdentifier(spec.name)) {
    return Status::InvalidArgument(kind + " spec name '" + spec.name +
                                   "' is not an identifier");
  }
  return spec;
}

std::string FormatNamedSpec(const NamedSpec& spec) {
  if (spec.params.empty()) return spec.name;
  std::string text = spec.name + "{";
  bool first = true;
  for (const auto& [key, value] : spec.params) {
    if (!first) text += ",";
    first = false;
    text += key + "=" + FormatParamValue(value);
  }
  return text + "}";
}

const ParamValue& ParamMap::At(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    // Factories only read parameters they declared; the registry merged the
    // defaults, so a miss is a programming error in the registration.
    std::abort();
  }
  return it->second;
}

bool ParamMap::GetBool(const std::string& name) const {
  return At(name).AsBool();
}
int64_t ParamMap::GetInt(const std::string& name) const {
  return At(name).AsInt();
}
double ParamMap::GetDouble(const std::string& name) const {
  return At(name).AsDouble();
}
const std::string& ParamMap::GetString(const std::string& name) const {
  return At(name).AsString();
}

Status ValidateRegistryEntry(const std::string& kind, const std::string& name,
                             bool has_factory,
                             const std::vector<ParamSpec>& params) {
  if (!IsSpecIdentifier(name)) {
    return Status::InvalidArgument(kind + " canonical name '" + name +
                                   "' is not an identifier");
  }
  if (!has_factory) {
    return Status::InvalidArgument(kind + " '" + name +
                                   "' registered without a factory");
  }
  for (size_t i = 0; i < params.size(); ++i) {
    const ParamSpec& param = params[i];
    const std::string where =
        kind + " '" + name + "' parameter '" + param.name + "'";
    if (param.default_value.type() != param.type) {
      return Status::InvalidArgument(
          where + " default does not match its declared type");
    }
    if (param.min_value || param.max_value) {
      const auto mistyped = [&param](const std::optional<ParamValue>& bound) {
        return bound && bound->type() != param.type;
      };
      if ((param.type != ParamType::kInt && param.type != ParamType::kDouble) ||
          mistyped(param.min_value) || mistyped(param.max_value)) {
        return Status::InvalidArgument(
            where + " bounds must be numeric and match its declared type");
      }
      if (param.min_value && param.max_value &&
          !InDomain(param, *param.min_value)) {
        return Status::InvalidArgument(where + " has an empty domain " +
                                       FormatParamDomain(param));
      }
    }
    for (size_t j = i + 1; j < params.size(); ++j) {
      if (params[i].name == params[j].name) {
        return Status::InvalidArgument(kind + " '" + name +
                                       "' declares parameter '" +
                                       params[i].name + "' twice");
      }
    }
  }
  return Status::OK();
}

Status UnknownSpecName(const std::string& kind, const std::string& name,
                       const std::vector<std::string>& registered) {
  if (name.empty()) {
    return Status::InvalidArgument(kind + " spec name must not be empty");
  }
  // The plural of every kind noun: "policy" -> "policies", else "+s".
  const std::string plural =
      !kind.empty() && kind.back() == 'y'
          ? kind.substr(0, kind.size() - 1) + "ies"
          : kind + "s";
  return Status::NotFound("unknown " + kind + " '" + name +
                          "'; registered " + plural + ": " +
                          JoinNames(registered));
}

namespace {

/// Rejects `typed` (already of the declared type) outside `param`'s domain.
Status CheckDomain(const ParamSpec& param, const ParamValue& typed,
                   const std::string& where) {
  if ((!param.min_value && !param.max_value) || InDomain(param, typed)) {
    return Status::OK();
  }
  return Status::InvalidArgument(where + " must be in " +
                                 FormatParamDomain(param) + ", got " +
                                 FormatParamValue(typed));
}

}  // namespace

Status CheckDeclaredDomain(const std::vector<ParamSpec>& schema,
                           const std::string& name, const ParamValue& value,
                           const std::string& where) {
  for (const ParamSpec& param : schema) {
    if (param.name != name) continue;
    const ParamValue typed =
        param.type == ParamType::kDouble && value.type() == ParamType::kInt
            ? ParamValue(static_cast<double>(value.AsInt()))
            : value;
    if (typed.type() != param.type) {
      return Status::Internal(where + " is checked against parameter '" +
                              name + "' of another type");
    }
    return CheckDomain(param, typed, where);
  }
  return Status::Internal(where + " is checked against undeclared parameter '" +
                          name + "'");
}

Result<ParamMap> MergeSpecParams(const std::string& kind,
                                 const NamedSpec& spec,
                                 const std::vector<ParamSpec>& declared) {
  std::map<std::string, ParamValue> merged;
  for (const ParamSpec& param : declared) {
    merged[param.name] = param.default_value;
  }
  for (const auto& [key, value] : spec.params) {
    const ParamSpec* match = nullptr;
    for (const ParamSpec& param : declared) {
      if (param.name == key) {
        match = &param;
        break;
      }
    }
    if (match == nullptr) {
      std::vector<std::string> accepted;
      for (const ParamSpec& param : declared) {
        accepted.push_back(param.name);
      }
      return Status::InvalidArgument(
          "unknown parameter '" + key + "' for " + kind + " '" + spec.name +
          "'; accepted: " +
          (accepted.empty() ? "(none)" : JoinNames(accepted)));
    }
    const std::string where =
        "parameter '" + key + "' of " + kind + " '" + spec.name + "'";
    ParamValue typed = value;
    if (match->type == ParamType::kDouble && value.type() == ParamType::kInt) {
      typed = ParamValue(static_cast<double>(value.AsInt()));
    } else if (value.type() != match->type) {
      return Status::InvalidArgument(
          where + " expects " + ParamTypeToString(match->type) + ", got " +
          ParamTypeToString(value.type()) + " (" + FormatParamValue(value) +
          ")");
    }
    SPES_RETURN_NOT_OK(CheckDomain(*match, typed, where));
    merged[key] = std::move(typed);
  }
  return ParamMap(std::move(merged));
}

}  // namespace spes
