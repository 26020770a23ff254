// Per-function service-time models for the latency subsystem.
//
// A LatencyModel turns one simulated request into a service time in
// milliseconds: a pure function of (cold?, key), where the key is a
// deterministic per-request hash derived from the function name, the
// seeded latency stream and the request's position in the trace
// (latency/latency.h). Because models carry no mutable state, sampling is
// bitwise-deterministic at any thread count, independent of routing, and
// checkpoint-safe for free — a restored run replays exactly the draws the
// original would have made.
//
// Models self-register in the LatencyModelRegistry, an alias of the
// shared Registry<Product> template (core/param_spec.h): canonical
// lowercase names, typed ParamSpec schemas with defaults, Result<> errors
// naming the offending field, so a latency block names its model as data
// — `constant`, `lognormal{cold_median_ms=800,warm_median_ms=8}`.

#ifndef SPES_LATENCY_LATENCY_MODEL_H_
#define SPES_LATENCY_LATENCY_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/param_spec.h"

namespace spes {

/// \brief A latency model as data: canonical name plus parameter
/// overrides. Parameters not listed take the registered defaults.
using LatencyModelSpec = NamedSpec;

/// \brief Validated parameters handed to a registered model factory.
using LatencyModelParams = ParamMap;

/// \brief Parses `name{param=value,...}` into a LatencyModelSpec (same
/// grammar as policy specs; errors say "latency model ...").
Result<LatencyModelSpec> ParseLatencyModelSpec(const std::string& text);

/// \brief Interface implemented by every service-time distribution.
/// SampleMs() must be a pure function of its arguments (no internal
/// state), so latency runs stay deterministic and resumable.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  /// \brief Human-readable model name used in reports.
  [[nodiscard]] virtual std::string name() const = 0;

  /// \brief Service time in milliseconds (>= 0, finite) for one request.
  /// `cold` selects the cold-start distribution; `key` is the request's
  /// deterministic hash, the only source of randomness a model may use
  /// (`lognormal` derives its Gaussian draw from it, `constant` ignores
  /// it).
  [[nodiscard]] virtual double SampleMs(bool cold, uint64_t key) const = 0;

  /// \brief Batched SampleMs(): out[i] = SampleMs(cold[i] != 0, keys[i])
  /// for i in [0, n), bit for bit. The latency lane calls it once per
  /// chunk of a minute's requests, so the model is dispatched once per
  /// chunk instead of once per request; implementations loop over the
  /// chunk with no virtual call per request.
  virtual void SampleMinute(const uint64_t* keys, const uint8_t* cold,
                            size_t n, double* out) const = 0;
};

/// \brief Name -> (schema, factory) table for latency models.
using LatencyModelRegistry = Registry<std::unique_ptr<LatencyModel>>;

/// \brief Every built-in model: `constant`, `lognormal` (registered in
/// latency/models.cc).
template <>
LatencyModelRegistry& LatencyModelRegistry::Global();

}  // namespace spes

#endif  // SPES_LATENCY_LATENCY_MODEL_H_
