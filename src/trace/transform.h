// Composable trace transforms: named, data-driven workload operators.
//
// A TransformSpec describes one operator over a realized Trace — scale the
// load, compress time, slice a window, filter by trigger, clone the fleet,
// inject a burst or a concept drift, thin invocations, keep only the top-k
// functions. Operators are registered in the TransformRegistry, an alias
// of the shared Registry<Product> template (core/param_spec.h): canonical
// lowercase names, typed ParamSpec schemas with defaults, and Result<>
// errors naming the offending field. An ordered chain of TransformSpecs turns one workload
// into a family of stressed variants as pure data, e.g.
//
//   load_scale{factor=2.0} | inject_burst{at=720,width=15,amplitude=40}
//
// which is exactly what TraceSpec::transforms (sim/scenario.h) applies
// after realizing a trace source. Every transform is deterministic: the
// stochastic ones (thin, burst/drift selection) draw from seeded streams
// keyed by function name, so a chain yields a bitwise-identical trace at
// any thread count and across runs.

#ifndef SPES_TRACE_TRANSFORM_H_
#define SPES_TRACE_TRANSFORM_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/param_spec.h"
#include "trace/trace.h"

namespace spes {

/// \brief A trace transform as data: canonical name plus parameter
/// overrides. Parameters not listed take the registered defaults.
using TransformSpec = NamedSpec;

/// \brief Validated parameters handed to a registered transform factory.
using TransformParams = ParamMap;

/// \brief Parses `name{param=value,...}` into a TransformSpec (same
/// grammar as policy specs; errors say "transform spec ...").
Result<TransformSpec> ParseTransformSpec(const std::string& text);

/// \brief Parses a '|'-separated chain of transform specs, e.g.
/// `load_scale{factor=2.0}|slice{end_minute=1440}`, in the shared chain
/// grammar (ParseSpecChain, core/param_spec.h).
Result<std::vector<TransformSpec>> ParseTransformChain(
    const std::string& text);

/// \brief Inverse of ParseTransformChain: specs joined with " | ", or ""
/// for an empty chain.
std::string FormatTransformChain(const std::vector<TransformSpec>& chain);

/// \brief A compiled transform: maps a trace to a new trace. Parameter
/// domains were checked when the registry built it; apply-time failures
/// (e.g. a slice outside the horizon) report InvalidArgument naming the
/// field and the actual horizon.
using TransformFn = std::function<Result<Trace>(const Trace&)>;

/// \brief Name -> (schema, factory) table for trace transforms; Create()
/// compiles a spec into a TransformFn.
using TransformRegistry = Registry<TransformFn>;

/// \brief Every built-in transform.
template <>
TransformRegistry& TransformRegistry::Global();

/// \brief Applies `chain` to `trace` in order through the global registry.
/// Takes the trace by value — pass an lvalue to keep the original, move an
/// rvalue to avoid the copy. A failing step reports
/// `transform chain step <i> (<name>): <cause>` with the cause's status
/// code, so both registry errors (unknown name, bad parameter) and apply
/// errors (window outside horizon) stay precise.
Result<Trace> ApplyTransforms(Trace trace,
                              const std::vector<TransformSpec>& chain);

}  // namespace spes

#endif  // SPES_TRACE_TRANSFORM_H_
