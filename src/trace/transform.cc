#include "trace/transform.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/rng.h"

namespace spes {

namespace {

constexpr char kKind[] = "transform";

constexpr uint32_t kMaxCount = std::numeric_limits<uint32_t>::max();

uint32_t SaturatingCount(int64_t value) {
  if (value <= 0) return 0;
  if (value >= static_cast<int64_t>(kMaxCount)) return kMaxCount;
  return static_cast<uint32_t>(value);
}

uint32_t SaturatingAdd(uint32_t a, int64_t b) {
  return SaturatingCount(static_cast<int64_t>(a) + b);
}

// Per-function stream seeds come from MixNameSeed (common/rng.h): keyed
// by *name*, not fleet index, so selection survives reordering/filtering
// upstream.

/// Uniform in [0, 1) derived from (name, seed); a function is "selected"
/// by fraction-style parameters when its point falls below the fraction.
double SelectionPoint(const std::string& name, uint64_t seed) {
  return static_cast<double>(MixNameSeed(name, seed) >> 11) * 0x1.0p-53;
}

/// Binomial(n, p) draw. Exact per-trial Bernoulli for small n; a clamped
/// normal approximation above that (the same large-count strategy as
/// Rng::Poisson), so the cost stays O(minutes) even after upstream
/// load_scale has inflated counts toward the uint32 cap.
uint32_t Binomial(Rng* rng, uint32_t n, double p) {
  if (n <= 32) {
    uint32_t kept = 0;
    for (uint32_t i = 0; i < n; ++i) {
      if (rng->Bernoulli(p)) ++kept;
    }
    return kept;
  }
  const double mean = static_cast<double>(n) * p;
  const double sd = std::sqrt(static_cast<double>(n) * p * (1.0 - p));
  const int64_t draw = std::llround(rng->Normal(mean, sd));
  return static_cast<uint32_t>(
      std::clamp<int64_t>(draw, 0, static_cast<int64_t>(n)));
}

/// Rebuilds a trace with per-function counts produced by `make_counts`,
/// keeping metadata; `make_counts(i)` must return `new_len` slots.
template <typename MakeCounts>
Result<Trace> RebuildTrace(const Trace& trace, int new_len,
                           MakeCounts make_counts) {
  Trace result(new_len);
  for (size_t i = 0; i < trace.num_functions(); ++i) {
    FunctionTrace function;
    function.meta = trace.function(i).meta;
    function.counts = make_counts(i);
    SPES_RETURN_NOT_OK(result.Add(std::move(function)));
  }
  return result;
}

Status HorizonError(const std::string& transform, const std::string& field,
                    int64_t value, int horizon) {
  return Status::InvalidArgument(
      transform + " parameter '" + field + "' (" + std::to_string(value) +
      ") is outside the trace horizon (" + std::to_string(horizon) +
      " minutes)");
}

// ---------------------------------------------------------------------------
// Built-in transform factories.
// ---------------------------------------------------------------------------

Result<TransformFn> MakeTimeScale(const TransformParams& params) {
  const double factor = params.GetDouble("factor");
  return TransformFn([factor](const Trace& trace) -> Result<Trace> {
    const int old_len = trace.num_minutes();
    if (old_len == 0) return trace;
    const int new_len = static_cast<int>(std::max<int64_t>(
        1, static_cast<int64_t>(static_cast<double>(old_len) / factor + 0.5)));
    return RebuildTrace(trace, new_len, [&](size_t i) {
      std::vector<uint32_t> counts(new_len, 0);
      const auto& source = trace.function(i).counts;
      for (int t = 0; t < old_len; ++t) {
        if (source[t] == 0) continue;
        // Proportional remap; compression sums neighbours into one slot,
        // stretching spreads source minutes over a longer axis with gaps.
        const int dst = std::min<int64_t>(
            new_len - 1, static_cast<int64_t>(t) * new_len / old_len);
        counts[dst] = SaturatingAdd(counts[dst], source[t]);
      }
      return counts;
    });
  });
}

Result<TransformFn> MakeLoadScale(const TransformParams& params) {
  const double factor = params.GetDouble("factor");
  return TransformFn([factor](const Trace& trace) -> Result<Trace> {
    return RebuildTrace(trace, trace.num_minutes(), [&](size_t i) {
      std::vector<uint32_t> counts = trace.function(i).counts;
      for (uint32_t& c : counts) {
        // Deterministic half-up rounding; a sub-1 product keeps at least
        // one invocation so scaling down never silently erases a minute.
        if (c == 0) continue;
        const int64_t scaled = static_cast<int64_t>(
            static_cast<double>(c) * factor + 0.5);
        c = std::max<uint32_t>(1, SaturatingCount(scaled));
      }
      return counts;
    });
  });
}

Result<TransformFn> MakeSlice(const TransformParams& params) {
  const int64_t start = params.GetInt("start_minute");
  const int64_t end = params.GetInt("end_minute");
  return TransformFn([start, end](const Trace& trace) -> Result<Trace> {
    const int horizon = trace.num_minutes();
    const int64_t resolved_end = end == 0 ? horizon : end;
    if (resolved_end > horizon) {
      return HorizonError("slice", "end_minute", resolved_end, horizon);
    }
    if (start >= resolved_end) {
      return Status::InvalidArgument(
          "slice parameter 'start_minute' (" + std::to_string(start) +
          ") must be before end_minute (" + std::to_string(resolved_end) +
          ")");
    }
    const int new_len = static_cast<int>(resolved_end - start);
    return RebuildTrace(trace, new_len, [&](size_t i) {
      const auto& source = trace.function(i).counts;
      return std::vector<uint32_t>(source.begin() + start,
                                   source.begin() + resolved_end);
    });
  });
}

Result<TransformFn> MakeFilterTrigger(const TransformParams& params) {
  const std::string& types = params.GetString("types");
  std::vector<bool> keep(kNumTriggerTypes, false);
  size_t start = 0;
  while (start <= types.size()) {
    size_t plus = types.find('+', start);
    if (plus == std::string::npos) plus = types.size();
    const std::string token = types.substr(start, plus - start);
    const TriggerType trigger = TriggerTypeFromString(token);
    // TriggerTypeFromString maps unknown names to kOthers; reject any
    // token that is not the canonical spelling of what it parsed to.
    if (token != TriggerTypeToString(trigger)) {
      return Status::InvalidArgument(
          "filter_trigger parameter 'types': unknown trigger type '" + token +
          "'; known: http, timer, queue, storage, event, orchestration, "
          "others");
    }
    keep[static_cast<size_t>(trigger)] = true;
    start = plus + 1;
    if (plus == types.size()) break;
  }
  return TransformFn([keep](const Trace& trace) -> Result<Trace> {
    Trace result(trace.num_minutes());
    for (const FunctionTrace& function : trace.functions()) {
      if (keep[static_cast<size_t>(function.meta.trigger)]) {
        SPES_RETURN_NOT_OK(result.Add(function));
      }
    }
    return result;
  });
}

Result<TransformFn> MakeMerge(const TransformParams& params) {
  const int64_t copies = params.GetInt("copies");
  return TransformFn([copies](const Trace& trace) -> Result<Trace> {
    Trace result(trace.num_minutes());
    for (int64_t k = 0; k < copies; ++k) {
      std::string suffix;
      if (k > 0) {
        suffix = "#";
        suffix += std::to_string(k);
      }
      for (const FunctionTrace& function : trace.functions()) {
        FunctionTrace clone = function;
        clone.meta.owner += suffix;
        clone.meta.app += suffix;
        clone.meta.name += suffix;
        SPES_RETURN_NOT_OK(result.Add(std::move(clone)));
      }
    }
    return result;
  });
}

Result<TransformFn> MakeInjectBurst(const TransformParams& params) {
  const int64_t at = params.GetInt("at");
  const int64_t width = params.GetInt("width");
  const int64_t amplitude = params.GetInt("amplitude");
  const double fraction = params.GetDouble("fraction");
  const uint64_t seed = static_cast<uint64_t>(params.GetInt("seed"));
  return TransformFn([=](const Trace& trace) -> Result<Trace> {
    const int horizon = trace.num_minutes();
    if (at >= horizon) {
      return HorizonError("inject_burst", "at", at, horizon);
    }
    const int64_t end = std::min<int64_t>(horizon, at + width);
    return RebuildTrace(trace, horizon, [&](size_t i) {
      std::vector<uint32_t> counts = trace.function(i).counts;
      if (SelectionPoint(trace.function(i).meta.name, seed) < fraction) {
        for (int64_t t = at; t < end; ++t) {
          counts[t] = SaturatingAdd(counts[t], amplitude);
        }
      }
      return counts;
    });
  });
}

Result<TransformFn> MakeInjectDrift(const TransformParams& params) {
  const int64_t at = params.GetInt("at");
  const double fraction = params.GetDouble("fraction");
  const uint64_t seed = static_cast<uint64_t>(params.GetInt("seed"));
  return TransformFn([=](const Trace& trace) -> Result<Trace> {
    const int horizon = trace.num_minutes();
    if (at >= horizon) {
      return HorizonError("inject_drift", "at", at, horizon);
    }
    std::vector<size_t> selected;
    for (size_t i = 0; i < trace.num_functions(); ++i) {
      if (SelectionPoint(trace.function(i).meta.name, seed) < fraction) {
        selected.push_back(i);
      }
    }
    // Drift = from minute `at` on, a selected function behaves like a
    // *different* function: consecutive selected pairs swap their count
    // tails (an unpaired leftover reverses its own tail). Fleet-level
    // totals are conserved; per-function distributions shift abruptly.
    std::vector<std::vector<uint32_t>> tails(trace.num_functions());
    for (size_t p = 0; p + 1 < selected.size(); p += 2) {
      const size_t a = selected[p], b = selected[p + 1];
      const auto& ca = trace.function(a).counts;
      const auto& cb = trace.function(b).counts;
      tails[a].assign(cb.begin() + at, cb.end());
      tails[b].assign(ca.begin() + at, ca.end());
    }
    if (selected.size() % 2 == 1) {
      const size_t a = selected.back();
      const auto& ca = trace.function(a).counts;
      tails[a].assign(ca.rbegin(), ca.rend() - at);
    }
    return RebuildTrace(trace, horizon, [&](size_t i) {
      std::vector<uint32_t> counts = trace.function(i).counts;
      if (!tails[i].empty()) {
        std::copy(tails[i].begin(), tails[i].end(), counts.begin() + at);
      }
      return counts;
    });
  });
}

Result<TransformFn> MakeThin(const TransformParams& params) {
  const double keep_prob = params.GetDouble("keep_prob");
  const uint64_t seed = static_cast<uint64_t>(params.GetInt("seed"));
  return TransformFn([=](const Trace& trace) -> Result<Trace> {
    return RebuildTrace(trace, trace.num_minutes(), [&](size_t i) {
      std::vector<uint32_t> counts = trace.function(i).counts;
      if (keep_prob >= 1.0) return counts;
      // One independent stream per function, seeded by name: thinning is
      // reproducible and independent of fleet order or sibling functions.
      Rng rng(MixNameSeed(trace.function(i).meta.name, seed));
      for (uint32_t& c : counts) {
        if (c > 0) c = Binomial(&rng, c, keep_prob);
      }
      return counts;
    });
  });
}

Result<TransformFn> MakeTopK(const TransformParams& params) {
  const int64_t k = params.GetInt("k");
  const std::string& by = params.GetString("by");
  if (by != "invocations" && by != "invoked_minutes" && by != "peak") {
    return Status::InvalidArgument(
        "top_k parameter 'by' must be one of invocations, invoked_minutes, "
        "peak; got '" + by + "'");
  }
  return TransformFn([k, by](const Trace& trace) -> Result<Trace> {
    std::vector<std::pair<uint64_t, size_t>> ranked;
    ranked.reserve(trace.num_functions());
    for (size_t i = 0; i < trace.num_functions(); ++i) {
      const FunctionTrace& function = trace.function(i);
      uint64_t metric = 0;
      if (by == "invocations") {
        metric = function.TotalInvocations();
      } else if (by == "invoked_minutes") {
        metric = static_cast<uint64_t>(function.InvokedMinutes());
      } else {
        for (uint32_t c : function.counts) {
          metric = std::max<uint64_t>(metric, c);
        }
      }
      ranked.emplace_back(metric, i);
    }
    // Highest metric first; equal metrics break toward the lower original
    // index, so the cut is fully deterministic.
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    const size_t take = std::min<size_t>(ranked.size(), k);
    std::vector<size_t> kept;
    kept.reserve(take);
    for (size_t r = 0; r < take; ++r) kept.push_back(ranked[r].second);
    std::sort(kept.begin(), kept.end());  // preserve original fleet order

    Trace result(trace.num_minutes());
    for (size_t i : kept) {
      SPES_RETURN_NOT_OK(result.Add(trace.function(i)));
    }
    return result;
  });
}

Status RegisterBuiltins(TransformRegistry& registry) {
  const ParamValue seed_default(0);
  const auto reg = [&registry](TransformRegistry::Entry entry) {
    return registry.Register(std::move(entry));
  };
  SPES_RETURN_NOT_OK(reg(
      {"time_scale",
       "resamples the time axis: factor>1 compresses (neighbouring minutes "
       "merge), factor<1 stretches; total invocations are conserved",
       {{"factor", ParamType::kDouble, ParamValue(1.0),
         "time compression factor (new horizon = old / factor)", 0.001,
         1000.0}},
       MakeTimeScale}));
  SPES_RETURN_NOT_OK(reg(
      {"load_scale",
       "multiplies every per-minute count by a factor (half-up rounding; "
       "non-zero minutes stay non-zero)",
       {{"factor", ParamType::kDouble, ParamValue(1.0),
         "load multiplier applied to every count", 0.001, 1000.0}},
       MakeLoadScale}));
  SPES_RETURN_NOT_OK(reg(
      {"slice",
       "restricts the horizon to [start_minute, end_minute)",
       {{"start_minute", ParamType::kInt, ParamValue(0),
         "first minute kept (inclusive)", 0, kIntParamMax},
        {"end_minute", ParamType::kInt, ParamValue(0),
         "one past the last minute kept; 0 means the trace horizon", 0,
         kIntParamMax}},
       MakeSlice}));
  SPES_RETURN_NOT_OK(reg(
      {"filter_trigger",
       "keeps only functions whose trigger type is listed",
       {{"types", ParamType::kString, ParamValue("http"),
         "'+'-separated trigger types to keep, e.g. http+timer"}},
       MakeFilterTrigger}));
  SPES_RETURN_NOT_OK(reg(
      {"merge",
       "self-merges renamed copies of the fleet (k-times-larger workload "
       "with identical structure)",
       {{"copies", ParamType::kInt, ParamValue(2),
         "total copies of the fleet, including the original", 1, 64}},
       MakeMerge}));
  SPES_RETURN_NOT_OK(reg(
      {"inject_burst",
       "adds a flash crowd: a fraction of functions gain `amplitude` extra "
       "invocations per minute over [at, at+width)",
       {{"at", ParamType::kInt, ParamValue(0), "first minute of the burst", 0,
         kIntParamMax},
        {"width", ParamType::kInt, ParamValue(10),
         "burst duration in minutes", 1, kIntParamMax},
        {"amplitude", ParamType::kInt, ParamValue(20),
         "extra invocations per affected minute", 1, 1000000},
        {"fraction", ParamType::kDouble, ParamValue(0.1),
         "fraction of functions hit by the burst", 0.0, 1.0},
        {"seed", ParamType::kInt, seed_default,
         "selection seed (functions are picked by name hash)"}},
       MakeInjectBurst}));
  SPES_RETURN_NOT_OK(reg(
      {"inject_drift",
       "concept drift at a point in time: selected function pairs swap "
       "their behaviour from minute `at` on (fleet totals conserved)",
       {{"at", ParamType::kInt, ParamValue(0), "minute the drift occurs", 0,
         kIntParamMax},
        {"fraction", ParamType::kDouble, ParamValue(0.5),
         "fraction of functions that drift", 0.0, 1.0},
        {"seed", ParamType::kInt, seed_default,
         "selection seed (functions are picked by name hash)"}},
       MakeInjectDrift}));
  SPES_RETURN_NOT_OK(reg(
      {"thin",
       "keeps each invocation independently with probability keep_prob "
       "(per-function seeded streams; fully reproducible)",
       {{"keep_prob", ParamType::kDouble, ParamValue(0.5),
         "per-invocation keep probability", 0.0, 1.0},
        {"seed", ParamType::kInt, ParamValue(1), "thinning seed"}},
       MakeThin}));
  SPES_RETURN_NOT_OK(reg(
      {"top_k",
       "keeps the k busiest functions (original fleet order preserved)",
       {{"k", ParamType::kInt, ParamValue(100), "functions to keep", 1,
         kIntParamMax},
        {"by", ParamType::kString, ParamValue("invocations"),
         "ranking metric: invocations, invoked_minutes, or peak"}},
       MakeTopK}));
  return Status::OK();
}

}  // namespace

Result<TransformSpec> ParseTransformSpec(const std::string& text) {
  return ParseNamedSpec(text, kKind);
}

Result<std::vector<TransformSpec>> ParseTransformChain(
    const std::string& text) {
  return ParseSpecChain<TransformSpec>(text, "transform chain",
                                       ParseTransformSpec);
}

std::string FormatTransformChain(const std::vector<TransformSpec>& chain) {
  return FormatSpecChain(chain, FormatNamedSpec);
}

template <>
TransformRegistry& TransformRegistry::Global() {
  static TransformRegistry* registry = [] {
    auto* r = new TransformRegistry(kKind);
    RegisterBuiltins(*r).CheckOK();
    return r;
  }();
  return *registry;
}

Result<Trace> ApplyTransforms(Trace trace,
                              const std::vector<TransformSpec>& chain) {
  const auto step_error = [](size_t index, const std::string& name,
                             const Status& cause) {
    return Status(cause.code(), "transform chain step " +
                                    std::to_string(index + 1) + " (" + name +
                                    "): " + cause.message());
  };
  for (size_t i = 0; i < chain.size(); ++i) {
    Result<TransformFn> fn = TransformRegistry::Global().Create(chain[i]);
    if (!fn.ok()) return step_error(i, chain[i].name, fn.status());
    Result<Trace> next = fn.ValueOrDie()(trace);
    if (!next.ok()) return step_error(i, chain[i].name, next.status());
    trace = std::move(next).ValueOrDie();
  }
  return trace;
}

}  // namespace spes
