// The built-in service-time models (constant, lognormal) and the
// LatencyModelRegistry::Global() that registers them.
//
// Both are pure functions of (cold?, key). `lognormal` seeds a throwaway
// Rng from the request key for its single Gaussian draw, so the sample
// depends only on the key — never on how many requests ran before it —
// which is what keeps latency runs thread-count-invariant and resumable.

#include "latency/latency_model.h"

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "common/rng.h"

namespace spes {

namespace {

constexpr char kKind[] = "latency model";

/// Salt folded into the key for cold draws so a model's cold and warm
/// distributions are independent streams even at the same key.
constexpr uint64_t kColdDrawSalt = 0xc01d5742a5a1f00dULL;

/// `constant` — degenerate distributions: every cold request takes
/// cold_ms, every warm request warm_ms. The key is ignored. Useful for
/// hand-computable tests and for isolating pure queueing effects.
class ConstantModel : public LatencyModel {
 public:
  ConstantModel(double cold_ms, double warm_ms)
      : cold_ms_(cold_ms), warm_ms_(warm_ms) {}

  std::string name() const override { return "constant"; }

  double SampleMs(bool cold, uint64_t /*key*/) const override {
    return cold ? cold_ms_ : warm_ms_;
  }

 private:
  double cold_ms_;
  double warm_ms_;
};

/// `lognormal` — median * exp(sigma * Z) with Z standard normal, the
/// classic heavy-tailed service-time shape (FaaS measurement studies
/// report lognormal-ish warm latencies with a fat cold tail). sigma=0
/// degenerates to the constant model at the medians.
class LognormalModel : public LatencyModel {
 public:
  LognormalModel(double cold_median_ms, double cold_sigma,
                 double warm_median_ms, double warm_sigma)
      : cold_median_ms_(cold_median_ms),
        cold_sigma_(cold_sigma),
        warm_median_ms_(warm_median_ms),
        warm_sigma_(warm_sigma) {}

  std::string name() const override { return "lognormal"; }

  double SampleMs(bool cold, uint64_t key) const override {
    Rng rng(cold ? key ^ kColdDrawSalt : key);
    const double z = rng.Normal(0.0, 1.0);
    return cold ? cold_median_ms_ * std::exp(cold_sigma_ * z)
                : warm_median_ms_ * std::exp(warm_sigma_ * z);
  }

 private:
  double cold_median_ms_;
  double cold_sigma_;
  double warm_median_ms_;
  double warm_sigma_;
};

constexpr double kMaxServiceMs = 1e9;  // ~11.6 days; caps pathological specs

void RegisterBuiltinLatencyModels(LatencyModelRegistry& registry) {
  registry
      .Register(
          {"constant",
           "fixed service times: cold requests take cold_ms, warm requests "
           "warm_ms",
           {{"cold_ms", ParamType::kDouble, ParamValue(1000.0),
             "service time of a cold-start request, in milliseconds"},
            {"warm_ms", ParamType::kDouble, ParamValue(10.0),
             "service time of a warm request, in milliseconds"}},
           [](const LatencyModelParams& params)
               -> Result<std::unique_ptr<LatencyModel>> {
             SPES_ASSIGN_OR_RETURN(
                 const double cold_ms,
                 DoubleParamInRange(params, "constant", "cold_ms", 0.0,
                                    kMaxServiceMs));
             SPES_ASSIGN_OR_RETURN(
                 const double warm_ms,
                 DoubleParamInRange(params, "constant", "warm_ms", 0.0,
                                    kMaxServiceMs));
             return std::unique_ptr<LatencyModel>(
                 new ConstantModel(cold_ms, warm_ms));
           }})
      .CheckOK();
  registry
      .Register(
          {"lognormal",
           "seeded lognormal service times: median_ms * exp(sigma * Z) per "
           "request, separate cold/warm streams",
           {{"cold_median_ms", ParamType::kDouble, ParamValue(800.0),
             "median service time of a cold-start request, in milliseconds"},
            {"cold_sigma", ParamType::kDouble, ParamValue(0.5),
             "log-space spread of the cold distribution (0 = constant)"},
            {"warm_median_ms", ParamType::kDouble, ParamValue(8.0),
             "median service time of a warm request, in milliseconds"},
            {"warm_sigma", ParamType::kDouble, ParamValue(0.3),
             "log-space spread of the warm distribution (0 = constant)"}},
           [](const LatencyModelParams& params)
               -> Result<std::unique_ptr<LatencyModel>> {
             SPES_ASSIGN_OR_RETURN(
                 const double cold_median_ms,
                 DoubleParamInRange(params, "lognormal", "cold_median_ms", 0.0,
                                    kMaxServiceMs));
             SPES_ASSIGN_OR_RETURN(
                 const double cold_sigma,
                 DoubleParamInRange(params, "lognormal", "cold_sigma", 0.0,
                                    8.0));
             SPES_ASSIGN_OR_RETURN(
                 const double warm_median_ms,
                 DoubleParamInRange(params, "lognormal", "warm_median_ms", 0.0,
                                    kMaxServiceMs));
             SPES_ASSIGN_OR_RETURN(
                 const double warm_sigma,
                 DoubleParamInRange(params, "lognormal", "warm_sigma", 0.0,
                                    8.0));
             return std::unique_ptr<LatencyModel>(new LognormalModel(
                 cold_median_ms, cold_sigma, warm_median_ms, warm_sigma));
           }})
      .CheckOK();
}

}  // namespace

Result<LatencyModelSpec> ParseLatencyModelSpec(const std::string& text) {
  return ParseNamedSpec(text, kKind);
}

template <>
LatencyModelRegistry& LatencyModelRegistry::Global() {
  static LatencyModelRegistry* registry = [] {
    auto* r = new LatencyModelRegistry(kKind);
    RegisterBuiltinLatencyModels(*r);
    return r;
  }();
  return *registry;
}

}  // namespace spes
