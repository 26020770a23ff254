// The built-in service-time models (constant, lognormal) and the
// LatencyModelRegistry::Global() that registers them.
//
// Both are pure functions of (cold?, key). `lognormal` takes its single
// Gaussian draw from the request key (the first variate of an Rng seeded
// with it, computed by StandardNormalOnce without building the Rng), so
// the sample depends only on the key — never on how many requests ran
// before it — which is what keeps latency runs thread-count-invariant and
// resumable.

#include "latency/latency_model.h"

#include <algorithm>
#include <cmath>
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

  void SampleMinute(const uint64_t* /*keys*/, const uint8_t* cold, size_t n,
                    double* out) const override {
    for (size_t i = 0; i < n; ++i) out[i] = cold[i] != 0 ? cold_ms_ : warm_ms_;
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

  /// median * exp(sigma * Z), Z = Rng(salted key).Normal(0.0, 1.0).
  double SampleMs(bool cold, uint64_t key) const override {
    const double z = StandardNormalOnce(cold ? key ^ kColdDrawSalt : key);
    return cold ? cold_median_ms_ * std::exp(cold_sigma_ * z)
                : warm_median_ms_ * std::exp(warm_sigma_ * z);
  }

  /// Three passes per block of requests — uniforms to polar form, the
  /// cosine, the exponential — each a tight loop around its libm calls,
  /// which runs markedly faster than one loop making all of them per
  /// request. Every sample is still a pure function of its key, and the
  /// arithmetic is SampleMs()'s, so the results match it bit for bit.
  void SampleMinute(const uint64_t* keys, const uint8_t* cold, size_t n,
                    double* out) const override {
    constexpr size_t kBlock = 256;
    double theta[kBlock];
    for (size_t begin = 0; begin < n; begin += kBlock) {
      const size_t m = std::min(kBlock, n - begin);
      const uint64_t* block_keys = keys + begin;
      const uint8_t* block_cold = cold + begin;
      double* z = out + begin;
      for (size_t i = 0; i < m; ++i) {
        const NormalPolar polar = FirstNormalPolar(
            block_cold[i] != 0 ? block_keys[i] ^ kColdDrawSalt
                               : block_keys[i]);
        z[i] = polar.radius;
        theta[i] = polar.theta;
      }
      for (size_t i = 0; i < m; ++i) z[i] *= std::cos(theta[i]);
      for (size_t i = 0; i < m; ++i) {
        const bool is_cold = block_cold[i] != 0;
        const double median = is_cold ? cold_median_ms_ : warm_median_ms_;
        const double sigma = is_cold ? cold_sigma_ : warm_sigma_;
        z[i] = median * std::exp(sigma * z[i]);
      }
    }
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
             "service time of a cold-start request, in milliseconds", 0.0,
             kMaxServiceMs},
            {"warm_ms", ParamType::kDouble, ParamValue(10.0),
             "service time of a warm request, in milliseconds", 0.0,
             kMaxServiceMs}},
           [](const LatencyModelParams& params)
               -> Result<std::unique_ptr<LatencyModel>> {
             return std::unique_ptr<LatencyModel>(new ConstantModel(
                 params.GetDouble("cold_ms"), params.GetDouble("warm_ms")));
           }})
      .CheckOK();
  registry
      .Register(
          {"lognormal",
           "seeded lognormal service times: median_ms * exp(sigma * Z) per "
           "request, separate cold/warm streams",
           {{"cold_median_ms", ParamType::kDouble, ParamValue(800.0),
             "median service time of a cold-start request, in milliseconds",
             0.0, kMaxServiceMs},
            {"cold_sigma", ParamType::kDouble, ParamValue(0.5),
             "log-space spread of the cold distribution (0 = constant)", 0.0,
             8.0},
            {"warm_median_ms", ParamType::kDouble, ParamValue(8.0),
             "median service time of a warm request, in milliseconds", 0.0,
             kMaxServiceMs},
            {"warm_sigma", ParamType::kDouble, ParamValue(0.3),
             "log-space spread of the warm distribution (0 = constant)", 0.0,
             8.0}},
           [](const LatencyModelParams& params)
               -> Result<std::unique_ptr<LatencyModel>> {
             return std::unique_ptr<LatencyModel>(new LognormalModel(
                 params.GetDouble("cold_median_ms"),
                 params.GetDouble("cold_sigma"),
                 params.GetDouble("warm_median_ms"),
                 params.GetDouble("warm_sigma")));
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
