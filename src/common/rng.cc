#include "common/rng.h"

#include <cmath>
#include <cstdlib>

namespace spes {

uint64_t MixNameSeed(const std::string& name, uint64_t seed) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis / prime
  for (unsigned char c : name) h = (h ^ c) * 1099511628211ULL;
  uint64_t state = h ^ (seed + 0x9e3779b97f4a7c15ULL);
  return SplitMix64(&state);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  if (lo > hi) std::abort();
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(NextU64());  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  uint64_t r;
  do {
    r = NextU64();
  } while (r >= limit);
  return lo + static_cast<int64_t>(r % span);
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

double Rng::PoissonLimit(double mean) { return std::exp(-mean); }

int64_t Rng::Poisson(double mean) {
  if (UsesKnuth(mean)) return PoissonBelow(PoissonLimit(mean));
  if (mean <= 0.0) return 0;
  // Normal approximation, adequate for workload synthesis at high rates.
  const double value = Normal(mean, std::sqrt(mean));
  return value < 0.0 ? 0 : static_cast<int64_t>(std::llround(value));
}

double Rng::Exponential(double rate) {
  if (rate <= 0.0) std::abort();
  double u;
  do {
    u = UniformDouble();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

double Rng::Normal(double mean, double stddev) {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1;
  do {
    u1 = UniformDouble();
  } while (u1 <= 0.0);
  const double u2 = UniformDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(theta);
  have_cached_normal_ = true;
  return mean + stddev * radius * std::cos(theta);
}

int64_t Rng::Zipf(int64_t n, double s) {
  if (n <= 0) std::abort();
  if (n == 1) return 1;
  // Classic acceptance-rejection with a Pareto envelope (Devroye):
  // exact for s > 1 and fast enough for trace synthesis. Exponents at or
  // below 1 are clamped just above 1, which is indistinguishable at the
  // fleet sizes we generate.
  if (s <= 1.0) s = 1.0 + 1e-3;
  const double b = std::pow(2.0, s - 1.0);
  for (;;) {
    double u;
    do {
      u = UniformDouble();
    } while (u <= 0.0);
    const double v = UniformDouble();
    const double x = std::floor(std::pow(u, -1.0 / (s - 1.0)));
    if (x < 1.0 || x > static_cast<double>(n)) continue;
    const double t = std::pow(1.0 + 1.0 / x, s - 1.0);
    if (v * x * (t - 1.0) / (b - 1.0) <= t / b) {
      return static_cast<int64_t>(x);
    }
  }
}

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w > 0.0 ? w : 0.0;
  if (total <= 0.0) std::abort();
  double target = UniformDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) return i;
    target -= w;
  }
  return weights.size() - 1;
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace spes
