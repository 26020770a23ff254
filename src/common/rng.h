// Deterministic pseudo-random number generation for workload synthesis.
//
// All stochastic behaviour in this repository flows through Rng so that a
// (seed, parameters) pair fully determines a generated trace and therefore
// every downstream experiment. The engine is xoshiro256** seeded via
// splitmix64, the combination recommended by the xoshiro authors; both are
// implemented here so the repository has no dependence on unspecified
// standard-library engine behaviour.

#ifndef SPES_COMMON_RNG_H_
#define SPES_COMMON_RNG_H_

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace spes {

/// \brief splitmix64 step: used for seeding and cheap hash mixing.
/// Inline because the latency lane derives one key per request with it.
inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// \brief Stable name-keyed seed: FNV-1a over `name`, finalized with
/// splitmix64 against `seed`. Keyed by *name* (not fleet index) so
/// selections survive reordering/filtering upstream; shared by the
/// stochastic trace transforms and the cluster hash/locality routers.
uint64_t MixNameSeed(const std::string& name, uint64_t seed);

/// \brief Deterministic random number generator (xoshiro256**).
class Rng {
 public:
  /// Seeds the engine; the same seed always yields the same stream.
  explicit Rng(uint64_t seed);

  /// \brief Next raw 64-bit value. Inline (as are UniformDouble() and
  /// Bernoulli()): the trace generator draws once per function-minute.
  uint64_t NextU64() {
    const uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// \brief Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// \brief Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// \brief Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// \brief True with probability p (clamped to [0,1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return UniformDouble() < p;
  }

  /// \brief Poisson-distributed count with the given mean (>= 0).
  ///
  /// Means where UsesKnuth() holds take Knuth's method,
  /// `PoissonBelow(PoissonLimit(mean))`; larger means take a normal
  /// approximation with rounding, which is ample for per-minute invocation
  /// counts. A caller that draws many counts at one such mean computes the
  /// limit once and calls PoissonBelow directly: the draws, and the
  /// stream they leave behind, are the same.
  int64_t Poisson(double mean);

  /// \brief Whether Poisson(mean) takes Knuth's method: mean in (0, 30).
  static bool UsesKnuth(double mean) { return mean > 0.0 && mean < 30.0; }

  /// \brief Knuth's limit `exp(-mean)` for PoissonBelow, from libm at run
  /// time (out of line, so a constant mean is never folded at compile time
  /// into a value libm might round differently).
  static double PoissonLimit(double mean);

  /// \brief Knuth's Poisson method given `limit` = exp(-mean), for a mean
  /// where UsesKnuth() holds: multiplies uniforms until the product falls
  /// to `limit` or below, and returns how many factors came before that.
  int64_t PoissonBelow(double limit) {
    double product = UniformDouble();
    int64_t count = 0;
    while (product > limit) {
      ++count;
      product *= UniformDouble();
    }
    return count;
  }

  /// \brief Exponential variate with the given rate (> 0).
  double Exponential(double rate);

  /// \brief Standard normal variate (Box-Muller).
  double Normal(double mean, double stddev);

  /// \brief Zipf-distributed integer in [1, n] with exponent s > 0.
  ///
  /// Used to reproduce the heavy-tailed invocation-count distribution of
  /// Fig. 3: a small number of hyper-frequent functions and a long tail of
  /// rarely invoked ones.
  int64_t Zipf(int64_t n, double s);

  /// \brief Samples an index according to `weights` (need not be normalized).
  size_t WeightedIndex(const std::vector<double>& weights);

  /// \brief Derives an independent child generator (for per-function streams).
  Rng Fork();

 private:
  uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// \brief Polar form of the first variate `Rng(seed).Normal(0.0, 1.0)`
/// returns: `radius * std::cos(theta)` equals it bit for bit.
struct NormalPolar {
  double radius = 0.0;
  double theta = 0.0;
};

/// \brief The first Box-Muller variate of `Rng(seed)` in polar form,
/// without building the Rng.
///
/// The two NextU64() draws it needs read only xoshiro state words 0-2,
/// so the fourth seeding splitmix64 step is skipped, and the sine of the
/// pair's second variate (which a throwaway Rng would cache and drop) is
/// never needed. A first uniform of exactly 0 would make Normal() draw
/// again; that case takes the full Rng path and returns {variate, 0.0},
/// since cos(0.0) == 1.0 exactly.
inline NormalPolar FirstNormalPolar(uint64_t seed) {
  uint64_t sm = seed;
  const uint64_t s0 = SplitMix64(&sm);
  const uint64_t s1 = SplitMix64(&sm);
  const uint64_t s2 = SplitMix64(&sm);
  // xoshiro256** output: rotl(s1 * 5, 7) * 9; the first step leaves
  // s1 ^ s2 ^ s0 in word 1 for the second output.
  const uint64_t r1 = std::rotl(s1 * 5, 7) * 9;
  const uint64_t r2 = std::rotl((s1 ^ s2 ^ s0) * 5, 7) * 9;
  const double u1 = static_cast<double>(r1 >> 11) * 0x1.0p-53;
  if (u1 <= 0.0) {
    Rng rng(seed);
    return {rng.Normal(0.0, 1.0), 0.0};
  }
  const double u2 = static_cast<double>(r2 >> 11) * 0x1.0p-53;
  return {std::sqrt(-2.0 * std::log(u1)), 2.0 * M_PI * u2};
}

/// \brief Exactly `Rng(seed).Normal(0.0, 1.0)`, bit for bit, at about
/// two thirds of its cost (see FirstNormalPolar).
inline double StandardNormalOnce(uint64_t seed) {
  const NormalPolar polar = FirstNormalPolar(seed);
  return polar.radius * std::cos(polar.theta);
}

}  // namespace spes

#endif  // SPES_COMMON_RNG_H_
