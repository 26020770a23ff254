// SPES's tunables and constants. `SpesConfig` holds exactly the ten
// parameters the `spes` policy spec exposes — the provision thresholds the
// paper evaluates (§V-A2: theta_prewarm = 2; theta_givenup = 5 for
// dense/pulsed and 1 for the other types), the give-up scaler and alpha it
// sweeps (Fig. 13) and the four ablation switches (Figs. 14-15). Everything
// else — Table I's definitional constants and the §IV-B assignment and
// §IV-C adaptive constants — takes one value and is a named constant below.

#ifndef SPES_CORE_CONFIG_H_
#define SPES_CORE_CONFIG_H_

#include <algorithm>
#include <cstdint>
#include <limits>

namespace spes {

// --- Table I definitional constants ---------------------------------------

/// Always-warm: total idle time <= horizon / kAlwaysWarmIdleDivisor
/// (the paper's "one-thousandth the observing time").
inline constexpr int kAlwaysWarmIdleDivisor = 1000;

/// Regular: P95({WT}) - P5({WT}) <= kRegularPercentileBand ...
inline constexpr double kRegularPercentileBand = 1.0;
/// ... or CV({WT}) <= kRegularCvMax.
inline constexpr double kRegularCvMax = 0.01;
/// Minimum completed WTs before a function can be called (appro-)regular.
inline constexpr int kMinWtsForRegular = 3;

/// Appro-regular: the first `kApproNumModes` WT modes must cover at least
/// `kApproCoverage` of the WT sequence.
inline constexpr int kApproNumModes = 3;
inline constexpr double kApproCoverage = 0.9;

/// Dense: P90({WT}) <= kDenseP90Max (the paper's "small constant").
inline constexpr double kDenseP90Max = 2.0;
/// Number of WT modes whose range forms the dense predictive interval.
inline constexpr int kDenseNumModes = 3;

/// Successive: min({AT}) >= kSuccessiveGamma1 and
/// min({AN}) >= kSuccessiveGamma2, with gamma1 < gamma2.
inline constexpr int kSuccessiveGamma1 = 3;
inline constexpr int kSuccessiveGamma2 = 5;
/// Minimum number of waves before the successive pattern is trusted.
inline constexpr int kSuccessiveMinWaves = 2;

// --- Indeterminate assignment (§IV-B) --------------------------------------

/// Minimum invoked minutes in training before the indeterminate
/// assignment is attempted; sparser functions stay "unknown" (the paper
/// leaves near-empty histories uncategorized).
inline constexpr int kIndeterminateMinInvokedMinutes = 3;
/// Validation window replayed when assigning indeterminate functions.
inline constexpr int kValidationMinutes = 2 * 1440;
/// T-lagged co-occurrence threshold for linking functions, and max lag.
inline constexpr double kTcorThreshold = 0.5;
inline constexpr int kTcorMaxLag = 10;
/// Minimum arrivals of the target before a T-COR is trusted.
inline constexpr int kTcorMinTargetArrivals = 5;
/// Precision floor for a link: the fraction of the candidate's firings
/// that are actually followed by the target (within lag +- prewarm).
/// T-COR alone is recall-oriented; a hyperactive candidate would
/// otherwise pre-warm the target constantly and burn memory.
inline constexpr double kTcorMinPrecision = 0.15;

/// "Possible": treat predictive values as discrete when their range
/// exceeds this threshold, continuous otherwise (§IV-D).
inline constexpr int kPossibleRangeDiscreteThreshold = 10;
/// Cap on stored predictive values for "possible" functions.
inline constexpr int kPossibleMaxValues = 5;

// --- Adaptive strategies (§IV-C) --------------------------------------------

/// Online WTs required before the adjusting strategy activates (S1).
inline constexpr int kAdjustMinSamples = 5;
/// Minimum online WTs with a repeated mode before an unknown/unseen
/// function is late-categorized as newly-possible (S3).
inline constexpr int kNewlyPossibleMinWts = 3;
/// Online correlation: max same-trigger candidates tracked per unseen
/// function, and the COR gap that expels a candidate.
inline constexpr int kOnlineCorrMaxCandidates = 20;
inline constexpr double kOnlineCorrDropGap = 0.3;
/// Minutes a correlation-triggered pre-warm holds the target loaded.
inline constexpr int kCorrPrewarmHold = 12;

/// \brief The parameters of SPES a policy spec can set (the `spes` registry
/// entry declares one ParamSpec per data member).
struct SpesConfig {
  // --- Provision parameters (§IV-D, §V-A2) -------------------------------

  /// Pre-load when a predicted invocation falls in [t - theta, t + theta].
  int theta_prewarm = 2;
  /// Eviction thresholds: evict when the current WT reaches theta_givenup.
  int theta_givenup_default = 1;
  int theta_givenup_dense = 5;
  int theta_givenup_pulsed = 5;
  /// Multiplier applied to every theta_givenup (the Fig. 13(b) scaler).
  int givenup_scaler = 1;

  /// \brief `theta_givenup` x max(1, givenup_scaler), clamped to INT_MAX
  /// (both factors may be INT_MAX; any such threshold means "never").
  [[nodiscard]] int ScaledGivenUp(int theta_givenup) const {
    const int64_t scaled = int64_t{theta_givenup} *
                           std::max<int64_t>(1, givenup_scaler);
    return static_cast<int>(
        std::min<int64_t>(scaled, std::numeric_limits<int>::max()));
  }

  // --- Indeterminate assignment (§IV-B) ----------------------------------

  /// Scaling factor of the rise-rate rule; smaller alpha weights cold starts
  /// more heavily than wasted memory.
  double alpha = 0.5;

  // --- Ablation switches (RQ4) --------------------------------------------

  bool enable_correlated = true;    ///< Fig. 14 "w/o Corr" when false
  bool enable_online_corr = true;   ///< Fig. 14 "w/o Online-Corr" when false
  bool enable_forgetting = true;    ///< Fig. 15 "w/o Forgetting" when false
  bool enable_adjusting = true;     ///< Fig. 15 "w/o Adjusting" when false
};

}  // namespace spes

#endif  // SPES_CORE_CONFIG_H_
