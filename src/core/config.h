// All tunables of SPES, with the defaults used in the paper's evaluation
// (§V-A2: theta_prewarm = 2; theta_givenup = 5 for dense/pulsed and 1 for
// the other types) and the definitional constants of Table I.

#ifndef SPES_CORE_CONFIG_H_
#define SPES_CORE_CONFIG_H_

#include <algorithm>
#include <cstdint>
#include <limits>

namespace spes {

/// \brief Configuration for SPES categorization, prediction and provision.
struct SpesConfig {
  // --- Table I definitional constants -------------------------------------

  /// Always-warm: total idle time <= horizon / always_warm_idle_divisor
  /// (the paper's "one-thousandth the observing time").
  int always_warm_idle_divisor = 1000;

  /// Regular: P95({WT}) - P5({WT}) <= regular_percentile_band ...
  double regular_percentile_band = 1.0;
  /// ... or CV({WT}) <= regular_cv_max.
  double regular_cv_max = 0.01;
  /// Minimum completed WTs before a function can be called (appro-)regular.
  int min_wts_for_regular = 3;

  /// Appro-regular: the first `appro_num_modes` WT modes must cover at least
  /// `appro_coverage` of the WT sequence.
  int appro_num_modes = 3;
  double appro_coverage = 0.9;

  /// Dense: P90({WT}) <= dense_p90_max (the paper's "small constant").
  double dense_p90_max = 2.0;
  /// Number of WT modes whose range forms the dense predictive interval.
  int dense_num_modes = 3;

  /// Successive: min({AT}) >= successive_gamma1 and
  /// min({AN}) >= successive_gamma2, with gamma1 < gamma2.
  int successive_gamma1 = 3;
  int successive_gamma2 = 5;
  /// Minimum number of waves before the successive pattern is trusted.
  int successive_min_waves = 2;

  // --- Indeterminate assignment (§IV-B) ------------------------------------

  /// Scaling factor of the rise-rate rule; smaller alpha weights cold starts
  /// more heavily than wasted memory.
  double alpha = 0.5;
  /// Minimum invoked minutes in training before the indeterminate
  /// assignment is attempted; sparser functions stay "unknown" (the paper
  /// leaves near-empty histories uncategorized).
  int indeterminate_min_invoked_minutes = 3;
  /// Validation window replayed when assigning indeterminate functions.
  int validation_minutes = 2 * 1440;
  /// T-lagged co-occurrence threshold for linking functions, and max lag.
  double tcor_threshold = 0.5;
  int tcor_max_lag = 10;
  /// Minimum arrivals of the target before a T-COR is trusted.
  int tcor_min_target_arrivals = 5;
  /// Precision floor for a link: the fraction of the candidate's firings
  /// that are actually followed by the target (within lag +- prewarm).
  /// T-COR alone is recall-oriented; a hyperactive candidate would
  /// otherwise pre-warm the target constantly and burn memory.
  double tcor_min_precision = 0.15;

  /// "Possible": treat predictive values as discrete when their range
  /// exceeds this threshold, continuous otherwise (§IV-D).
  int possible_range_discrete_threshold = 10;
  /// Cap on stored predictive values for "possible" functions.
  int possible_max_values = 5;

  // --- Provision parameters (§IV-D, §V-A2) ---------------------------------

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

  // --- Adaptive strategies (§IV-C) ------------------------------------------

  /// Online WTs required before the adjusting strategy activates (S1).
  int adjust_min_samples = 5;
  /// Minimum online WTs with a repeated mode before an unknown/unseen
  /// function is late-categorized as newly-possible (S3).
  int newly_possible_min_wts = 3;
  /// Online correlation: max same-trigger candidates tracked per unseen
  /// function, and the COR gap that expels a candidate.
  int online_corr_max_candidates = 20;
  double online_corr_drop_gap = 0.3;
  /// Minutes a correlation-triggered pre-warm holds the target loaded.
  int corr_prewarm_hold = 12;

  // --- Ablation switches (RQ4) ----------------------------------------------

  bool enable_correlated = true;    ///< Fig. 14 "w/o Corr" when false
  bool enable_online_corr = true;   ///< Fig. 14 "w/o Online-Corr" when false
  bool enable_forgetting = true;    ///< Fig. 15 "w/o Forgetting" when false
  bool enable_adjusting = true;     ///< Fig. 15 "w/o Adjusting" when false
};

}  // namespace spes

#endif  // SPES_CORE_CONFIG_H_
