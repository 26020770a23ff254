// Deterministic function categorization (§IV-A) with the "forgetting"
// adaptive strategy (§IV-B1), producing per-function predictive models.
//
// Categorization follows Table I's priority: always-warm, then regular
// (with slacking), appro-regular, dense, successive. A function matching an
// earlier type never reaches a later one. Functions matching none are
// handed to the indeterminate assignment (validation.h). Each function
// here depends only on its input series; the thresholds are the Table I
// constants of core/config.h.

#ifndef SPES_CORE_CATEGORIZER_H_
#define SPES_CORE_CATEGORIZER_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "core/series_features.h"
#include "core/types.h"

namespace spes {

/// \brief Per-function predictive model: the type plus the values used to
/// predict the next invocation (§IV-D).
struct PredictiveModel {
  FunctionType type = FunctionType::kUnknown;

  /// Discrete predictive WT values:
  ///   regular       -> { median(WT) }
  ///   appro-regular -> first n WT modes
  ///   possible      -> WT values occurring more than once
  std::vector<int64_t> values;

  /// Continuous predictive interval (dense: range of the first k WT modes;
  /// possible with a narrow value range). Valid when `continuous` is true.
  int64_t range_lo = 0;
  int64_t range_hi = 0;
  bool continuous = false;

  /// Dispersion of the offline WTs (the adjusting strategy's drift gate).
  double offline_wt_stddev = 0.0;

  /// Minutes of history the model was fit on after forgetting trimmed the
  /// prefix (0 = full window used).
  int forgotten_prefix_minutes = 0;

  /// \brief True when minute `t` lies within `theta` of an invocation
  /// predicted from the arrival at `last_arrival`: anywhere inside
  /// last_arrival + [range_lo, range_hi] when `continuous`, else within
  /// theta of last_arrival + v for some value v.
  [[nodiscard]] bool PredictsNear(int64_t last_arrival, int64_t t,
                                  int theta) const {
    if (continuous) {
      return t + theta >= last_arrival + range_lo &&
             t - theta <= last_arrival + range_hi;
    }
    return std::any_of(values.begin(), values.end(), [&](int64_t v) {
      return std::llabs(last_arrival + v - t) <= theta;
    });
  }
};

/// \brief Tests the Table I "regular" rule (before slacking) on a WT set.
bool WtsLookRegular(const std::vector<int64_t>& wts);

/// \brief Full regular test: raw WTs, then boundary-trimmed, then merged.
///
/// On success, *regular_wts receives the WT sequence variant that passed
/// (used to fit the median predictive value).
bool PassesRegularWithSlacking(const std::vector<int64_t>& wts,
                               std::vector<int64_t>* regular_wts);

/// \brief Attempts deterministic categorization of one count sequence.
///
/// Returns a model with type kUnknown when no deterministic type matches.
PredictiveModel CategorizeDeterministic(std::span<const uint32_t> counts);

/// \brief Deterministic categorization with forgetting: retries on suffixes
/// of the window, dropping whole days from the front down to half the
/// window, and keeps the first (most-history) success. SpesPolicy::Train
/// calls it only when `enable_forgetting` is on.
PredictiveModel CategorizeWithForgetting(std::span<const uint32_t> counts);

/// \brief Fits the "possible" predictive values (repeated WTs) if any;
/// returns a kUnknown model when the WT multiset has no repeats.
PredictiveModel FitPossibleModel(const std::vector<int64_t>& wts);

}  // namespace spes

#endif  // SPES_CORE_CATEGORIZER_H_
