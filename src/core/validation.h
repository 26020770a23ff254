// Indeterminate function assignment (§IV-B2).
//
// Functions that no deterministic definition captures are assigned to one
// of three supplementary strategies by *replaying a validation window*
// under each strategy and comparing the cold starts (cs) and wasted memory
// (wm) each incurs:
//
//   D1 pulsed:     tolerate the first cold start of a burst and stay warm
//                  until the idle time reaches theta_givenup_pulsed;
//   D2 correlated: pre-warm whenever a linked (high T-COR) function fires;
//   D3 possible:   predict the next invocation from repeated WT values.
//
// If one strategy minimises both cs and wm it wins outright. Otherwise the
// rise-rate rule applies: with i the cs-minimiser and j the wm-minimiser,
// compute dcs = (cs_j - cs_i)/cs_i and dwm = (wm_i - wm_j)/wm_j and pick i
// iff dcs * alpha <= dwm (small alpha favours cold-start reduction).

#ifndef SPES_CORE_VALIDATION_H_
#define SPES_CORE_VALIDATION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/categorizer.h"
#include "core/config.h"
#include "core/correlation.h"
#include "core/types.h"

namespace spes {

/// \brief Cold starts and wasted memory a strategy incurred in validation.
struct StrategyCost {
  int64_t cold_starts = 0;
  int64_t wasted_minutes = 0;
  bool feasible = false;  ///< strategy applicable to this function at all
};

/// \brief Replays a keep-alive-for-theta strategy (D1 pulsed) over the
/// validation slice of one function.
StrategyCost ReplayPulsed(std::span<const uint32_t> validation, int theta);

/// \brief Replays the correlated strategy: the target pre-warms for
/// `hold` minutes whenever any linked candidate fires `lag` slots earlier.
///
/// `candidate_validation` holds the linked candidates' validation slices
/// (parallel to `lags`). Infeasible when there are no links.
StrategyCost ReplayCorrelated(
    std::span<const uint32_t> validation,
    const std::vector<std::span<const uint32_t>>& candidate_validation,
    const std::vector<int>& lags, int hold, int theta_prewarm);

/// \brief Replays the possible strategy: predict the next invocation as
/// last-arrival + each repeated WT value; pre-load within +/-theta_prewarm
/// of a prediction (PredictiveModel::PredictsNear, the rule SpesPolicy
/// pre-loads by); evict after theta_givenup idle minutes otherwise.
/// Infeasible when the training WTs have no repeated value.
StrategyCost ReplayPossible(std::span<const uint32_t> validation,
                            const PredictiveModel& possible_model,
                            const SpesConfig& config);

/// \brief Outcome of the three-way comparison.
struct AssignmentDecision {
  FunctionType type = FunctionType::kUnknown;
  StrategyCost pulsed;
  StrategyCost correlated;
  StrategyCost possible;
};

/// \brief Applies the paper's dominant-winner / rise-rate selection over
/// the three strategy costs. Returns kUnknown when none is feasible.
AssignmentDecision ChooseAssignment(const StrategyCost& pulsed,
                                    const StrategyCost& correlated,
                                    const StrategyCost& possible,
                                    double alpha);

}  // namespace spes

#endif  // SPES_CORE_VALIDATION_H_
