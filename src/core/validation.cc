#include "core/validation.h"

#include <algorithm>
#include <limits>

namespace spes {

namespace {

constexpr int64_t kInfeasibleCost = std::numeric_limits<int64_t>::max() / 4;

int64_t CsOf(const StrategyCost& c) {
  return c.feasible ? c.cold_starts : kInfeasibleCost;
}
int64_t WmOf(const StrategyCost& c) {
  return c.feasible ? c.wasted_minutes : kInfeasibleCost;
}

// The keep-alive replay behind D1 and D3. An arrival loads the function, a
// cold start unless it was loaded or predicted near; a minute `model`
// predicts near pre-loads it; otherwise it stays loaded until
// `theta_givenup` minutes after the last arrival. A model that predicts
// nothing makes this the pulsed strategy.
StrategyCost ReplayKeepAlive(std::span<const uint32_t> validation,
                             const PredictiveModel& model, int theta_prewarm,
                             int theta_givenup) {
  StrategyCost cost;
  cost.feasible = true;
  int last_arrival = -1;
  bool loaded = false;
  int idle = 0;
  const int n = static_cast<int>(validation.size());
  for (int t = 0; t < n; ++t) {
    const bool invoked = validation[static_cast<size_t>(t)] > 0;
    const bool predicted_near =
        last_arrival >= 0 && model.PredictsNear(last_arrival, t, theta_prewarm);
    if (invoked) {
      if (!loaded && !predicted_near) ++cost.cold_starts;
      loaded = true;
      idle = 0;
      last_arrival = t;
    } else {
      ++idle;
      if (predicted_near) {
        loaded = true;
        ++cost.wasted_minutes;
      } else if (loaded) {
        if (idle >= theta_givenup) {
          loaded = false;
        } else {
          ++cost.wasted_minutes;
        }
      }
    }
  }
  return cost;
}

}  // namespace

StrategyCost ReplayPulsed(std::span<const uint32_t> validation, int theta) {
  return ReplayKeepAlive(validation, PredictiveModel{}, 0, theta);
}

StrategyCost ReplayCorrelated(
    std::span<const uint32_t> validation,
    const std::vector<std::span<const uint32_t>>& candidate_validation,
    const std::vector<int>& lags, int hold, int theta_prewarm) {
  StrategyCost cost;
  if (candidate_validation.empty()) return cost;  // infeasible
  cost.feasible = true;
  bool loaded = false;
  int hold_until = -1;
  const int n = static_cast<int>(validation.size());
  for (int t = 0; t < n; ++t) {
    // A candidate firing at t - lag signals an imminent target invocation;
    // pre-warm slightly early (theta_prewarm) and hold briefly.
    for (size_t k = 0; k < candidate_validation.size(); ++k) {
      const int lag = lags[k];
      const int64_t window = int64_t{lag} + theta_prewarm;
      for (int s = static_cast<int>(std::max<int64_t>(0, t - window)); s <= t;
           ++s) {
        if (s < static_cast<int>(candidate_validation[k].size()) &&
            candidate_validation[k][static_cast<size_t>(s)] > 0 &&
            t - s <= window) {
          hold_until = std::max(hold_until, s + lag + hold);
          break;
        }
      }
    }
    const bool invoked = validation[static_cast<size_t>(t)] > 0;
    const bool prewarmed = t <= hold_until;
    if (invoked) {
      if (!loaded && !prewarmed) ++cost.cold_starts;
      loaded = true;
    } else {
      if (prewarmed) {
        ++cost.wasted_minutes;
        loaded = true;
      } else {
        loaded = false;
      }
    }
  }
  return cost;
}

StrategyCost ReplayPossible(std::span<const uint32_t> validation,
                            const PredictiveModel& possible_model,
                            const SpesConfig& config) {
  if (possible_model.type != FunctionType::kPossible) return {};
  return ReplayKeepAlive(validation, possible_model, config.theta_prewarm,
                         config.ScaledGivenUp(config.theta_givenup_default));
}

AssignmentDecision ChooseAssignment(const StrategyCost& pulsed,
                                    const StrategyCost& correlated,
                                    const StrategyCost& possible,
                                    double alpha) {
  AssignmentDecision decision;
  decision.pulsed = pulsed;
  decision.correlated = correlated;
  decision.possible = possible;
  if (!pulsed.feasible && !correlated.feasible && !possible.feasible) {
    return decision;  // kUnknown
  }

  const FunctionType types[3] = {FunctionType::kPulsed,
                                 FunctionType::kCorrelated,
                                 FunctionType::kPossible};
  const StrategyCost* costs[3] = {&pulsed, &correlated, &possible};

  int cs_winner = 0, wm_winner = 0;
  for (int i = 1; i < 3; ++i) {
    if (CsOf(*costs[i]) < CsOf(*costs[cs_winner])) cs_winner = i;
    if (WmOf(*costs[i]) < WmOf(*costs[wm_winner])) wm_winner = i;
  }
  if (cs_winner == wm_winner) {
    decision.type = types[cs_winner];  // dominant winner
    return decision;
  }
  // Rise-rate rule: dcs is the relative cold-start penalty of taking the
  // wm-winner; dwm the relative memory penalty of taking the cs-winner.
  // The cs-winner prevails when its cold-start advantage outweighs the
  // alpha-scaled memory penalty (dcs >= alpha * dwm) — smaller alpha puts
  // more importance on cold starts, per §IV-B2. (The paper's formula as
  // printed compares dcs*alpha <= dwm, which inverts as the cs-winner's
  // advantage grows; this reading matches the stated role of alpha and
  // the paper's observed aggressive assignment of "possible" functions.)
  const double cs_i = static_cast<double>(CsOf(*costs[cs_winner]));
  const double cs_j = static_cast<double>(CsOf(*costs[wm_winner]));
  const double wm_i = static_cast<double>(WmOf(*costs[cs_winner]));
  const double wm_j = static_cast<double>(WmOf(*costs[wm_winner]));
  const double dcs = (cs_j - cs_i) / std::max(cs_i, 1.0);
  const double dwm = (wm_i - wm_j) / std::max(wm_j, 1.0);
  decision.type = dcs >= alpha * dwm ? types[cs_winner] : types[wm_winner];
  return decision;
}

}  // namespace spes
