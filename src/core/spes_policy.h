// SPES: the differentiated provisioning scheduler (§IV, Algorithm 1).
//
// Offline (Train): per-function WT/AT/AN features are extracted from the
// training window; functions are categorized deterministically (with the
// forgetting fallback), indeterminate functions are assigned to pulsed /
// correlated / possible by validation replay, and inter-function
// correlation links are mined from T-lagged co-occurrence.
//
// Online (OnMinute): arrivals refresh each function's waiting-time state
// and (adaptive strategy S2) drift-adjust its predictive values; unknown
// and unseen functions are late-categorized when their online WTs develop
// repeated modes (S3); unseen functions are pre-warmed through same-trigger
// online correlation. Provision follows Algorithm 1: a function is
// pre-loaded when a predicted invocation falls within +/-theta_prewarm of
// now, and evicted once its current WT reaches its type's theta_givenup.

#ifndef SPES_CORE_SPES_POLICY_H_
#define SPES_CORE_SPES_POLICY_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/categorizer.h"
#include "core/config.h"
#include "core/correlation.h"
#include "core/types.h"
#include "sim/policy.h"

namespace spes {

/// \brief The SPES provisioning policy.
class SpesPolicy : public Policy {
 public:
  explicit SpesPolicy(SpesConfig config = {});

  [[nodiscard]] std::string name() const override { return "SPES"; }
  void Train(const Trace& trace, int train_minutes) override;
  void OnMinute(int t, const std::vector<Invocation>& arrivals,
                MemSet* mem) override;

  /// \name Checkpointing: every field OnMinute() mutates — per-function
  /// states (including the predictive models, which drift under S2/S3),
  /// correlation links, online-correlation trackers and the adaptive
  /// counters. The config is NOT serialized; restore into a policy
  /// constructed with the same SpesConfig.
  /// @{
  [[nodiscard]] bool SupportsCheckpoint() const override { return true; }
  [[nodiscard]] Result<std::string> SaveState() const override;
  Status RestoreState(const std::string& blob) override;
  /// @}

  /// \brief Current type of function `f` (may change online via S3).
  [[nodiscard]] FunctionType TypeOf(size_t f) const { return states_[f].model.type; }

  /// \brief Number of functions per type after training/simulation.
  [[nodiscard]] std::array<int64_t, kNumFunctionTypes> CountByType() const;

  /// \brief Mined candidate->target links (training-time "correlated").
  [[nodiscard]] const std::vector<std::vector<CorrelationLink>>& links_by_candidate() const {
    return links_by_candidate_;
  }

  [[nodiscard]] const SpesConfig& config() const { return config_; }

  /// \brief Number of unknown functions re-categorized by forgetting
  /// (training) and by online adjusting (S3), for the Fig. 15 analysis.
  [[nodiscard]] int64_t forgetting_recategorized() const {
    return forgetting_recategorized_;
  }
  [[nodiscard]] int64_t online_recategorized() const { return online_recategorized_; }

 private:
  struct FunctionState {
    PredictiveModel model;
    int last_arrival = -1;  ///< absolute minute of the most recent arrival
    int current_wt = 0;     ///< idle minutes since last arrival
    bool seen_in_training = false;
    /// Correlation-triggered pre-warm hold (absolute minute, inclusive).
    int corr_hold_until = -1;
    /// Regular functions predict on a phase lattice: when a predicted
    /// invocation passes unfulfilled (a dropped timer event), the next
    /// prediction advances by the period instead of losing the phase.
    int64_t next_predicted = -1;
    std::vector<int64_t> online_wts;  ///< S1: WTs observed online
    int adjust_cursor = 0;            ///< online WTs consumed by last S2 run
  };

  /// Online-correlation tracking for one unseen/unknown function (§IV-C2).
  struct OnlineCorrState {
    uint32_t target = 0;
    std::vector<uint32_t> candidates;
    std::vector<uint8_t> active;    // candidate still considered
    std::vector<int32_t> co_count;  // co-occurrences with the target
    int32_t target_arrivals = 0;
    /// Pre-warm grants since the target last fired (telemetry for tuning
    /// the aggressiveness of the initial riding phase).
    int32_t grants_since_arrival = 0;
  };

  [[nodiscard]] int GivenUpThreshold(FunctionType type) const;
  [[nodiscard]] bool PredictNearInvocation(const FunctionState& state, int t) const;
  void MaybeAdjustPredictiveValues(FunctionState* state);
  void MaybeLateCategorize(FunctionState* state);
  void UpdateOnlineCorrelations(int t, MemSet* mem);

  SpesConfig config_;
  std::vector<FunctionState> states_;
  /// links_by_candidate_[c] = correlated targets pre-warmed when c fires.
  std::vector<std::vector<CorrelationLink>> links_by_candidate_;
  std::vector<OnlineCorrState> online_corr_;
  std::vector<uint8_t> invoked_now_;  // scratch
  int64_t forgetting_recategorized_ = 0;
  int64_t online_recategorized_ = 0;
};

}  // namespace spes

#endif  // SPES_CORE_SPES_POLICY_H_
