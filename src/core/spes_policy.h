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
// online correlation. S2 reads each function's online WTs through a
// ValueCounts histogram (common/stats.h) updated once per WT, so a re-fit
// never re-sorts the history; the histogram is derived from the WT list,
// which is what a checkpoint carries. Provision follows Algorithm 1: a
// function is pre-loaded when a predicted invocation falls within
// +/-theta_prewarm of now, and evicted once its current WT reaches its
// type's theta_givenup.
//
// The step is event-driven: every one of those decisions is a deadline
// that only moves when the function (or a correlation candidate) fires.
// Each function keeps one lower bound on the next minute its decision can
// change, held in a minute-bucketed wheel; functions inside a pre-load
// window sit on a list that is re-added every minute; a candidate->tracker
// index turns online correlation into O(fan-out) work per arrival. The
// wheel, the list and the index are derived state, rebuilt on the first
// step after Train() or RestoreState() (the WT histograms are rebuilt by
// RestoreState() itself). ReferenceSpesPolicy (core/reference_spes.h)
// keeps the per-minute scan as the differential oracle.

#ifndef SPES_CORE_SPES_POLICY_H_
#define SPES_CORE_SPES_POLICY_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
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
  /// built from the same spec parameters (SpesConfig holds nothing else;
  /// every other constant is fixed in core/config.h). The event-driven
  /// step's wheel, window list and indexes are derived, rebuilt at the
  /// next OnMinute(); the per-function WT histograms are derived too,
  /// rebuilt by RestoreState() from the WT lists.
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
  friend class ReferenceSpesPolicy;

  struct FunctionState {
    PredictiveModel model;
    int last_arrival = -1;  ///< absolute minute of the most recent arrival
    /// The step count at which the current WT was 0; the WT itself is
    /// derived (CurrentWt()), so an idle function costs nothing per step.
    int64_t idle_origin = 0;
    bool seen_in_training = false;
    /// Correlation-triggered pre-warm hold (absolute minute, inclusive).
    int corr_hold_until = -1;
    /// Regular functions predict on a phase lattice: when a predicted
    /// invocation passes unfulfilled (a dropped timer event), the next
    /// prediction advances by the period instead of losing the phase.
    /// Advanced lazily (AdvancedPrediction()) and materialized by
    /// SaveState().
    int64_t next_predicted = -1;
    std::vector<int64_t> online_wts;  ///< S1: WTs observed online
    int adjust_cursor = 0;            ///< online WTs consumed by last S2 run
    /// `online_wts` as a multiset, the view S2 reads. Derived: never
    /// serialized, rebuilt by RestoreState().
    ValueCounts wt_counts;
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

  /// \brief The current WT of `state`. It counts OnMinute() calls, not
  /// minutes: a cluster node steps only while it is live, so a pending
  /// node's first step adds one idle step whatever minute it starts at.
  /// A function that never arrived keeps the WT it was trained or
  /// restored with.
  [[nodiscard]] int64_t CurrentWt(const FunctionState& state) const {
    return (state.last_arrival >= 0 ? steps_ : 0) - state.idle_origin;
  }
  /// \brief `state.next_predicted` as the per-minute lattice advance would
  /// have left it after a step at minute `t`.
  [[nodiscard]] int64_t AdvancedPrediction(const FunctionState& state,
                                           int t) const;

  /// \brief Shared by both steps: the step clock, then Algorithm 1 lines
  /// 3-12 — each arrival closes a WT, refreshes its function's state and
  /// pre-warms its trained correlation targets. Marks `invoked_now_`.
  void StartMinute(int t, const std::vector<Invocation>& arrivals,
                   MemSet* mem);
  /// \brief Clears the `invoked_now_` marks StartMinute() set.
  void EndMinute(const std::vector<Invocation>& arrivals);

  /// \name Event-driven step (derived state; see the file comment).
  /// @{
  void RebuildEventState(int t);
  /// Queues `f` for evaluation at minute `minute` (> the wheel cursor);
  /// far minutes are clamped to the wheel horizon, which only adds an
  /// early, no-op evaluation.
  void Schedule(uint32_t f, int64_t minute);
  void EnterWindow(uint32_t f);
  /// The scan's decision for one idle function at minute `t`: pre-load
  /// (returns true; the caller keeps it on the window list) or give up,
  /// then schedule the next minute the decision can change.
  bool Evaluate(uint32_t f, int t, MemSet* mem);
  void OnTrackedTargetFired(OnlineCorrState* corr, int t);
  void KeepOrExpel(OnlineCorrState* corr);
  void GrantTracked(OnlineCorrState* corr, int t, MemSet* mem);
  /// @}

  SpesConfig config_;
  std::vector<FunctionState> states_;
  /// links_by_candidate_[c] = correlated targets pre-warmed when c fires.
  std::vector<std::vector<CorrelationLink>> links_by_candidate_;
  std::vector<OnlineCorrState> online_corr_;
  std::vector<uint8_t> invoked_now_;  // set by StartMinute, cleared by EndMinute
  int64_t forgetting_recategorized_ = 0;
  int64_t online_recategorized_ = 0;

  /// OnMinute() calls since Train()/RestoreState(), and the last one's
  /// minute (kNoMinute before the first).
  static constexpr int kNoMinute = -1;
  int64_t steps_ = 0;
  int last_minute_ = kNoMinute;

  /// Derived event state, rebuilt while `rebuild_` is set.
  static constexpr int kWheelSlots = 2048;  // power of two
  bool rebuild_ = true;
  int cursor_ = 0;                    ///< wheel buckets <= cursor_ drained
  std::vector<std::vector<uint32_t>> wheel_;
  std::vector<int> next_event_;       ///< kNoMinute = not scheduled
  std::vector<uint32_t> due_;         // scratch
  std::vector<uint32_t> window_;      ///< functions pre-loaded last minute
  std::vector<uint8_t> in_window_;
  std::vector<int32_t> tracker_of_target_;  ///< online_corr_ index or -1
  std::vector<int> granted_minute_;         ///< per tracker; kNoMinute
  /// CSR: candidate c's (tracker, k) pairs are
  /// tracked_by_[tracked_offsets_[c] .. tracked_offsets_[c + 1]).
  std::vector<uint32_t> tracked_offsets_;
  std::vector<std::pair<uint32_t, uint32_t>> tracked_by_;
};

}  // namespace spes

#endif  // SPES_CORE_SPES_POLICY_H_
