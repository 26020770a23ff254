// The Hybrid histogram policy of Shahrad et al. ("Serverless in the Wild",
// USENIX ATC 2020), the production policy behind Azure Functions' adaptive
// keep-alive, reproduced at two granularities:
//
//   * Hybrid-Application (HA): the original — the scheduling unit is the
//     application; all functions of an app share one warm environment, so
//     an arrival for any of them warms (and keeps warm) the whole app.
//   * Hybrid-Function (HF): the function-granular derivation used by Defuse
//     and by the SPES paper as an additional baseline.
//
// Per unit, the policy maintains a 4-hour IAT histogram. When the histogram
// is representative it unloads the unit right after execution, re-loads it
// `head` (5th percentile) minutes after the last arrival, and keeps it until
// `tail` (99th percentile) minutes. A 10% safety margin widens the window.
// Units without a representative histogram use a fixed keep-alive fallback.

#ifndef SPES_POLICIES_HYBRID_HISTOGRAM_H_
#define SPES_POLICIES_HYBRID_HISTOGRAM_H_

#include <string>
#include <vector>

#include "policies/iat_histogram.h"
#include "sim/policy.h"

namespace spes {

/// \brief Scheduling granularity for the hybrid policy.
enum class HybridGranularity { kApplication, kFunction };

// The policy's published settings (Shahrad et al., ATC'20). The histogram
// span and representativeness test are IatHistogram's constants.

/// Pre-warm point: the 5th percentile of the unit's IATs.
inline constexpr double kHybridHeadPercentile = 5.0;
/// Keep-alive horizon: the 99th percentile of the unit's IATs.
inline constexpr double kHybridTailPercentile = 99.0;
/// Safety margin widening [head, tail] by +/-10%.
inline constexpr double kHybridMarginFraction = 0.10;
/// Units without a representative histogram use the provider's standard
/// fixed keep-alive (Azure's default was 20 minutes).
inline constexpr int kHybridFallbackKeepAliveMinutes = 20;

/// \brief Shahrad et al.'s hybrid histogram keep-alive / pre-warm policy.
class HybridHistogramPolicy : public Policy {
 public:
  /// \param fallback_keepalive_minutes keep-alive of units without a
  /// representative histogram: kHybridFallbackKeepAliveMinutes for the
  /// registry's `hybrid_histogram`, Defuse's own window for Defuse.
  HybridHistogramPolicy(HybridGranularity granularity,
                        int fallback_keepalive_minutes);

  [[nodiscard]] std::string name() const override;
  void Train(const Trace& trace, int train_minutes) override;
  void OnMinute(int t, const std::vector<Invocation>& arrivals,
                MemSet* mem) override;

  /// \brief Number of units using the fixed-keep-alive fallback (after
  /// training); exposed for tests and analysis.
  [[nodiscard]] int64_t CountFallbackUnits() const;

 private:
  /// hybrid_histogram_test's reference: Train's offline pass walked
  /// minute-major over every unit.
  friend class MinuteMajorHybridPolicy;

  struct UnitState {
    IatHistogram histogram;
    int last_arrival = -1;
    // Scheduling window relative to last arrival; refreshed per arrival.
    int prewarm_after = 0;   // load at last_arrival + prewarm_after
    int unload_after = 0;    // evict at last_arrival + unload_after
    bool use_histogram = false;
  };

  void RefreshWindow(UnitState* unit) const;
  void ApplyUnitSchedule(int t, size_t unit_index, MemSet* mem);

  HybridGranularity granularity_;
  int fallback_keepalive_minutes_;
  std::vector<UnitState> units_;
  /// function index -> unit index
  std::vector<uint32_t> unit_of_function_;
  /// unit index -> member function indices
  std::vector<std::vector<uint32_t>> functions_of_unit_;
  /// scratch: whether each unit had an arrival this minute
  std::vector<uint8_t> unit_arrived_;
};

}  // namespace spes

#endif  // SPES_POLICIES_HYBRID_HISTOGRAM_H_
