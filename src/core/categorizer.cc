#include "core/categorizer.h"

#include <algorithm>

#include "common/stats.h"
#include "core/config.h"
#include "core/slacking.h"
#include "trace/trace.h"

namespace spes {

bool WtsLookRegular(const std::vector<int64_t>& wts) {
  if (wts.empty()) return false;
  const double band =
      Percentile(wts, 95.0) - Percentile(wts, 5.0);
  if (band <= kRegularPercentileBand) return true;
  return CoefficientOfVariation(wts) <= kRegularCvMax;
}

bool PassesRegularWithSlacking(const std::vector<int64_t>& wts,
                               std::vector<int64_t>* regular_wts) {
  if (static_cast<int>(wts.size()) < kMinWtsForRegular) return false;
  if (WtsLookRegular(wts)) {
    if (regular_wts != nullptr) *regular_wts = wts;
    return true;
  }
  // Slack 1: the boundary WTs of an observation window are unreliable.
  const std::vector<int64_t> trimmed = TrimBoundaryWts(wts);
  if (static_cast<int>(trimmed.size()) >= kMinWtsForRegular &&
      WtsLookRegular(trimmed)) {
    if (regular_wts != nullptr) *regular_wts = trimmed;
    return true;
  }
  // Slack 2: merge fragmented gaps back into mode-sized WTs.
  const std::vector<int64_t> merged = MergeAdjacentSmallWts(wts);
  if (static_cast<int>(merged.size()) >= kMinWtsForRegular &&
      merged.size() < wts.size() && WtsLookRegular(merged)) {
    if (regular_wts != nullptr) *regular_wts = merged;
    return true;
  }
  // Slack 3: both together — a horizon-truncated boundary fragment can
  // survive merging (nothing to complete it), so trim the merged sequence.
  const std::vector<int64_t> merged_trimmed = TrimBoundaryWts(merged);
  if (static_cast<int>(merged_trimmed.size()) >= kMinWtsForRegular &&
      merged.size() < wts.size() && WtsLookRegular(merged_trimmed)) {
    if (regular_wts != nullptr) *regular_wts = merged_trimmed;
    return true;
  }
  return false;
}

namespace {

/// Table I row 1: invoked at every slot, or total idle time at most
/// a thousandth of the observing window.
bool IsAlwaysWarm(const SeriesFeatures& features, int64_t window) {
  if (features.total_invocations == 0 || window <= 0) return false;
  const int64_t idle = window - features.active_slots;
  return idle * kAlwaysWarmIdleDivisor <= window;
}

bool IsApproRegular(const std::vector<int64_t>& wts,
                    std::vector<int64_t>* mode_values) {
  if (static_cast<int>(wts.size()) < kMinWtsForRegular) return false;
  const std::vector<ModeEntry> modes = TopModes(wts, kApproNumModes);
  // Quasi-periodicity implies a *period*: when the dominant gap is within
  // the dense constant, the function is frequent-irregular traffic, which
  // the dense type (next in priority) captures with a cheaper strategy.
  if (static_cast<double>(modes.front().value) <= kDenseP90Max) {
    return false;
  }
  // A "frequently appearing value" must appear more than once: singleton
  // WTs carry no quasi-periodic evidence.
  int64_t covered = 0;
  for (const ModeEntry& m : modes) {
    if (m.count >= 2) covered += m.count;
  }
  if (static_cast<double>(covered) <
      kApproCoverage * static_cast<double>(wts.size())) {
    return false;
  }
  if (mode_values != nullptr) {
    mode_values->clear();
    for (const ModeEntry& m : modes) {
      if (m.count >= 2) mode_values->push_back(m.value);
    }
  }
  return true;
}

bool IsDense(const std::vector<int64_t>& wts) {
  if (wts.empty()) return false;
  return Percentile(wts, 90.0) <= kDenseP90Max;
}

bool IsSuccessive(const SeriesFeatures& features) {
  if (static_cast<int>(features.ats.size()) < kSuccessiveMinWaves) {
    return false;
  }
  const int64_t min_at =
      *std::min_element(features.ats.begin(), features.ats.end());
  const int64_t min_an =
      *std::min_element(features.ans.begin(), features.ans.end());
  return min_at >= kSuccessiveGamma1 &&
         min_an >= kSuccessiveGamma2;
}

}  // namespace

PredictiveModel FitPossibleModel(const std::vector<int64_t>& wts) {
  PredictiveModel model;
  const std::vector<ModeEntry> repeated = RepeatedValues(wts);
  if (repeated.empty()) return model;  // kUnknown
  model.type = FunctionType::kPossible;
  for (const ModeEntry& m : repeated) {
    if (static_cast<int>(model.values.size()) >= kPossibleMaxValues) {
      break;
    }
    model.values.push_back(m.value);
  }
  // §IV-D: a narrow value range is treated as a continuous interval.
  const auto [lo_it, hi_it] =
      std::minmax_element(model.values.begin(), model.values.end());
  if (*hi_it - *lo_it <= kPossibleRangeDiscreteThreshold &&
      model.values.size() > 1) {
    model.continuous = true;
    model.range_lo = *lo_it;
    model.range_hi = *hi_it;
  }
  model.offline_wt_stddev = StdDev(wts);
  return model;
}

PredictiveModel CategorizeDeterministic(std::span<const uint32_t> counts) {
  PredictiveModel model;
  const SeriesFeatures features = ExtractSeriesFeatures(counts);
  if (features.total_invocations == 0) return model;  // kUnknown

  model.offline_wt_stddev = StdDev(features.wts);

  // Priority 1: always warm (no predictive values needed).
  if (IsAlwaysWarm(features, static_cast<int64_t>(counts.size()))) {
    model.type = FunctionType::kAlwaysWarm;
    return model;
  }

  // Priority 2: regular (raw -> trimmed -> merged).
  std::vector<int64_t> regular_wts;
  if (PassesRegularWithSlacking(features.wts, &regular_wts)) {
    model.type = FunctionType::kRegular;
    model.values = {static_cast<int64_t>(Median(regular_wts) + 0.5)};
    model.offline_wt_stddev = StdDev(regular_wts);
    return model;
  }

  // Priority 3: appro-regular (top-n modes dominate the WT sequence).
  std::vector<int64_t> mode_values;
  if (IsApproRegular(features.wts, &mode_values)) {
    model.type = FunctionType::kApproRegular;
    model.values = std::move(mode_values);
    return model;
  }

  // Priority 4: dense (P90 of WTs below the small constant).
  if (IsDense(features.wts)) {
    model.type = FunctionType::kDense;
    const std::vector<ModeEntry> modes =
        TopModes(features.wts, kDenseNumModes);
    int64_t lo = modes.front().value, hi = modes.front().value;
    for (const ModeEntry& m : modes) {
      lo = std::min(lo, m.value);
      hi = std::max(hi, m.value);
    }
    model.continuous = true;
    model.range_lo = lo;
    model.range_hi = hi;
    return model;
  }

  // Priority 5: successive (strong temporal locality).
  if (IsSuccessive(features)) {
    model.type = FunctionType::kSuccessive;
    return model;
  }

  return model;  // kUnknown: caller tries indeterminate assignment
}

PredictiveModel CategorizeWithForgetting(std::span<const uint32_t> counts) {
  PredictiveModel model = CategorizeDeterministic(counts);
  if (model.type != FunctionType::kUnknown) return model;
  // Drop whole days from the front, one at a time, down to half the window
  // (§IV-B1): recent behaviour outranks stale behaviour.
  const int days = static_cast<int>(counts.size()) / kMinutesPerDay;
  for (int drop = 1; drop <= days / 2; ++drop) {
    const size_t offset = static_cast<size_t>(drop) * kMinutesPerDay;
    if (offset >= counts.size()) break;
    PredictiveModel suffix_model =
        CategorizeDeterministic(counts.subspan(offset));
    if (suffix_model.type != FunctionType::kUnknown) {
      suffix_model.forgotten_prefix_minutes = static_cast<int>(offset);
      return suffix_model;
    }
  }
  return model;
}

}  // namespace spes
