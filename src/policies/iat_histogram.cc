#include "policies/iat_histogram.h"

#include <cstddef>

namespace spes {

IatHistogram::IatHistogram(int range_minutes)
    : bins_(range_minutes < 1 ? 1 : static_cast<size_t>(range_minutes), 0) {}

void IatHistogram::Record(int iat_minutes) {
  if (iat_minutes <= 0) return;
  ++total_;
  if (iat_minutes > static_cast<int>(bins_.size())) {
    ++oob_;
    return;
  }
  ++bins_[static_cast<size_t>(iat_minutes - 1)];
}

double IatHistogram::OutOfBoundsFraction() const {
  return total_ == 0
             ? 0.0
             : static_cast<double>(oob_) / static_cast<double>(total_);
}

int IatHistogram::PercentileMinute(double p) const {
  const int64_t in_range = total_ - oob_;
  if (in_range <= 0) return 0;
  const double target =
      p / 100.0 * static_cast<double>(in_range);
  int64_t cumulative = 0;
  for (size_t i = 0; i < bins_.size(); ++i) {
    cumulative += bins_[i];
    if (static_cast<double>(cumulative) >= target && cumulative > 0) {
      return static_cast<int>(i) + 1;
    }
  }
  return static_cast<int>(bins_.size());
}

bool IatHistogram::Representative() const {
  if (total_ < kIatMinSamples) return false;
  return OutOfBoundsFraction() <= kIatMaxOobFraction;
}

}  // namespace spes
