// Bounded inter-arrival-time (IAT) histogram, the data structure at the
// heart of the Hybrid policy of Shahrad et al. ("Serverless in the Wild",
// ATC'20) and of Defuse's keep-alive component.
//
// The histogram tracks IATs in 1-minute bins up to a fixed range (4 hours
// in the original paper); arrivals further apart are counted out-of-bounds.
// From the histogram the policy derives a "head" (5th-percentile) pre-warm
// delay and a "tail" (99th-percentile) keep-alive horizon.

#ifndef SPES_POLICIES_IAT_HISTOGRAM_H_
#define SPES_POLICIES_IAT_HISTOGRAM_H_

#include <cstdint>
#include <vector>

namespace spes {

/// IAT histogram span: 4 hours, as in Shahrad et al. (ATC'20).
inline constexpr int kIatHistogramRangeMinutes = 240;
/// Representativeness floor: fewer recorded IATs than this and the
/// histogram carries no usable pattern (Shahrad et al., ATC'20).
inline constexpr int kIatMinSamples = 10;
/// Representativeness ceiling on the out-of-bounds share of IATs
/// (Shahrad et al., ATC'20).
inline constexpr double kIatMaxOobFraction = 0.5;

/// \brief Fixed-range minute-bin IAT histogram with percentile queries.
class IatHistogram {
 public:
  /// \param range_minutes histogram span; IATs >= range count out-of-bounds.
  explicit IatHistogram(int range_minutes = kIatHistogramRangeMinutes);

  /// \brief Records one inter-arrival time (minutes, > 0).
  void Record(int iat_minutes);

  /// \brief Total recorded IATs, including out-of-bounds.
  [[nodiscard]] int64_t TotalCount() const { return total_; }
  [[nodiscard]] int64_t OutOfBoundsCount() const { return oob_; }

  /// \brief Fraction of IATs beyond the histogram range (0 when empty).
  [[nodiscard]] double OutOfBoundsFraction() const;

  /// \brief Smallest bin value whose cumulative in-range count reaches
  /// `p` percent of in-range mass. Returns 0 when no in-range samples.
  [[nodiscard]] int PercentileMinute(double p) const;

  /// \brief Whether the histogram is usable for head/tail scheduling: at
  /// least kIatMinSamples IATs and an out-of-bounds share no larger than
  /// kIatMaxOobFraction.
  ///
  /// Mirrors the "pattern is representative" test of Shahrad et al.;
  /// policies fall back to a fixed keep-alive otherwise.
  [[nodiscard]] bool Representative() const;

  [[nodiscard]] int range_minutes() const { return static_cast<int>(bins_.size()); }

 private:
  std::vector<int32_t> bins_;
  int64_t total_ = 0;
  int64_t oob_ = 0;
};

}  // namespace spes

#endif  // SPES_POLICIES_IAT_HISTOGRAM_H_
