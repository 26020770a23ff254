// Descriptive statistics used throughout SPES's categorization rules:
// percentiles, modes, coefficient of variation, medians and a simple
// least-squares linear fit (for the Fig. 13 trade-off analysis) — plus the
// mergeable fixed-bucket latency histogram the SLO reporting is built on.

#ifndef SPES_COMMON_STATS_H_
#define SPES_COMMON_STATS_H_

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"

namespace spes {

class BinaryWriter;  // common/binary_io.h
class BinaryReader;

/// \brief Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& xs);
double Mean(const std::vector<int64_t>& xs);

/// \brief Population standard deviation; 0 for fewer than 2 samples.
double StdDev(const std::vector<double>& xs);
double StdDev(const std::vector<int64_t>& xs);

/// \brief Coefficient of variation: stddev / mean; 0 when the mean is 0.
///
/// SPES's "regular" rule declares a function periodic when the CV of its
/// waiting times is <= 0.01.
double CoefficientOfVariation(const std::vector<int64_t>& xs);

/// \brief p-th percentile (p in [0,100]) with linear interpolation.
///
/// Matches numpy.percentile's default ("linear") so that thresholds such as
/// P95({WT}) - P5({WT}) <= 1 behave as in the paper's reference tooling.
/// Returns 0 for an empty input.
double Percentile(std::vector<double> xs, double p);
double Percentile(std::vector<int64_t> xs, double p);

/// \brief Median; 0 for an empty input.
double Median(const std::vector<int64_t>& xs);

/// \brief A mergeable fixed-bucket histogram over non-negative integer
/// samples (the latency subsystem records end-to-end times in
/// microseconds).
///
/// Bucketing is log2-linear (HDR-histogram style): values below 32 get
/// exact unit buckets; above that, each power-of-two octave is split into
/// 32 linear sub-buckets, so every bucket's relative width — and therefore
/// the worst-case quantile error — is bounded by 1/32 (~3%). The bucket
/// index is pure integer bit arithmetic, so recording is deterministic on
/// every platform, and two histograms with the same geometry merge
/// *exactly* (counts add), which is what lets per-node histograms combine
/// into a fleet histogram with no approximation beyond the shared
/// bucketing.
class FixedBucketHistogram {
 public:
  /// Linear sub-buckets per octave; also the width of the exact range.
  static constexpr uint64_t kSubBuckets = 32;
  static constexpr uint64_t kSubBits = 5;  ///< log2(kSubBuckets)

  FixedBucketHistogram();

  /// \brief Records one sample. Inline and branch-light: the latency
  /// lane records every served request.
  void Record(uint64_t value) {
    ++counts_[BucketIndex(value)];
    const uint64_t floor = total_count_ == 0 ? value : min_;
    min_ = value < floor ? value : floor;
    max_ = value > max_ ? value : max_;
    ++total_count_;
    sum_ += value;
  }
  /// \brief Records `count` identical samples.
  void RecordMany(uint64_t value, uint64_t count);

  [[nodiscard]] uint64_t TotalCount() const { return total_count_; }
  [[nodiscard]] uint64_t Sum() const { return sum_; }
  /// Smallest/largest recorded sample; 0 when empty.
  [[nodiscard]] uint64_t Min() const { return total_count_ == 0 ? 0 : min_; }
  [[nodiscard]] uint64_t Max() const { return max_; }
  [[nodiscard]] double Mean() const {
    return total_count_ == 0
               ? 0.0
               : static_cast<double>(sum_) / static_cast<double>(total_count_);
  }

  /// \brief The representative value at quantile q in [0, 1] (0 when
  /// empty): the midpoint of the first bucket whose cumulative count
  /// reaches ceil(q * TotalCount()), clamped into [Min(), Max()] so the
  /// extremes are exact.
  [[nodiscard]] uint64_t ValueAtQuantile(double q) const;

  /// \brief Exact merge: bucket counts, totals and extrema combine with
  /// no precision loss (both sides always share the fixed geometry).
  void Merge(const FixedBucketHistogram& other);

  /// \brief Appends the histogram to `writer` in sparse (index, count)
  /// varint form — empty buckets cost nothing.
  void SerializeTo(BinaryWriter* writer) const;

  /// \brief Parses bytes produced by SerializeTo(); truncated or corrupt
  /// input (bad indexes, inconsistent totals) yields InvalidArgument.
  static Result<FixedBucketHistogram> ParseFrom(BinaryReader* reader);

  bool operator==(const FixedBucketHistogram&) const = default;

 private:
  /// Bucket index of a sample (total order, contiguous from 0). Values
  /// below kSubBuckets are their own index; above that, the octave of
  /// the top bit is split into kSubBuckets linear sub-buckets by the bits
  /// just below it, contiguous with the exact range (the first octave
  /// block maps [32, 63] to indexes [32, 63]).
  [[nodiscard]] static size_t BucketIndex(uint64_t value) {
    // Computed for every value (`| kSubBuckets` keeps top >= kSubBits),
    // then selected, so the small-value case costs no branch.
    const uint64_t top =
        static_cast<uint64_t>(std::bit_width(value | kSubBuckets)) - 1;
    const uint64_t sub = (value >> (top - kSubBits)) & (kSubBuckets - 1);
    const uint64_t octave = (top - kSubBits + 1) * kSubBuckets + sub;
    return static_cast<size_t>(value < kSubBuckets ? value : octave);
  }
  /// Midpoint representative of bucket `index`.
  [[nodiscard]] static uint64_t BucketMidpoint(size_t index);

  std::vector<uint64_t> counts_;
  uint64_t total_count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

/// \brief A value and how many times it occurs.
struct ModeEntry {
  int64_t value = 0;
  int64_t count = 0;
  bool operator==(const ModeEntry&) const = default;
};

/// \brief The n most frequent values, ordered by descending count
/// (ties broken by ascending value for determinism).
std::vector<ModeEntry> TopModes(const std::vector<int64_t>& xs, int n);

/// \brief Values that occur strictly more than once, most frequent first.
///
/// This is the predictive-value rule for SPES's "possible" type.
std::vector<ModeEntry> RepeatedValues(const std::vector<int64_t>& xs);

/// \brief A multiset of int64 samples kept as sorted (value, count) runs,
/// updated one sample at a time.
///
/// Its queries return bitwise what the vector functions above return for
/// the same samples: Median() == Median(xs), TopModes(n) == TopModes(xs, n)
/// and Repeated() == RepeatedValues(xs). SPES keeps one per function so
/// its online drift adjustment (S2) reads the WT history without
/// re-sorting it. Add() costs a binary search plus, for a new value, an
/// insert into the flat run vector; WTs are few and distinct values fewer,
/// so the vector stays short.
class ValueCounts {
 public:
  /// \brief The multiset of `values` (any order): sorted once and
  /// run-length encoded, never inserted one by one.
  static ValueCounts FromValues(std::vector<int64_t> values);

  /// \brief Adds one sample.
  void Add(int64_t value);

  /// Number of samples (not of distinct values).
  [[nodiscard]] size_t size() const { return size_; }
  /// The runs, by ascending value; every count is positive.
  [[nodiscard]] const std::vector<ModeEntry>& runs() const { return runs_; }

  /// \brief Median with Percentile()'s linear interpolation; 0 when empty.
  [[nodiscard]] double Median() const;
  /// \brief The n most frequent values, by descending count, then
  /// ascending value.
  [[nodiscard]] std::vector<ModeEntry> TopModes(int n) const;
  /// \brief Values that occur more than once, in TopModes() order.
  [[nodiscard]] std::vector<ModeEntry> Repeated() const;

 private:
  /// The sample at 0-based `rank` (< size()) of the sorted multiset.
  [[nodiscard]] int64_t ValueAtRank(size_t rank) const;

  std::vector<ModeEntry> runs_;
  size_t size_ = 0;
};

/// \brief Least-squares fit y = slope * x + intercept.
///
/// Used by the Fig. 13 harness to report the linear memory-vs-CSR
/// relationship the paper observes. Requires xs.size() == ys.size() >= 2.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Coefficient of determination in [0,1]; 1 means a perfect fit.
  double r_squared = 0.0;
};
LinearFit FitLine(const std::vector<double>& xs, const std::vector<double>& ys);

}  // namespace spes

#endif  // SPES_COMMON_STATS_H_
