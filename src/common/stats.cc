#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>

#include "common/binary_io.h"

namespace spes {

namespace {

template <typename T>
double MeanImpl(const std::vector<T>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (T x : xs) sum += static_cast<double>(x);
  return sum / static_cast<double>(xs.size());
}

template <typename T>
double StdDevImpl(const std::vector<T>& xs) {
  if (xs.size() < 2) return 0.0;
  const double mu = MeanImpl(xs);
  double acc = 0.0;
  for (T x : xs) {
    const double d = static_cast<double>(x) - mu;
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(xs.size()));
}

}  // namespace

double Mean(const std::vector<double>& xs) { return MeanImpl(xs); }
double Mean(const std::vector<int64_t>& xs) { return MeanImpl(xs); }
double StdDev(const std::vector<double>& xs) { return StdDevImpl(xs); }
double StdDev(const std::vector<int64_t>& xs) { return StdDevImpl(xs); }

double CoefficientOfVariation(const std::vector<int64_t>& xs) {
  const double mu = Mean(xs);
  if (mu == 0.0) return 0.0;
  return StdDev(xs) / mu;
}

double Percentile(std::vector<double> xs, double p) {
  // Linear interpolation between the samples at ranks lo and lo + 1 of
  // the sorted input (or one end). Selecting those two ranks gives the
  // values a full sort would, so the result is the same double.
  if (xs.empty()) return 0.0;
  if (p <= 0.0) return *std::min_element(xs.begin(), xs.end());
  if (p >= 100.0) return *std::max_element(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= xs.size()) return *std::max_element(xs.begin(), xs.end());
  const auto at_lo = xs.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(xs.begin(), at_lo, xs.end());
  const double below = *at_lo;
  const double above = *std::min_element(at_lo + 1, xs.end());
  return below + frac * (above - below);
}

double Percentile(std::vector<int64_t> xs, double p) {
  return Percentile(std::vector<double>(xs.begin(), xs.end()), p);
}

double Median(const std::vector<int64_t>& xs) { return Percentile(xs, 50.0); }

namespace {

/// Highest possible bucket index + 1: the top bit of a uint64 sample is
/// bit 63, whose octave block is 63 - kSubBits + 1 = 59, and each block
/// holds kSubBuckets buckets — so 60 blocks cover the full domain.
constexpr size_t kNumBuckets =
    (64 - FixedBucketHistogram::kSubBits + 1) *
    FixedBucketHistogram::kSubBuckets;

}  // namespace

FixedBucketHistogram::FixedBucketHistogram() : counts_(kNumBuckets, 0) {}

uint64_t FixedBucketHistogram::BucketMidpoint(size_t index) {
  if (index < kSubBuckets) return static_cast<uint64_t>(index);  // exact
  const uint64_t block = static_cast<uint64_t>(index) >> kSubBits;
  const uint64_t sub = static_cast<uint64_t>(index) & (kSubBuckets - 1);
  const uint64_t shift = block - 1;
  const uint64_t lo = (kSubBuckets + sub) << shift;
  const uint64_t width = uint64_t{1} << shift;
  return lo + (width >> 1);
}

void FixedBucketHistogram::RecordMany(uint64_t value, uint64_t count) {
  if (count == 0) return;
  counts_[BucketIndex(value)] += count;
  if (total_count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  total_count_ += count;
  sum_ += value * count;
}

uint64_t FixedBucketHistogram::ValueAtQuantile(double q) const {
  if (total_count_ == 0) return 0;
  const double clamped = std::min(std::max(q, 0.0), 1.0);
  uint64_t target = static_cast<uint64_t>(
      std::ceil(clamped * static_cast<double>(total_count_)));
  target = std::min(std::max<uint64_t>(target, 1), total_count_);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (cumulative >= target) {
      // The midpoint can under/overshoot the recorded extremes by up to
      // half a bucket; clamping makes Min()/Max() exact at q=0 / q=1.
      return std::min(std::max(BucketMidpoint(i), Min()), max_);
    }
  }
  return max_;  // unreachable: cumulative reaches total_count_
}

void FixedBucketHistogram::Merge(const FixedBucketHistogram& other) {
  if (other.total_count_ == 0) return;
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  if (total_count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  total_count_ += other.total_count_;
  sum_ += other.sum_;
}

void FixedBucketHistogram::SerializeTo(BinaryWriter* writer) const {
  writer->PutVarU64(total_count_);
  writer->PutVarU64(sum_);
  writer->PutVarU64(min_);
  writer->PutVarU64(max_);
  uint64_t occupied = 0;
  for (uint64_t c : counts_) occupied += c != 0 ? 1 : 0;
  writer->PutVarU64(occupied);
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    writer->PutVarU64(i);
    writer->PutVarU64(counts_[i]);
  }
}

Result<FixedBucketHistogram> FixedBucketHistogram::ParseFrom(
    BinaryReader* reader) {
  FixedBucketHistogram histogram;
  SPES_ASSIGN_OR_RETURN(histogram.total_count_, reader->VarU64());
  SPES_ASSIGN_OR_RETURN(histogram.sum_, reader->VarU64());
  SPES_ASSIGN_OR_RETURN(histogram.min_, reader->VarU64());
  SPES_ASSIGN_OR_RETURN(histogram.max_, reader->VarU64());
  SPES_ASSIGN_OR_RETURN(const uint64_t occupied, reader->VarLength(2));
  uint64_t running = 0;
  int64_t previous = -1;
  for (uint64_t k = 0; k < occupied; ++k) {
    SPES_ASSIGN_OR_RETURN(const uint64_t index, reader->VarU64());
    SPES_ASSIGN_OR_RETURN(const uint64_t count, reader->VarU64());
    if (index >= kNumBuckets) {
      return Status::InvalidArgument(
          "corrupt histogram: bucket index (=" + std::to_string(index) +
          ") is out of range");
    }
    if (static_cast<int64_t>(index) <= previous) {
      return Status::InvalidArgument(
          "corrupt histogram: bucket indexes are not strictly increasing");
    }
    if (count == 0) {
      return Status::InvalidArgument(
          "corrupt histogram: empty bucket (=" + std::to_string(index) +
          ") was serialized");
    }
    previous = static_cast<int64_t>(index);
    histogram.counts_[index] = count;
    running += count;
  }
  if (running != histogram.total_count_) {
    return Status::InvalidArgument(
        "corrupt histogram: bucket counts sum to " + std::to_string(running) +
        " but the total says " + std::to_string(histogram.total_count_));
  }
  if (histogram.total_count_ == 0 &&
      (histogram.sum_ != 0 || histogram.min_ != 0 || histogram.max_ != 0)) {
    return Status::InvalidArgument(
        "corrupt histogram: empty histogram carries non-zero aggregates");
  }
  return histogram;
}

namespace {

/// Mode order: descending count, ties by ascending value. Values within
/// one multiset are distinct, so this is a strict total order.
bool ModeBefore(const ModeEntry& a, const ModeEntry& b) {
  if (a.count != b.count) return a.count > b.count;
  return a.value < b.value;
}

}  // namespace

std::vector<ModeEntry> TopModes(const std::vector<int64_t>& xs, int n) {
  if (n <= 0 || xs.empty()) return {};
  std::map<int64_t, int64_t> counts;
  for (int64_t x : xs) ++counts[x];
  std::vector<ModeEntry> entries;
  entries.reserve(counts.size());
  for (const auto& [value, count] : counts) entries.push_back({value, count});
  std::sort(entries.begin(), entries.end(), ModeBefore);
  if (entries.size() > static_cast<size_t>(n)) entries.resize(n);
  return entries;
}

std::vector<ModeEntry> RepeatedValues(const std::vector<int64_t>& xs) {
  std::vector<ModeEntry> modes =
      TopModes(xs, static_cast<int>(xs.size()));
  std::vector<ModeEntry> repeated;
  for (const ModeEntry& m : modes) {
    if (m.count > 1) repeated.push_back(m);
  }
  return repeated;
}

ValueCounts ValueCounts::FromValues(std::vector<int64_t> values) {
  std::sort(values.begin(), values.end());
  ValueCounts counts;
  counts.size_ = values.size();
  for (const int64_t v : values) {
    if (counts.runs_.empty() || counts.runs_.back().value != v) {
      counts.runs_.push_back({v, 0});
    }
    ++counts.runs_.back().count;
  }
  return counts;
}

void ValueCounts::Add(int64_t value) {
  const auto it = std::lower_bound(
      runs_.begin(), runs_.end(), value,
      [](const ModeEntry& run, int64_t v) { return run.value < v; });
  if (it != runs_.end() && it->value == value) {
    ++it->count;
  } else {
    runs_.insert(it, {value, 1});
  }
  ++size_;
}

int64_t ValueCounts::ValueAtRank(size_t rank) const {
  size_t below = 0;  // samples in the runs before `run`
  for (const ModeEntry& run : runs_) {
    below += static_cast<size_t>(run.count);
    if (rank < below) return run.value;
  }
  return runs_.back().value;  // unreachable for rank < size()
}

double ValueCounts::Median() const {
  // Percentile(xs, 50)'s arithmetic. It converts the samples to double
  // before selecting; the conversion is monotone, so converting the two
  // selected ranks gives the same operands.
  if (size_ == 0) return 0.0;
  const double rank = 50.0 / 100.0 * static_cast<double>(size_ - 1);
  const size_t lo = static_cast<size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= size_) return static_cast<double>(runs_.back().value);
  const double below = static_cast<double>(ValueAtRank(lo));
  const double above = static_cast<double>(ValueAtRank(lo + 1));
  return below + frac * (above - below);
}

std::vector<ModeEntry> ValueCounts::TopModes(int n) const {
  if (n <= 0 || runs_.empty()) return {};
  std::vector<ModeEntry> modes = runs_;
  const auto keep = modes.begin() + static_cast<std::ptrdiff_t>(std::min(
                                        modes.size(), static_cast<size_t>(n)));
  std::partial_sort(modes.begin(), keep, modes.end(), ModeBefore);
  modes.erase(keep, modes.end());
  return modes;
}

std::vector<ModeEntry> ValueCounts::Repeated() const {
  std::vector<ModeEntry> repeated;
  for (const ModeEntry& run : runs_) {
    if (run.count > 1) repeated.push_back(run);
  }
  std::sort(repeated.begin(), repeated.end(), ModeBefore);
  return repeated;
}

LinearFit FitLine(const std::vector<double>& xs,
                  const std::vector<double>& ys) {
  LinearFit fit;
  if (xs.size() != ys.size() || xs.size() < 2) return fit;
  const double n = static_cast<double>(xs.size());
  const double mx = Mean(xs);
  const double my = Mean(ys);
  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    sxx += (xs[i] - mx) * (xs[i] - mx);
    sxy += (xs[i] - mx) * (ys[i] - my);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  if (sxx == 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  if (syy > 0.0) fit.r_squared = (sxy * sxy) / (sxx * syy);
  (void)n;
  return fit;
}

}  // namespace spes
