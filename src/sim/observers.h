// Stock SimObserver implementations: the pluggable replacements for what
// used to require editing the engine loop — time-series capture, progress
// reporting, and caller-defined per-minute logic including early-stop
// predicates (sim/observer.h defines the hook interface).

#ifndef SPES_SIM_OBSERVERS_H_
#define SPES_SIM_OBSERVERS_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <vector>

#include "sim/observer.h"

namespace spes {

/// \brief Adapts a std::function to the observer interface. The callback
/// returns false to early-stop the stream, which makes this the stock
/// early-stop predicate as well:
///   CallbackObserver stop_on_budget([](const MinuteView& v) {
///     return v.totals.cold_starts < 1000;  // false => halt the stream
///   });
class CallbackObserver : public SimObserver {
 public:
  using Callback = std::function<bool(const MinuteView&)>;

  explicit CallbackObserver(Callback on_minute)
      : on_minute_(std::move(on_minute)) {}

  bool OnMinute(const MinuteView& view) override {
    return on_minute_ ? on_minute_(view) : true;
  }

 private:
  Callback on_minute_;
};

/// \brief One captured point of a per-minute time series.
struct MinuteSample {
  int minute = 0;
  uint32_t loaded_instances = 0;
  uint64_t invocations = 0;   ///< cumulative through this minute
  uint64_t cold_starts = 0;   ///< cumulative through this minute
};

/// \brief Records a MinuteSample every `stride` minutes, one series per
/// lane — the pluggable replacement for ad-hoc time-series capture.
/// Samples are taken at minutes where (minute - start) % stride == 0.
class TimeSeriesObserver : public SimObserver {
 public:
  explicit TimeSeriesObserver(int stride = 1)
      : stride_(stride < 1 ? 1 : stride) {}

  void OnStreamStart(const StreamInfo& info) override;
  bool OnMinute(const MinuteView& view) override;

  /// \brief Captured series, indexed by lane.
  [[nodiscard]] const std::vector<std::vector<MinuteSample>>& series() const {
    return series_;
  }

 private:
  int stride_;
  int start_minute_ = 0;
  std::vector<std::vector<MinuteSample>> series_;
};

/// \brief Prints a single-line progress report every `every_minutes`
/// simulated minutes (lane 0 only, so lockstep streams do not multiply
/// the output), with the live simulation rate (sim-minutes per wall
/// second, from the obs/clock monotonic clock) and an ETA to the end of
/// the window. Intended for long interactive runs and examples.
///
/// On top of the minute stride, `min_wall_seconds` skips reports closer
/// than this many wall seconds to the previous one (the final minute
/// always reports), so a fast run prints a handful of lines instead of
/// hundreds. A run that wants no progress attaches no observer.
class ProgressObserver : public SimObserver {
 public:
  /// Clock hook returning monotonic seconds; injectable for
  /// deterministic tests. Null means spes::MonotonicSeconds.
  using ClockFn = double (*)();

  explicit ProgressObserver(int every_minutes = kMinutesPerDay,
                            std::FILE* out = stdout,
                            double min_wall_seconds = 0.0,
                            ClockFn clock = nullptr);

  void OnStreamStart(const StreamInfo& info) override;
  bool OnMinute(const MinuteView& view) override;

 private:
  int every_minutes_;
  std::FILE* out_;
  double min_wall_seconds_;
  ClockFn clock_;
  StreamInfo info_;
  double start_wall_ = 0.0;
  double last_report_wall_ = 0.0;
};

}  // namespace spes

#endif  // SPES_SIM_OBSERVERS_H_
