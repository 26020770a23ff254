#include "sim/observers.h"

#include <string>

#include "obs/clock.h"

namespace spes {

void TimeSeriesObserver::OnStreamStart(const StreamInfo& info) {
  start_minute_ = info.start_minute;
  series_.assign(info.num_lanes, {});
}

bool TimeSeriesObserver::OnMinute(const MinuteView& view) {
  if ((view.minute - start_minute_) % stride_ != 0) return true;
  if (view.lane >= series_.size()) series_.resize(view.lane + 1);
  MinuteSample sample;
  sample.minute = view.minute;
  sample.loaded_instances = view.loaded_instances();
  sample.invocations = view.totals.invocations;
  sample.cold_starts = view.totals.cold_starts;
  series_[view.lane].push_back(sample);
  return true;
}

namespace {

// "ETA 90s" below two minutes, "ETA 4.2m" otherwise; "ETA --" when the
// rate is too small to extrapolate from.
std::string FormatEta(double seconds) {
  char buf[32];
  if (seconds < 0.0) return "ETA --";
  if (seconds < 120.0) {
    std::snprintf(buf, sizeof(buf), "ETA %.0fs", seconds);
  } else {
    std::snprintf(buf, sizeof(buf), "ETA %.1fm", seconds / 60.0);
  }
  return buf;
}

}  // namespace

ProgressObserver::ProgressObserver(int every_minutes, std::FILE* out,
                                   double min_wall_seconds, ClockFn clock)
    : every_minutes_(every_minutes < 1 ? 1 : every_minutes),
      out_(out),
      min_wall_seconds_(min_wall_seconds < 0.0 ? 0.0 : min_wall_seconds),
      clock_(clock != nullptr ? clock : &MonotonicSeconds) {}

void ProgressObserver::OnStreamStart(const StreamInfo& info) {
  info_ = info;
  start_wall_ = clock_();
  last_report_wall_ = start_wall_;
}

bool ProgressObserver::OnMinute(const MinuteView& view) {
  if (view.lane != 0) return true;
  const int simulated = view.minute - info_.start_minute + 1;
  const int window = info_.end_minute - info_.start_minute;
  const bool final_minute = view.minute + 1 == info_.end_minute;
  if (simulated % every_minutes_ != 0 && !final_minute) return true;
  const double now = clock_();
  if (!final_minute && min_wall_seconds_ > 0.0 &&
      now - last_report_wall_ < min_wall_seconds_) {
    return true;
  }
  last_report_wall_ = now;
  const double elapsed = now - start_wall_;
  const double rate = elapsed > 0.0 ? simulated / elapsed : 0.0;
  const int remaining = window - simulated;
  const double eta = rate > 0.0 ? remaining / rate : -1.0;
  std::fprintf(out_,
               "minute %d/%d | %s: %u loaded, %llu cold starts, %llu "
               "invocations | %.0f min/s, %s\n",
               simulated, window, view.policy->name().c_str(),
               view.loaded_instances(),
               static_cast<unsigned long long>(view.totals.cold_starts),
               static_cast<unsigned long long>(view.totals.invocations), rate,
               FormatEta(eta).c_str());
  return true;
}

}  // namespace spes
