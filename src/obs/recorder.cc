#include "obs/recorder.h"

#include <cmath>
#include <cstdio>

#include "common/table.h"
#include "obs/clock.h"

namespace spes {
namespace {

std::string FormatSeconds(double seconds) {
  if (!std::isfinite(seconds) || seconds < 0) seconds = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", seconds);
  return buf;
}

}  // namespace

RunRecorder::RunRecorder(LogSink* sink, Options options, ClockFn clock)
    : sink_(sink),
      options_(std::move(options)),
      clock_(clock != nullptr ? clock : &MonotonicSeconds) {
  if (options_.heartbeat_minute_stride < 1) {
    options_.heartbeat_minute_stride = 1;
  }
  t0_ = clock_();
  std::string line = "{\"ev\":\"run_start\",\"schema\":" +
                     std::to_string(kRunLogSchemaVersion) +
                     ",\"t\":0.000000";
  if (!options_.label.empty()) {
    line += ",\"label\":" + JsonEscape(options_.label);
  }
  line += "}";
  std::lock_guard<std::mutex> lock(mu_);
  WriteLineLocked(line);
}

RunRecorder::~RunRecorder() { Finish(); }

uint64_t RunRecorder::BeginSpan(const std::string& name, int slot, int lane,
                                const std::string& detail) {
  const double now = Elapsed();
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return 0;
  OpenSpan open;
  open.token = next_token_++;
  open.record.name = name;
  open.record.detail = detail;
  open.record.slot = slot;
  open.record.lane = lane;
  open.record.t = now;
  open_spans_.push_back(std::move(open));
  return open_spans_.back().token;
}

void RunRecorder::EndSpan(uint64_t token) {
  const double now = Elapsed();
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_ || token == 0) return;
  for (size_t i = 0; i < open_spans_.size(); ++i) {
    if (open_spans_[i].token != token) continue;
    SpanRecord record = std::move(open_spans_[i].record);
    open_spans_.erase(open_spans_.begin() +
                      static_cast<std::ptrdiff_t>(i));
    record.dur = now > record.t ? now - record.t : 0.0;
    std::string line = "{\"ev\":\"span\",\"t\":" + FormatSeconds(record.t) +
                       ",\"dur\":" + FormatSeconds(record.dur) +
                       ",\"name\":" + JsonEscape(record.name) +
                       ",\"slot\":" + std::to_string(record.slot) +
                       ",\"lane\":" + std::to_string(record.lane);
    if (!record.detail.empty()) {
      line += ",\"detail\":" + JsonEscape(record.detail);
    }
    line += "}";
    WriteLineLocked(line);
    closed_spans_.push_back(std::move(record));
    return;
  }
}

void RunRecorder::Config(const std::string& key, const std::string& value) {
  const double now = Elapsed();
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;
  WriteLineLocked("{\"ev\":\"config\",\"t\":" + FormatSeconds(now) +
                  ",\"key\":" + JsonEscape(key) +
                  ",\"value\":" + JsonEscape(value) + "}");
}

void RunRecorder::EmitHeartbeat(const HeartbeatRecord& heartbeat) {
  const double now = Elapsed();
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;
  WriteLineLocked(
      "{\"ev\":\"heartbeat\",\"t\":" + FormatSeconds(now) +
      ",\"slot\":" + std::to_string(heartbeat.slot) +
      ",\"lane\":" + std::to_string(heartbeat.lane) +
      ",\"minute\":" + std::to_string(heartbeat.minute) +
      ",\"invocations\":" + std::to_string(heartbeat.invocations) +
      ",\"cold_starts\":" + std::to_string(heartbeat.cold_starts) +
      ",\"loaded_instance_minutes\":" +
      std::to_string(heartbeat.loaded_instance_minutes) +
      ",\"wasted_memory_minutes\":" +
      std::to_string(heartbeat.wasted_memory_minutes) +
      ",\"loaded\":" + std::to_string(heartbeat.loaded_instances) +
      ",\"queue_depth\":" + std::to_string(heartbeat.queue_depth) + "}");
}

void RunRecorder::CacheEvent(const std::string& op, const std::string& key) {
  const double now = Elapsed();
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;
  WriteLineLocked("{\"ev\":\"cache\",\"t\":" + FormatSeconds(now) +
                  ",\"op\":" + JsonEscape(op) +
                  ",\"key\":" + JsonEscape(key) + "}");
}

void RunRecorder::DecoderEvent(int slot, uint64_t blocks,
                               uint64_t invocations) {
  const double now = Elapsed();
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;
  WriteLineLocked("{\"ev\":\"decoder\",\"t\":" + FormatSeconds(now) +
                  ",\"slot\":" + std::to_string(slot) +
                  ",\"blocks\":" + std::to_string(blocks) +
                  ",\"invocations\":" + std::to_string(invocations) + "}");
}

void RunRecorder::CheckpointEvent(const std::string& op, int slot,
                                  uint64_t cursor) {
  const double now = Elapsed();
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;
  WriteLineLocked("{\"ev\":\"checkpoint\",\"t\":" + FormatSeconds(now) +
                  ",\"op\":" + JsonEscape(op) +
                  ",\"slot\":" + std::to_string(slot) +
                  ",\"cursor\":" + std::to_string(cursor) + "}");
}

void RunRecorder::Finish() {
  const double now = Elapsed();
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;
  WriteLineLocked(
      "{\"ev\":\"run_end\",\"t\":" + FormatSeconds(now) +
      ",\"spans\":" + std::to_string(closed_spans_.size()) +
      ",\"events\":" + std::to_string(num_events_) +
      ",\"duration_seconds\":" + FormatSeconds(now) + "}");
  sink_->Flush();
  finished_ = true;
}

std::vector<SpanRecord> RunRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_spans_;
}

void RunRecorder::WriteLineLocked(const std::string& line) {
  sink_->WriteLine(line);
  ++num_events_;
}

}  // namespace spes
