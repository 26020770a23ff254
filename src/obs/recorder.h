// RunRecorder: the opt-in observability spine of a run.
//
// A RunRecorder turns wall-clock phases (spans), strided per-minute
// heartbeats and subsystem events (TraceCache hits, decoder work,
// checkpoint save/restore) into a schema-versioned JSONL run log
// (obs/run_log.h) through a pluggable sink; its spans() export as Chrome
// trace-event JSON (ChromeTraceJson) for Perfetto / chrome://tracing.
//
// The recorder is strictly write-only with respect to the simulation:
// it reads counters, never produces values that feed simulation state.
// The seed-99 goldens pin this — recorder-enabled runs must stay
// bitwise-identical to disabled runs. All member functions are
// thread-safe (SuiteRunner workers and cluster lanes emit
// concurrently); events carry logical slot/lane indices, never thread
// ids, so the recorded shape is stable at any thread count.

#ifndef SPES_OBS_RECORDER_H_
#define SPES_OBS_RECORDER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/run_log.h"

namespace spes {

/// \brief Knobs for a RunRecorder (namespace-scope so it can be a
/// default argument while RunRecorder is still incomplete; use it as
/// RunRecorder::Options).
struct RunRecorderOptions {
  /// Minutes between per-lane heartbeat events. Engines emit a
  /// heartbeat when `(minute + 1 - start) % stride == 0` and on the
  /// final minute, so any stride samples the same sim states
  /// regardless of wall-clock speed.
  int heartbeat_minute_stride = 60;
  /// Free-form run label stamped into the run_start event.
  std::string label;
};

class RunRecorder {
 public:
  /// \brief Clock hook: returns monotonic seconds. Injectable so unit
  /// tests drive deterministic timestamps; defaults to
  /// spes::MonotonicSeconds (obs/clock.h).
  using ClockFn = double (*)();

  using Options = RunRecorderOptions;

  /// \brief Starts a recording: emits the run_start header immediately.
  /// The sink must outlive the recorder and is not owned.
  explicit RunRecorder(LogSink* sink, Options options = Options(),
                       ClockFn clock = nullptr);

  /// \brief Ends the recording if Finish() was never called.
  ~RunRecorder();

  RunRecorder(const RunRecorder&) = delete;
  RunRecorder& operator=(const RunRecorder&) = delete;

  /// \name Span tracing
  /// @{

  /// \brief Opens a wall-clock span; returns a token for EndSpan.
  uint64_t BeginSpan(const std::string& name, int slot, int lane,
                     const std::string& detail = "");

  /// \brief Closes a span: emits its JSONL event and retains it for the
  /// Chrome trace export. Unknown tokens are ignored.
  void EndSpan(uint64_t token);
  /// @}

  /// \brief Emits a `config` key/value event (options, specs, labels).
  void Config(const std::string& key, const std::string& value);

  /// \brief Emits a `heartbeat` event: the record the run log parses
  /// back, its `t` stamped by the recorder (the caller's is ignored).
  void EmitHeartbeat(const HeartbeatRecord& heartbeat);

  /// \brief Emits a TraceCache `cache` event; op is hit/miss/pack.
  void CacheEvent(const std::string& op, const std::string& key);

  /// \brief Emits a `decoder` event summarizing ArrivalDecoder work.
  void DecoderEvent(int slot, uint64_t blocks, uint64_t invocations);

  /// \brief Emits a `checkpoint` event; op is save/restore.
  void CheckpointEvent(const std::string& op, int slot, uint64_t cursor);

  /// \brief Emits the run_end summary and flushes the sink. Idempotent;
  /// events arriving after Finish() are dropped.
  void Finish();

  /// \brief Stride for engine heartbeat emission (minutes).
  [[nodiscard]] int heartbeat_minute_stride() const {
    return options_.heartbeat_minute_stride;
  }

  /// \brief Snapshot of all closed spans so far.
  [[nodiscard]] std::vector<SpanRecord> spans() const;

 private:
  struct OpenSpan {
    uint64_t token = 0;
    SpanRecord record;  ///< t holds the absolute start until closed
  };

  /// Seconds since the recorder started, on the injected clock.
  double Elapsed() const { return clock_() - t0_; }

  /// Appends one line to the sink and bumps the event count.
  /// Caller holds mu_.
  void WriteLineLocked(const std::string& line);

  LogSink* sink_;
  Options options_;
  ClockFn clock_;
  double t0_ = 0.0;

  mutable std::mutex mu_;
  bool finished_ = false;
  uint64_t next_token_ = 1;
  uint64_t num_events_ = 0;
  std::vector<OpenSpan> open_spans_;
  std::vector<SpanRecord> closed_spans_;
};

/// \brief RAII span: opens on construction (when the recorder is
/// non-null), closes on destruction. The null-recorder form makes
/// instrumentation sites branch-free:
///
///     ScopedSpan span(options_.recorder, "simulate", slot, lane);
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(RunRecorder* recorder, const std::string& name, int slot,
             int lane, const std::string& detail = "")
      : recorder_(recorder) {
    if (recorder_ != nullptr) {
      token_ = recorder_->BeginSpan(name, slot, lane, detail);
    }
  }
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&& other) noexcept
      : recorder_(other.recorder_), token_(other.token_) {
    other.recorder_ = nullptr;
  }
  ScopedSpan& operator=(ScopedSpan&& other) noexcept {
    if (this != &other) {
      End();
      recorder_ = other.recorder_;
      token_ = other.token_;
      other.recorder_ = nullptr;
    }
    return *this;
  }

  /// \brief Closes the span early (idempotent).
  void End() {
    if (recorder_ != nullptr) {
      recorder_->EndSpan(token_);
      recorder_ = nullptr;
    }
  }

 private:
  RunRecorder* recorder_ = nullptr;
  uint64_t token_ = 0;
};

}  // namespace spes

#endif  // SPES_OBS_RECORDER_H_
