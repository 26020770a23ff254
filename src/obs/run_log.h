// The schema-versioned JSONL run-log format: emit helpers, pluggable
// sinks, a hardened parser, and the Chrome trace-event export.
//
// A run log is a stream of one-line JSON objects. Every line carries an
// event kind `"ev"` and a time `"t"` (seconds since the recorder
// started, monotonic). The first line must be a `run_start` event whose
// `"schema"` equals kRunLogSchemaVersion; readers reject anything else
// so stale tooling never misreads a newer log. Unknown event kinds are
// skipped on read (forward compatibility); malformed JSON, a missing
// header or a bad schema are hard errors with line numbers — logs are
// untrusted input the moment they round-trip through disk.
//
// See docs/observability.md for the full event table and span
// hierarchy, and tools/spes_report.cc for the analyzer built on this
// parser.

#ifndef SPES_OBS_RUN_LOG_H_
#define SPES_OBS_RUN_LOG_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace spes {

/// Current run-log schema version, stamped into `run_start` events.
/// Bump on any breaking change to event shapes.
inline constexpr int kRunLogSchemaVersion = 1;

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// \brief Destination for run-log lines. Implementations need not be
/// thread-safe; RunRecorder serializes writes under its own mutex.
class LogSink {
 public:
  virtual ~LogSink() = default;

  /// \brief Consumes one complete JSON line (no trailing newline).
  virtual void WriteLine(const std::string& line) = 0;

  /// \brief Flushes buffered lines to durable storage, if any.
  virtual void Flush() {}
};

/// \brief Appends lines to a stdio file. Fails softly: if the file
/// cannot be opened, ok() is false and writes are dropped — a broken
/// log destination must never take down a simulation.
class FileLogSink : public LogSink {
 public:
  explicit FileLogSink(const std::string& path);
  ~FileLogSink() override;

  FileLogSink(const FileLogSink&) = delete;
  FileLogSink& operator=(const FileLogSink&) = delete;

  [[nodiscard]] bool ok() const { return file_ != nullptr; }

  void WriteLine(const std::string& line) override;
  void Flush() override;

 private:
  std::FILE* file_ = nullptr;
};

/// \brief Collects lines in memory; the test and report-unit sink.
class StringLogSink : public LogSink {
 public:
  void WriteLine(const std::string& line) override {
    buffer_.append(line);
    buffer_.push_back('\n');
  }

  [[nodiscard]] const std::string& contents() const { return buffer_; }

 private:
  std::string buffer_;
};

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// \brief One closed wall-clock span: a named phase with start time and
/// duration, attributed to a SuiteRunner slot and a stream lane / cluster
/// node. Slot and lane are logical indices — never thread ids — so the
/// same workload traces identically at any thread count.
struct SpanRecord {
  std::string name;    ///< phase name (realize/pack/train/simulate/...)
  std::string detail;  ///< free-form annotation (label, path, policy)
  int slot = 0;        ///< SuiteRunner job slot (0 outside a suite)
  int lane = 0;        ///< stream lane or cluster node id
  double t = 0.0;      ///< start, seconds since recorder start
  double dur = 0.0;    ///< duration in seconds

  bool operator==(const SpanRecord& other) const {
    return name == other.name && detail == other.detail &&
           slot == other.slot && lane == other.lane && t == other.t &&
           dur == other.dur;
  }
};

/// \brief One strided per-minute heartbeat: live fleet counters for one
/// lane at one simulated minute. Counter fields mirror LiveTotals plus
/// the latency queue depth (0 when the latency subsystem is off).
struct HeartbeatRecord {
  int slot = 0;
  int lane = 0;
  int minute = 0;
  uint64_t invocations = 0;
  uint64_t cold_starts = 0;
  uint64_t loaded_instance_minutes = 0;
  uint64_t wasted_memory_minutes = 0;
  uint32_t loaded_instances = 0;
  uint32_t queue_depth = 0;
  double t = 0.0;  ///< seconds since recorder start, stamped on emit
};

/// \brief Aggregated TraceCache activity parsed from `cache` events.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t packs = 0;
};

/// \brief Aggregated ArrivalDecoder work parsed from `decoder` events.
struct DecoderStats {
  uint64_t blocks = 0;
  uint64_t invocations = 0;
};

/// \brief A run log parsed back into typed records, ready for the
/// spes_report tables and the Perfetto export.
struct ParsedRunLog {
  int schema = 0;
  std::string label;  ///< run label from run_start
  std::vector<std::pair<std::string, std::string>> config;  ///< in order
  std::vector<SpanRecord> spans;
  std::vector<HeartbeatRecord> heartbeats;
  CacheStats cache;
  DecoderStats decoder;
  uint64_t checkpoint_saves = 0;
  uint64_t checkpoint_restores = 0;
  bool saw_run_end = false;
  double duration_seconds = 0.0;  ///< from run_end (0 if truncated)
  size_t num_events = 0;          ///< total lines parsed (all kinds)
};

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

/// \brief A parsed JSON value. Objects preserve member order as a
/// vector of pairs (no unordered containers — linter rule R2), so
/// anything derived from a parse iterates deterministically.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> array_items;
  std::vector<std::pair<std::string, JsonValue>> object_items;

  /// \brief First member with the given key, or nullptr.
  [[nodiscard]] const JsonValue* Find(const std::string& key) const;
};

/// \brief Parses one JSON document (hardened: depth-bounded, rejects
/// trailing garbage). Run-log lines and user-supplied report inputs go
/// through this, so it must be total over arbitrary bytes.
Result<JsonValue> ParseJson(const std::string& text);

// ---------------------------------------------------------------------------
// Run-log parsing
// ---------------------------------------------------------------------------

/// \brief Parses a full JSONL run log. Strict on structure (bad JSON,
/// missing/invalid run_start header, wrong schema ⇒ InvalidArgument
/// with a line number), tolerant of unknown event kinds and of logs
/// truncated after the header (streaming writers die mid-run; the
/// prefix should still be analyzable).
Result<ParsedRunLog> ParseRunLog(const std::string& text);

/// \brief Reads and parses a run-log file.
Result<ParsedRunLog> ReadRunLogFile(const std::string& path);

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

/// \brief Renders spans as Chrome trace-event JSON (complete "X"
/// events) loadable in Perfetto / chrome://tracing. Each (slot, lane)
/// pair becomes one named track, so the view is stable across thread
/// counts.
std::string ChromeTraceJson(const std::vector<SpanRecord>& spans);

}  // namespace spes

#endif  // SPES_OBS_RUN_LOG_H_
