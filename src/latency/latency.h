// The latency subsystem's engine-facing layer: the latency block of a
// simulation (model + queue config), the per-lane state machine advanced
// by the minute-major loop, and the per-run outcome with p50/p95/p99 SLO
// summaries.
//
// A latency block is written `<model> @ queue{...}`:
//
//   lognormal{cold_median_ms=900} @ queue{concurrency=64,timeout_ms=2000}
//
// The left side names a LatencyModel (latency/latency_model.h); the
// optional right side configures admission: `concurrency` execution slots
// per lane/node, `capacity` queue slots before shedding, `timeout_ms`
// abandonment, and the `seed` of the per-request sampling stream. The
// whole block is opt-in — SimOptions without one runs byte-identical to
// an engine without this subsystem.
//
// Determinism: every request's service time is a pure function of
// (function name, seed, minute, intra-minute index), so outcomes are
// bitwise-identical at any thread count, independent of routing history,
// and resumable mid-window (SaveState/RestoreState serialize the queue
// and histogram through the hardened binary_io).

#ifndef SPES_LATENCY_LATENCY_H_
#define SPES_LATENCY_LATENCY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "latency/latency_model.h"
#include "latency/queue.h"
#include "trace/trace_source.h"

namespace spes {

/// \brief The parsed latency block of a scenario: which service-time
/// model to sample and how each lane/node admits requests. The default
/// queue fields are all "off" (unlimited concurrency, no shedding, no
/// timeout), matching a bare `<model>` spec with no `@ queue{...}` part.
struct LatencySpec {
  LatencyModelSpec model{"constant", {}};
  /// Concurrent execution slots per lane/node; 0 = unlimited.
  int concurrency = 0;
  /// Queue slots before arrivals are shed; 0 = unbounded.
  int queue_capacity = 0;
  /// Longest tolerated queue wait in ms; 0 = wait forever.
  double timeout_ms = 0.0;
  /// Seed of the per-request sampling stream (mixed with each function's
  /// name, so streams are stable under fleet reordering).
  uint64_t seed = 0;

  bool operator==(const LatencySpec&) const = default;
};

/// \brief Parses `<model spec> [@ queue{concurrency=..,capacity=..,
/// timeout_ms=..,seed=..}]`. Unknown queue parameters, out-of-range
/// values, and malformed model specs yield InvalidArgument/NotFound with
/// the offending field named.
Result<LatencySpec> ParseLatencySpec(const std::string& text);

/// \brief Inverse of ParseLatencySpec: canonical form with the queue
/// block omitted when every queue field is at its default, and only
/// non-default queue parameters listed (lexicographic order). Reparsing
/// the result reproduces `spec` (format→reparse fixed point).
std::string FormatLatencySpec(const LatencySpec& spec);

/// \brief Semantic validation beyond parsing: the model must build
/// against LatencyModelRegistry::Global(), numeric fields must be in
/// range, and `capacity`/`timeout_ms` require a concurrency limit (with
/// unlimited slots nothing ever queues, so either would silently be a
/// no-op — rejected as a likely misconfiguration).
Status ValidateLatencySpec(const LatencySpec& spec);

/// \brief The declared `queue{...}` parameter schema, for catalogs.
const std::vector<ParamSpec>& LatencyQueueParamSchema();

/// \brief Per-function sampling-stream keys: MixNameSeed(name, seed) for
/// every function in `source`. Computed once per run and shared across
/// lanes/nodes (the keys depend only on names, never on placement).
std::vector<uint64_t> ComputeFunctionHashes(const TraceSource& source,
                                            uint64_t seed);

/// \brief O(1) live latency counters carried by each MinuteView when the
/// subsystem is enabled (sim/observer.h).
struct LatencyLiveTotals {
  uint64_t served = 0;    ///< requests that ran to completion
  uint64_t timeouts = 0;  ///< abandoned waiting past timeout_ms
  uint64_t shed = 0;      ///< rejected on arrival (queue at capacity)
  uint32_t queue_depth = 0;  ///< waiters at the end of the latest minute

  bool operator==(const LatencyLiveTotals&) const = default;
};

/// \brief Latency outcome of one lane/node (or, merged, a fleet): the
/// end-to-end histogram, admission counters, per-minute queue depth, and
/// — after FinalizeLatencyOutcome() — the derived SLO summary.
struct LatencyOutcome {
  /// End-to-end (queue wait + service) times of served requests, in
  /// microseconds. Fixed-geometry, so per-node histograms merge exactly.
  FixedBucketHistogram histogram;
  uint64_t served = 0;
  uint64_t cold_served = 0;  ///< served requests that paid a cold start
  uint64_t timeouts = 0;
  uint64_t shed = 0;
  /// Queue depth at the end of each simulated minute (for a merged fleet
  /// outcome: summed across nodes, minute by minute).
  std::vector<uint32_t> queue_depth_series;

  /// \name Derived SLO summary, filled by FinalizeLatencyOutcome().
  /// @{
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
  double timeout_rate = 0.0;  ///< timeouts / offered
  double shed_rate = 0.0;     ///< shed / offered
  uint32_t max_queue_depth = 0;
  /// @}

  /// \brief Requests offered to the lane: served + timeouts + shed.
  [[nodiscard]] uint64_t offered() const { return served + timeouts + shed; }

  bool operator==(const LatencyOutcome&) const = default;
};

/// \brief Recomputes the derived SLO fields from the raw counters.
void FinalizeLatencyOutcome(LatencyOutcome* outcome);

/// \brief Folds `src` into `dst` exactly: histograms and counters add,
/// depth series sum minute-by-minute (shorter series are zero-extended).
/// Call FinalizeLatencyOutcome() afterwards to refresh the summary.
void MergeLatencyOutcome(LatencyOutcome* dst, const LatencyOutcome& src);

/// \brief The per-lane (SimStream) / per-node (ClusterSession) latency
/// state machine: one ConcurrencyQueue plus the accumulating outcome,
/// advanced once per simulated minute in lockstep with the columnar loop.
/// Not thread-safe; owned and driven by exactly one lane.
class LatencyLane {
 public:
  /// `model` samples service times; `function_hashes` is the shared
  /// ComputeFunctionHashes() table (borrowed via shared_ptr so lockstep
  /// lanes and cluster nodes share one copy).
  LatencyLane(std::unique_ptr<const LatencyModel> model,
              const LatencySpec& spec,
              std::shared_ptr<const std::vector<uint64_t>> function_hashes);

  /// \brief Feeds one simulated minute: `arrivals[i].count` requests per
  /// entry, spread evenly across the minute in decode order.
  /// `cold_flags[i]` says arrival i hit an unloaded function — its first
  /// request samples the cold distribution, the rest (and all other
  /// arrivals) the warm one, mirroring the engine's one-cold-start-per-
  /// arrival-minute accounting.
  void OnMinute(int minute, const std::vector<Invocation>& arrivals,
                const std::vector<uint8_t>& cold_flags);

  [[nodiscard]] const LatencyLiveTotals& live() const { return live_; }

  /// \brief Queue depth observed at the end of each simulated minute.
  [[nodiscard]] const std::vector<uint32_t>& queue_depth_series() const {
    return outcome_.queue_depth_series;
  }

  /// \brief Finalizes and moves out the accumulated outcome.
  [[nodiscard]] LatencyOutcome TakeOutcome();

  /// \brief Serializes queue + histogram + counters for checkpoints.
  [[nodiscard]] std::string SaveState() const;

  /// \brief Restores a SaveState() blob. `expected_minutes` is the number
  /// of minutes the restored-to stream has already simulated; a blob
  /// whose depth series disagrees (or any corrupt field) yields
  /// InvalidArgument.
  Status RestoreState(const std::string& bytes, size_t expected_minutes);

 private:
  /// Requests per OnMinute() chunk: large enough that the model call and
  /// the loop setup are amortized, small enough that a burst minute's
  /// scratch stays in cache.
  static constexpr size_t kChunk = 2048;

  std::unique_ptr<const LatencyModel> model_;
  LatencySpec spec_;
  std::shared_ptr<const std::vector<uint64_t>> function_hashes_;
  ConcurrencyQueue queue_;
  LatencyOutcome outcome_;  ///< derived fields stay 0 until TakeOutcome()
  LatencyLiveTotals live_;
  /// Per-chunk scratch (kChunk entries each): request keys, cold flags
  /// and the sampled service times.
  std::vector<uint64_t> keys_;
  std::vector<uint8_t> cold_;
  std::vector<double> service_ms_;
};

/// \brief Builds a LatencyLane from a validated spec: creates the model
/// via LatencyModelRegistry::Global() and wires the queue config.
Result<std::unique_ptr<LatencyLane>> CreateLatencyLane(
    const LatencySpec& spec,
    std::shared_ptr<const std::vector<uint64_t>> function_hashes);

}  // namespace spes

#endif  // SPES_LATENCY_LATENCY_H_
