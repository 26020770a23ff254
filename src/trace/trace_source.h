// TraceSource: the minimal surface the simulation engines need from a
// workload, abstracted away from where the bytes live.
//
// A fully realized in-memory Trace is one implementation
// (InMemoryTraceSource); a packed on-disk trace file streaming 256-minute
// blocks is another (trace/trace_file.h). SimStream, ClusterSession and
// ArrivalDecoder consume this interface, so fleets too large to realize in
// RAM simulate straight off disk while the in-memory fast path keeps its
// exact behaviour — both sides produce bitwise-identical arrival streams
// (tests/trace_file_test.cc pins this differentially and against the
// seed-99 goldens).

#ifndef SPES_TRACE_TRACE_SOURCE_H_
#define SPES_TRACE_TRACE_SOURCE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "trace/trace.h"

namespace spes {

/// \brief One function's arrivals within a single minute.
struct Invocation {
  uint32_t function = 0;  ///< index into the trace's function list
  uint32_t count = 0;     ///< number of arrivals in this minute (>= 1)
};

/// \brief Read-only minute-window access to a fleet's arrival stream.
///
/// Implementations must be deterministic: repeated FillArrivals() calls
/// over the same window yield identical buckets, and the bucket order
/// contract (ascending function id within a minute) matches what the
/// in-memory decode produces, so engines are bitwise-agnostic to the
/// backing store.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// \brief Common horizon of every function, in minutes.
  [[nodiscard]] virtual int num_minutes() const = 0;

  /// \brief Number of functions in the fleet.
  [[nodiscard]] virtual size_t num_functions() const = 0;

  /// \brief Static metadata of function `f` (unchecked index). The
  /// reference stays valid for the lifetime of the source.
  [[nodiscard]] virtual const FunctionMeta& function_meta(size_t f) const = 0;

  /// \brief Fills `buckets` with the arrivals of minutes [begin, end):
  /// buckets[i] lists minute begin+i's invoked functions in ascending
  /// function id order. The callee resizes `buckets` to at least end-begin
  /// entries and clears/overwrites the first end-begin of them (existing
  /// capacity is reused, so a caller looping over blocks allocates only on
  /// the first call). Requires 0 <= begin <= end <= num_minutes().
  virtual Status FillArrivals(int begin, int end,
                              std::vector<std::vector<Invocation>>* buckets) = 0;

  /// \brief Materializes the first `num_minutes` minutes as an in-memory
  /// Trace (counts beyond the prefix are absent, not zeroed — the returned
  /// trace's horizon IS `num_minutes`). Engines call it, through
  /// TrainPolicies() (sim/engine_lane.h), only when realized_trace() is
  /// null: for the train window, or for the whole horizon when a policy
  /// RequiresFullTrace(). O(num_functions * num_minutes) memory — callers
  /// cap the prefix, not the fleet.
  virtual Result<Trace> MaterializePrefix(int num_minutes) = 0;

  /// \brief The realized trace behind this source, if it holds one (then
  /// policies train on it without a prefix copy); null for pure streams.
  [[nodiscard]] virtual const Trace* realized_trace() const { return nullptr; }
};

/// \brief TraceSource over a borrowed, fully realized Trace — the zero-copy
/// fast path. Carries the row-pointer cache + software-prefetch transpose
/// that ArrivalDecoder's block decode uses, so in-memory decoding performs
/// exactly as before the abstraction existed.
class InMemoryTraceSource final : public TraceSource {
 public:
  /// \brief Borrows `trace`, which must outlive the source.
  explicit InMemoryTraceSource(const Trace& trace) : trace_(&trace) {}

  [[nodiscard]] int num_minutes() const override {
    return trace_->num_minutes();
  }
  [[nodiscard]] size_t num_functions() const override {
    return trace_->num_functions();
  }
  [[nodiscard]] const FunctionMeta& function_meta(size_t f) const override {
    return trace_->function(f).meta;
  }

  Status FillArrivals(int begin, int end,
                      std::vector<std::vector<Invocation>>* buckets) override;

  Result<Trace> MaterializePrefix(int num_minutes) override;

  /// \brief The borrowed underlying trace.
  [[nodiscard]] const Trace* realized_trace() const override { return trace_; }

 private:
  const Trace* trace_;
  /// rows_[f] = f's count vector; caching the data pointers turns the
  /// per-function FunctionTrace chase (struct load -> vector load -> data)
  /// into independent loads the CPU can overlap across functions.
  std::vector<const uint32_t*> rows_;
};

}  // namespace spes

#endif  // SPES_TRACE_TRACE_SOURCE_H_
