// Minute-major columnar state backing the SimStream hot loop.
//
// The seed engine walked every function once per simulated minute, twice:
// an O(n) arrival decode over function-major count vectors, and an O(n)
// residency scan striding 40-byte FunctionAccount structs. This header
// holds the two structures that replace those scans:
//
//   * ArrivalDecoder — transposes a block of minutes of the function-major
//     trace into minute-major arrival buckets in one sequential pass, so
//     the per-minute decode is O(arrivals) amortized instead of O(n).
//     Arrivals within a minute are in ascending function id order,
//     exactly like the seed's per-minute scan produced them.
//
//   * LaneColumns — struct-of-arrays per-function counters plus deferred
//     residency accounting. Rather than touching every loaded function's
//     account each minute, residency is tracked as intervals: a bitset
//     diff (prev XOR current, word-at-a-time) detects load/evict
//     transitions, `loaded_since` remembers when the open interval
//     started, and Materialize() folds open intervals back into the
//     classic FunctionAccount view on demand (observers, checkpoints,
//     outcomes). Per-minute cost is O(n/64 + transitions + arrivals).
//
// Both are exact: every materialized account, live total and memory-series
// entry is bitwise-identical to the seed loop's (tests/columnar_diff_test
// and the seed-99 goldens pin this).

#ifndef SPES_SIM_COLUMNAR_H_
#define SPES_SIM_COLUMNAR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "sim/accounting.h"
#include "sim/memset.h"
#include "sim/policy.h"
#include "trace/trace_source.h"

namespace spes {

/// \brief Batched minute-major arrival decode over any TraceSource.
///
/// Decode(t) returns minute t's arrivals in ascending function order. The
/// decoder pulls the source in aligned blocks of kBlockMinutes (block k
/// covers minutes [k*kBlockMinutes, (k+1)*kBlockMinutes)), visiting each
/// function's counts once per block, so the amortized per-minute cost is
/// O(n / kBlockMinutes + arrivals) instead of the O(n) pointer-chasing
/// scan the seed engine did. Over an in-memory trace that is the
/// sequential transpose it always was; over a packed trace file
/// (trace/trace_file.h) the aligned block grid coincides with the file's
/// block grid, so each file block is read and decompressed exactly once
/// per pass.
class ArrivalDecoder {
 public:
  /// Minutes per transposed block; matches the default block size of a
  /// packed trace file (TraceFileOptions::block_minutes).
  static constexpr int kBlockMinutes = 256;

  /// \brief Decodes a borrowed source, which must outlive the decoder (a
  /// realized Trace goes through an InMemoryTraceSource).
  explicit ArrivalDecoder(TraceSource* source) : source_(source) {}

  /// \brief Arrivals of absolute minute `t` (ascending function id). The
  /// span is valid until the next Decode() call. Decoding a minute outside
  /// the current block (any seek, forward or backward) re-aims the block,
  /// so checkpoint restores just work. On a source error the span is empty
  /// and status() reports the failure (and stays failed — engines check it
  /// once per step).
  std::span<const Invocation> Decode(int t);

  /// \brief OK until a source read/decode fails; sticky thereafter.
  [[nodiscard]] const Status& status() const { return status_; }

  /// \name Work counters (observability only — never feed sim state).
  /// Blocks transposed and arrival records bucketed since construction;
  /// seeks that re-decode a block count again, mirroring real work done.
  /// @{
  [[nodiscard]] uint64_t blocks_decoded() const { return blocks_decoded_; }
  [[nodiscard]] uint64_t invocations_decoded() const {
    return invocations_decoded_;
  }
  /// @}

 private:
  Status DecodeBlock(int block_start);

  TraceSource* source_ = nullptr;
  Status status_;
  int block_start_ = 0;
  int block_end_ = 0;  ///< decoded minutes are [block_start_, block_end_)
  uint64_t blocks_decoded_ = 0;
  uint64_t invocations_decoded_ = 0;
  /// buckets_[i] = arrivals of block minute block_start_ + i, ascending by
  /// function id. Bucket capacity persists across blocks, so after the
  /// first block the transpose reads the trace once and appends without
  /// reallocating.
  std::vector<std::vector<Invocation>> buckets_;
};

/// \brief Struct-of-arrays per-function counters for one lane, with
/// interval-based residency accounting.
///
/// Invariants (valid between minutes, at engine cursor `c`):
///   * `loaded_since[f]` is meaningful iff f's bit is set in the lane's
///     MemSet; the open interval then spans samples
///     [loaded_since[f], c), contributing c - loaded_since[f] loaded
///     minutes on top of `loaded_minutes[f]`.
///   * `prev_words` mirrors the MemSet words as of the last
///     AccrueResidency() call.
///   * wasted minutes are derived, never stored: executions pin (an
///     invoked function is loaded at its arrival minute's sample), so
///     every invoked minute is a loaded minute and
///     wasted = total loaded minutes - invoked_minutes.
struct LaneColumns {
  std::vector<uint64_t> invocations;
  std::vector<uint64_t> invoked_minutes;
  std::vector<uint64_t> cold_starts;
  /// Loaded minutes from closed residency intervals only.
  std::vector<uint64_t> loaded_minutes;
  /// Start sample of the open residency interval (iff currently loaded).
  std::vector<int32_t> loaded_since;
  /// MemSet words at the previous residency sample.
  std::vector<uint64_t> prev_words;

  /// \brief Zeroes every column for a fleet of `num_functions`.
  void Reset(size_t num_functions);

  /// \brief Records the residency sample of minute `t`: XOR-diffs the
  /// current membership words against `prev_words`, opening intervals for
  /// newly loaded functions and closing them for evicted ones.
  void AccrueResidency(int t, const MemSet& mem);

  /// \brief Folds the columns (including open residency intervals, which
  /// at engine cursor `cursor` span samples [loaded_since[f], cursor))
  /// into the classic per-function account view.
  void Materialize(int cursor, const MemSet& mem,
                   std::vector<FunctionAccount>* out) const;

  /// \brief Inverse of Materialize(): reloads the columns from a
  /// checkpoint's accounts and membership, positioned at engine cursor
  /// `cursor`. Open intervals restart at `cursor`. The accounts' wasted
  /// minutes are not read (EngineLane::CheckShape() has checked that they
  /// are the derived value).
  void LoadFrom(const std::vector<FunctionAccount>& accounts,
                const MemSet& mem, int cursor);
};

}  // namespace spes

#endif  // SPES_SIM_COLUMNAR_H_
