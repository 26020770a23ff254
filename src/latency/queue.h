// Per-lane admission control: a bounded FIFO queue in front of a pool of
// concurrent execution slots.
//
// ConcurrencyQueue is the discrete-event core of the latency subsystem.
// It models one node (or one single-lane stream) as `concurrency` servers
// fed by a FIFO queue, advanced in *resolve-at-enqueue* style: each
// request's fate — start time, timeout, or shed — is decided the moment
// it is offered, from the queue state alone. Because requests are offered
// in the trace's canonical decode order and every computation is plain
// double arithmetic over that order, the outcome is a pure function of
// the offered sequence: bitwise-identical at any thread count, and
// serializable mid-window for checkpoint/restore.
//
// Time is a millisecond offset from the start of the simulated window
// (minute t spans [t*60000, (t+1)*60000)). Requests within a minute are
// spread evenly across it in decode order, which keeps burst minutes from
// collapsing onto one instant while staying derivable from the trace.

#ifndef SPES_LATENCY_QUEUE_H_
#define SPES_LATENCY_QUEUE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace spes {

class BinaryWriter;  // common/binary_io.h
class BinaryReader;

/// \brief Admission parameters for one queue. The zero value of every
/// field means "off": unlimited concurrency, unbounded queue, no timeout.
struct QueueConfig {
  /// Concurrent execution slots; 0 = unlimited (no queueing at all).
  int concurrency = 0;
  /// Waiting requests admitted before shedding; 0 = unbounded.
  int queue_capacity = 0;
  /// Longest tolerated wait in ms; a request whose computed wait exceeds
  /// this times out (it never starts). 0 = wait forever.
  double timeout_ms = 0.0;

  bool operator==(const QueueConfig&) const = default;
};

/// \brief What happened to one offered request.
enum class Admission : uint8_t {
  kServed,    ///< ran to completion; end_to_end_ms is wait + service
  kTimedOut,  ///< waited past timeout_ms and gave up without running
  kShed,      ///< rejected on arrival: the queue was at capacity
};

/// \brief Offer() verdict. end_to_end_ms is meaningful only for kServed.
struct QueueOutcome {
  Admission admission = Admission::kServed;
  double end_to_end_ms = 0.0;
};

/// \brief One FIFO queue + server pool. Offer requests in nondecreasing
/// arrival-time order; call EndMinute() at each minute boundary to drain
/// departed waiters and sample the queue depth.
class ConcurrencyQueue {
 public:
  ConcurrencyQueue() = default;
  explicit ConcurrencyQueue(const QueueConfig& config) : config_(config) {}

  [[nodiscard]] const QueueConfig& config() const { return config_; }

  /// \brief Decides the fate of a request arriving at `arrival_ms` that
  /// needs `service_ms` of execution time. Arrival times must not
  /// decrease across calls (the minute-major loop guarantees this).
  ///
  /// Inline fast path for the common case — no waiter queued and a
  /// server free at the arrival instant: the request starts on arrival,
  /// and a finished server's time is replaced in place with one sift-down.
  /// Only front() and the multiset of finish times are observable
  /// (SerializeTo() sorts, operator== compares multisets), so the heap
  /// layout may differ from a pop + push without changing any outcome.
  QueueOutcome Offer(double arrival_ms, double service_ms) {
    if (leave_times_.empty()) {
      if (config_.concurrency <= 0) return {Admission::kServed, service_ms};
      // `0.0 +` is the zero wait of the queued path: it turns a -0.0
      // service time into +0.0 exactly as that path does.
      if (finish_times_.size() < static_cast<size_t>(config_.concurrency)) {
        PushFinish(arrival_ms + service_ms);
        return {Admission::kServed, 0.0 + service_ms};
      }
      if (finish_times_.front() <= arrival_ms) {
        ReplaceEarliestFinish(arrival_ms + service_ms);
        return {Admission::kServed, 0.0 + service_ms};
      }
    }
    return OfferQueued(arrival_ms, service_ms);
  }

  /// \brief Drains waiters who left the queue by `now_ms` (started
  /// service or timed out) and returns the remaining queue depth.
  size_t DrainUntil(double now_ms);

  /// \brief Waiting requests currently in the queue.
  [[nodiscard]] size_t depth() const { return leave_times_.size(); }

  /// \brief Appends the queue state (config + both heaps, canonically
  /// sorted) to `writer`.
  void SerializeTo(BinaryWriter* writer) const;

  /// \brief Parses bytes produced by SerializeTo(). Corrupt input
  /// (unsorted heaps, non-finite times, sizes past the remaining bytes)
  /// yields InvalidArgument.
  static Result<ConcurrencyQueue> ParseFrom(BinaryReader* reader);

  /// \brief Equality over the *multisets* of times (heap layout is an
  /// implementation detail; two queues that behave identically are equal).
  bool operator==(const ConcurrencyQueue& other) const;

 private:
  /// The pre-fast-path Offer(), kept for differential tests
  /// (latency/reference_queue.h).
  friend QueueOutcome ReferenceOffer(ConcurrencyQueue* queue,
                                     double arrival_ms, double service_ms);

  /// Offer() when a waiter is queued or every server is busy past
  /// `arrival_ms`: drains, then sheds, times out or queues the request.
  QueueOutcome OfferQueued(double arrival_ms, double service_ms);
  /// Adds a busy server finishing at `finish_ms` to the pool.
  void PushFinish(double finish_ms);
  /// Replaces the earliest finish time with `finish_ms` (>= it): one
  /// sift-down instead of pop_heap + push_heap.
  void ReplaceEarliestFinish(double finish_ms);

  QueueConfig config_;
  /// Min-heap (std::greater) of busy servers' finish times. Size is
  /// capped at config_.concurrency; empty when concurrency is unlimited.
  std::vector<double> finish_times_;
  /// Min-heap (std::greater) of queued requests' leave times — the
  /// instant each waiter starts service or abandons on timeout. Only the
  /// multiset matters (FIFO order is implied by resolve-at-enqueue), so
  /// a sorted snapshot restores to an equivalent heap.
  std::vector<double> leave_times_;
};

}  // namespace spes

#endif  // SPES_LATENCY_QUEUE_H_
