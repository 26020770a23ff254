#include "latency/queue.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>

#include "common/binary_io.h"

namespace spes {

namespace {

constexpr auto kMinHeap = std::greater<>{};

/// Sorted-ascending snapshot of a min-heap: the canonical serialized
/// layout (and itself a valid min-heap, so restore needs no re-heapify).
std::vector<double> SortedCopy(const std::vector<double>& heap) {
  std::vector<double> sorted = heap;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

void PutHeap(BinaryWriter* writer, const std::vector<double>& heap) {
  writer->PutVarU64(heap.size());
  writer->PutArray(SortedCopy(heap));
}

Result<std::vector<double>> ReadHeap(BinaryReader* reader,
                                     const char* which) {
  SPES_ASSIGN_OR_RETURN(const uint64_t size, reader->VarLength(8));
  SPES_ASSIGN_OR_RETURN(std::vector<double> heap,
                        reader->Array<double>(size));
  for (size_t i = 0; i < heap.size(); ++i) {
    const double t = heap[i];
    if (!std::isfinite(t) || t < 0.0) {
      return Status::InvalidArgument(
          std::string("corrupt queue state: ") + which +
          " holds a negative or non-finite time");
    }
    if (i > 0 && t < heap[i - 1]) {
      return Status::InvalidArgument(
          std::string("corrupt queue state: ") + which +
          " times are not sorted ascending");
    }
  }
  return heap;
}

}  // namespace

QueueOutcome ConcurrencyQueue::OfferQueued(double arrival_ms,
                                          double service_ms) {
  DrainUntil(arrival_ms);
  if (config_.concurrency <= 0) {
    // Unlimited slots: every request starts on arrival, nothing queues.
    return {Admission::kServed, service_ms};
  }
  // Invariant: any waiter still queued leaves strictly after arrival_ms,
  // which means every server is busy past arrival_ms too — so a full
  // queue implies this request would wait, and shedding it is sound.
  if (config_.queue_capacity > 0 &&
      leave_times_.size() >= static_cast<size_t>(config_.queue_capacity)) {
    return {Admission::kShed, 0.0};
  }
  const bool all_busy =
      finish_times_.size() >= static_cast<size_t>(config_.concurrency);
  const double start =
      all_busy ? std::max(arrival_ms, finish_times_.front()) : arrival_ms;
  const double wait = start - arrival_ms;
  if (config_.timeout_ms > 0.0 && wait > config_.timeout_ms) {
    // Abandons at arrival + timeout without ever starting; it occupies a
    // queue slot (and counts toward capacity) until that instant, but the
    // server pool never sees it.
    leave_times_.push_back(arrival_ms + config_.timeout_ms);
    std::push_heap(leave_times_.begin(), leave_times_.end(), kMinHeap);
    return {Admission::kTimedOut, 0.0};
  }
  if (all_busy) {
    // start >= front(): the server that frees first takes the request.
    ReplaceEarliestFinish(start + service_ms);
  } else {
    PushFinish(start + service_ms);
  }
  if (wait > 0.0) {
    leave_times_.push_back(start);
    std::push_heap(leave_times_.begin(), leave_times_.end(), kMinHeap);
  }
  return {Admission::kServed, wait + service_ms};
}

void ConcurrencyQueue::PushFinish(double finish_ms) {
  finish_times_.push_back(finish_ms);
  std::push_heap(finish_times_.begin(), finish_times_.end(), kMinHeap);
}

void ConcurrencyQueue::ReplaceEarliestFinish(double finish_ms) {
  double* heap = finish_times_.data();
  const size_t size = finish_times_.size();
  size_t hole = 0;
  for (;;) {
    size_t child = 2 * hole + 1;
    if (child >= size) break;
    if (child + 1 < size && heap[child + 1] < heap[child]) ++child;
    if (!(heap[child] < finish_ms)) break;
    heap[hole] = heap[child];
    hole = child;
  }
  heap[hole] = finish_ms;
}

size_t ConcurrencyQueue::DrainUntil(double now_ms) {
  while (!leave_times_.empty() && leave_times_.front() <= now_ms) {
    std::pop_heap(leave_times_.begin(), leave_times_.end(), kMinHeap);
    leave_times_.pop_back();
  }
  return leave_times_.size();
}

void ConcurrencyQueue::SerializeTo(BinaryWriter* writer) const {
  writer->PutVarU64(static_cast<uint64_t>(config_.concurrency));
  writer->PutVarU64(static_cast<uint64_t>(config_.queue_capacity));
  writer->PutDouble(config_.timeout_ms);
  PutHeap(writer, finish_times_);
  PutHeap(writer, leave_times_);
}

Result<ConcurrencyQueue> ConcurrencyQueue::ParseFrom(BinaryReader* reader) {
  ConcurrencyQueue queue;
  SPES_ASSIGN_OR_RETURN(const uint64_t concurrency, reader->VarU64());
  SPES_ASSIGN_OR_RETURN(const uint64_t capacity, reader->VarU64());
  constexpr uint64_t kMaxInt =
      static_cast<uint64_t>(std::numeric_limits<int>::max());
  if (concurrency > kMaxInt || capacity > kMaxInt) {
    return Status::InvalidArgument(
        "corrupt queue state: concurrency/capacity overflows int");
  }
  queue.config_.concurrency = static_cast<int>(concurrency);
  queue.config_.queue_capacity = static_cast<int>(capacity);
  SPES_ASSIGN_OR_RETURN(queue.config_.timeout_ms, reader->Double());
  if (!std::isfinite(queue.config_.timeout_ms) ||
      queue.config_.timeout_ms < 0.0) {
    return Status::InvalidArgument(
        "corrupt queue state: timeout_ms is negative or non-finite");
  }
  SPES_ASSIGN_OR_RETURN(queue.finish_times_,
                        ReadHeap(reader, "server pool"));
  SPES_ASSIGN_OR_RETURN(queue.leave_times_, ReadHeap(reader, "wait queue"));
  if (queue.config_.concurrency == 0 && !queue.finish_times_.empty()) {
    return Status::InvalidArgument(
        "corrupt queue state: busy servers with unlimited concurrency");
  }
  if (queue.config_.concurrency > 0 &&
      queue.finish_times_.size() >
          static_cast<size_t>(queue.config_.concurrency)) {
    return Status::InvalidArgument(
        "corrupt queue state: more busy servers than concurrency slots");
  }
  // Offer() queues a request only when every server is busy, never with
  // unlimited concurrency, and never past capacity; and a server time is
  // only ever replaced, never dropped. States outside that are corrupt.
  const size_t waiters = queue.leave_times_.size();
  if (waiters > 0 && queue.config_.concurrency == 0) {
    return Status::InvalidArgument(
        "corrupt queue state: wait queue holds (=" + std::to_string(waiters) +
        ") waiters but concurrency is unlimited");
  }
  if (queue.config_.queue_capacity > 0 &&
      waiters > static_cast<size_t>(queue.config_.queue_capacity)) {
    return Status::InvalidArgument(
        "corrupt queue state: wait queue holds (=" + std::to_string(waiters) +
        ") waiters, more than capacity (=" +
        std::to_string(queue.config_.queue_capacity) + ")");
  }
  if (waiters > 0 && queue.finish_times_.size() <
                         static_cast<size_t>(queue.config_.concurrency)) {
    return Status::InvalidArgument(
        "corrupt queue state: wait queue holds (=" + std::to_string(waiters) +
        ") waiters while the server pool has an idle slot: (=" +
        std::to_string(queue.finish_times_.size()) +
        ") busy servers of concurrency (=" +
        std::to_string(queue.config_.concurrency) + ")");
  }
  return queue;
}

bool ConcurrencyQueue::operator==(const ConcurrencyQueue& other) const {
  return config_ == other.config_ &&
         SortedCopy(finish_times_) == SortedCopy(other.finish_times_) &&
         SortedCopy(leave_times_) == SortedCopy(other.leave_times_);
}

}  // namespace spes
