#include "latency/reference_queue.h"

#include <algorithm>
#include <functional>
#include <vector>

namespace spes {

QueueOutcome ReferenceOffer(ConcurrencyQueue* queue, double arrival_ms,
                            double service_ms) {
  constexpr auto kMinHeap = std::greater<>{};
  const QueueConfig& config = queue->config_;
  std::vector<double>& finish_times = queue->finish_times_;
  std::vector<double>& leave_times = queue->leave_times_;
  queue->DrainUntil(arrival_ms);
  if (config.concurrency <= 0) {
    return {Admission::kServed, service_ms};
  }
  if (config.queue_capacity > 0 &&
      leave_times.size() >= static_cast<size_t>(config.queue_capacity)) {
    return {Admission::kShed, 0.0};
  }
  const bool all_busy =
      finish_times.size() >= static_cast<size_t>(config.concurrency);
  const double start =
      all_busy ? std::max(arrival_ms, finish_times.front()) : arrival_ms;
  const double wait = start - arrival_ms;
  if (config.timeout_ms > 0.0 && wait > config.timeout_ms) {
    leave_times.push_back(arrival_ms + config.timeout_ms);
    std::push_heap(leave_times.begin(), leave_times.end(), kMinHeap);
    return {Admission::kTimedOut, 0.0};
  }
  if (all_busy) {
    std::pop_heap(finish_times.begin(), finish_times.end(), kMinHeap);
    finish_times.pop_back();
  }
  finish_times.push_back(start + service_ms);
  std::push_heap(finish_times.begin(), finish_times.end(), kMinHeap);
  if (wait > 0.0) {
    leave_times.push_back(start);
    std::push_heap(leave_times.begin(), leave_times.end(), kMinHeap);
  }
  return {Admission::kServed, wait + service_ms};
}

}  // namespace spes
