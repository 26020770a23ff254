// The pop/push ConcurrencyQueue::Offer(), kept verbatim as the
// differential-testing oracle for the queue's fast path.
//
// ConcurrencyQueue::Offer() takes an inline fast path when no waiter is
// queued and a server is free at the arrival instant, and replaces the
// earliest finish time with one sift-down instead of pop_heap + push_heap.
// Both change the heap layout but never the observable state (front() and
// the multisets). ReferenceOffer() is the loop before that change, over
// the same queue state, so tests can assert identical outcomes and
// identical SerializeTo() bytes from the two (tests/latency_test.cc).

#ifndef SPES_LATENCY_REFERENCE_QUEUE_H_
#define SPES_LATENCY_REFERENCE_QUEUE_H_

#include "latency/queue.h"

namespace spes {

/// \brief Offers one request to `queue` through the reference
/// drain-then-pop/push admission path. Same contract as
/// ConcurrencyQueue::Offer(); exists solely for differential testing.
QueueOutcome ReferenceOffer(ConcurrencyQueue* queue, double arrival_ms,
                            double service_ms);

}  // namespace spes

#endif  // SPES_LATENCY_REFERENCE_QUEUE_H_
