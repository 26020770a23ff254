// The per-minute scan SpesPolicy::OnMinute() ran before it became
// event-driven, kept as the differential-testing oracle for that step.
//
// SpesPolicy evaluates a function only when its next deadline is due or
// while it sits inside a pre-load window, and grants online-correlation
// pre-warms through a candidate->tracker index. ReferenceSpesPolicy walks
// every function and every tracker each minute instead. It shares
// Train(), the arrival handling and the checkpoint codec with SpesPolicy,
// so tests can assert identical MemSet contents after every minute and
// identical SaveState() bytes (tests/spes_event_step_test.cc).

#ifndef SPES_CORE_REFERENCE_SPES_H_
#define SPES_CORE_REFERENCE_SPES_H_

#include <vector>

#include "core/spes_policy.h"

namespace spes {

/// \brief SPES stepped by the reference scan. Same contract, name and
/// checkpoint blobs as SpesPolicy (a blob saved by one restores into the
/// other); exists solely for differential testing and benches.
class ReferenceSpesPolicy final : public SpesPolicy {
 public:
  using SpesPolicy::SpesPolicy;

  void OnMinute(int t, const std::vector<Invocation>& arrivals,
                MemSet* mem) override;

 private:
  void ScanOnlineCorrelations(int t, MemSet* mem);
};

}  // namespace spes

#endif  // SPES_CORE_REFERENCE_SPES_H_
