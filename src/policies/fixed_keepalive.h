// Fixed keep-alive: the industry-default policy (e.g. OpenWhisk/Azure-style
// "keep the container for N minutes after the last use"). The paper's
// baseline uses N = 10 minutes. No pre-warming.

#ifndef SPES_POLICIES_FIXED_KEEPALIVE_H_
#define SPES_POLICIES_FIXED_KEEPALIVE_H_

#include <string>
#include <vector>

#include "sim/policy.h"

namespace spes {

/// \brief Keeps each instance loaded for a fixed window after its last
/// arrival, then evicts it.
class FixedKeepAlivePolicy : public Policy {
 public:
  explicit FixedKeepAlivePolicy(int keepalive_minutes = 10);

  [[nodiscard]] std::string name() const override;
  void Train(const Trace& trace, int train_minutes) override;
  void OnMinute(int t, const std::vector<Invocation>& arrivals,
                MemSet* mem) override;

  /// \name Checkpointing: the window plus per-function last arrivals.
  /// @{
  [[nodiscard]] bool SupportsCheckpoint() const override { return true; }
  [[nodiscard]] Result<std::string> SaveState() const override;
  Status RestoreState(const std::string& blob) override;
  /// @}

  [[nodiscard]] int keepalive_minutes() const { return keepalive_minutes_; }

 private:
  int keepalive_minutes_;
  std::vector<int> last_arrival_;
};

}  // namespace spes

#endif  // SPES_POLICIES_FIXED_KEEPALIVE_H_
