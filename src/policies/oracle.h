// Clairvoyant upper bound: loads a function exactly one minute before each
// invocation and evicts it as soon as no invocation is imminent. With a
// one-minute prediction horizon it achieves zero cold starts (after the
// first simulated minute) and zero wasted memory — the ideal scheduler the
// paper's introduction describes. Used by tests as a bound and by benches
// as a sanity row; not a baseline from the paper.

#ifndef SPES_POLICIES_ORACLE_H_
#define SPES_POLICIES_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/policy.h"

namespace spes {

/// \brief Perfect-future scheduler (lower-bounds both CSR and WMT).
///
/// Train() reads the future from the trace it is handed and keeps only
/// the invoked ids of every minute in [train_minutes + 1, horizon) — no
/// pointer into the trace — so the oracle runs over any source, packed
/// `.spt` files included. OnMinute(t) leaves memory holding exactly the
/// functions invoked at t + 1, in O(n/64 + resident + arrivals(t + 1)).
class OraclePolicy : public Policy {
 public:
  OraclePolicy() = default;

  [[nodiscard]] std::string name() const override { return "Oracle"; }
  void Train(const Trace& trace, int train_minutes) override;
  void OnMinute(int t, const std::vector<Invocation>& arrivals,
                MemSet* mem) override;

  /// \brief The oracle trains on the whole horizon: its future is the
  /// trace past the train window.
  [[nodiscard]] bool RequiresFullTrace() const override { return true; }

  /// \name Checkpointing: the oracle keeps no online-mutable state (its
  /// future index is derived from training), so its blob is empty.
  /// @{
  [[nodiscard]] bool SupportsCheckpoint() const override { return true; }
  [[nodiscard]] Result<std::string> SaveState() const override { return std::string(); }
  Status RestoreState(const std::string& blob) override {
    return blob.empty()
               ? Status::OK()
               : Status::InvalidArgument(
                     "oracle state blob must be empty, got " +
                     std::to_string(blob.size()) + " bytes");
  }
  /// @}

 private:
  /// First minute of the future index: train_minutes + 1, the look-ahead
  /// of the first simulated minute.
  int first_ = 0;
  /// CSR future index: minute first_ + i invokes ids_[offsets_[i]] up to
  /// ids_[offsets_[i + 1]], in ascending id order.
  std::vector<size_t> offsets_;
  std::vector<uint32_t> ids_;
  /// Scratch marks of the next minute's ids; all zero between steps.
  std::vector<uint8_t> next_;
};

}  // namespace spes

#endif  // SPES_POLICIES_ORACLE_H_
