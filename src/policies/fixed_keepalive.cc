#include "policies/fixed_keepalive.h"

#include <memory>
#include <utility>

#include "common/binary_io.h"
#include "core/policy_registry.h"

namespace spes {

void RegisterFixedKeepAlivePolicy(PolicyRegistry& registry) {
  PolicyRegistry::Entry entry;
  entry.canonical_name = "fixed_keepalive";
  entry.summary =
      "Industry default: keep each instance warm for a fixed window after "
      "its last use";
  entry.params = {{"minutes", ParamType::kInt, ParamValue(10),
                   "keep-alive window after the last arrival", 1,
                   kIntParamMax}};
  entry.factory =
      [](const PolicyParams& params) -> Result<std::unique_ptr<Policy>> {
    return std::unique_ptr<Policy>(std::make_unique<FixedKeepAlivePolicy>(
        static_cast<int>(params.GetInt("minutes"))));
  };
  registry.Register(std::move(entry)).CheckOK();
}

FixedKeepAlivePolicy::FixedKeepAlivePolicy(int keepalive_minutes)
    : keepalive_minutes_(keepalive_minutes < 1 ? 1 : keepalive_minutes) {}

std::string FixedKeepAlivePolicy::name() const {
  return "Fixed-" + std::to_string(keepalive_minutes_) + "min";
}

void FixedKeepAlivePolicy::Train(const Trace& trace, int train_minutes) {
  (void)train_minutes;  // No offline modelling: purely reactive.
  last_arrival_.assign(trace.num_functions(), -1);
}

void FixedKeepAlivePolicy::OnMinute(int t,
                                    const std::vector<Invocation>& arrivals,
                                    MemSet* mem) {
  for (const Invocation& inv : arrivals) last_arrival_[inv.function] = t;
  // Walk only the loaded ids (ascending, like the old full scan); the
  // callback may evict the id it was handed.
  mem->ForEachLoaded([this, t, mem](size_t f) {
    const int last = last_arrival_[f];
    if (last < 0 || t - last >= keepalive_minutes_) mem->Remove(f);
  });
}

Result<std::string> FixedKeepAlivePolicy::SaveState() const {
  BinaryWriter w;
  w.PutI32(keepalive_minutes_);
  w.PutVector(last_arrival_);
  return w.Take();
}

Status FixedKeepAlivePolicy::RestoreState(const std::string& blob) {
  BinaryReader r(blob);
  SPES_ASSIGN_OR_RETURN(const int32_t minutes, r.I32());
  if (minutes != keepalive_minutes_) {
    return Status::InvalidArgument(
        "checkpoint was taken with keepalive minutes (=" +
        std::to_string(minutes) + ") but this policy has (=" +
        std::to_string(keepalive_minutes_) + ")");
  }
  SPES_ASSIGN_OR_RETURN(std::vector<int> restored, r.Vector<int32_t>());
  // The blob must describe the fleet this policy was trained on —
  // OnMinute indexes last_arrival_ by function id, so restoring a
  // different fleet size would read/write out of bounds.
  if (restored.size() != last_arrival_.size()) {
    return Status::InvalidArgument(
        "fixed_keepalive state blob describes (=" +
        std::to_string(restored.size()) +
        ") functions but this policy was trained on (=" +
        std::to_string(last_arrival_.size()) + ")");
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        "fixed_keepalive state blob has trailing bytes");
  }
  last_arrival_ = std::move(restored);
  return Status::OK();
}

}  // namespace spes
