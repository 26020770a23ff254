#include "policies/faascache.h"

#include <algorithm>
#include <memory>

#include "core/policy_registry.h"

namespace spes {

void RegisterFaasCachePolicy(PolicyRegistry& registry) {
  PolicyRegistry::Entry entry;
  entry.canonical_name = "faascache";
  entry.summary =
      "FaasCache: GDSF keep-alive caching under a fixed instance capacity";
  // Capacity is a size_t, not an int: only the lower bound matters.
  entry.params = {{"capacity", ParamType::kInt, ParamValue(1024),
                   "maximum resident instances; the paper provisions it "
                   "with SPES's peak memory",
                   1}};
  entry.factory =
      [](const PolicyParams& params) -> Result<std::unique_ptr<Policy>> {
    return std::unique_ptr<Policy>(std::make_unique<FaasCachePolicy>(
        static_cast<size_t>(params.GetInt("capacity"))));
  };
  registry.Register(std::move(entry)).CheckOK();
}

FaasCachePolicy::FaasCachePolicy(size_t capacity_instances)
    : capacity_(capacity_instances == 0 ? 1 : capacity_instances) {}

std::string FaasCachePolicy::name() const { return "FaasCache"; }

void FaasCachePolicy::Train(const Trace& trace, int train_minutes) {
  (void)train_minutes;  // FaasCache is purely online.
  frequency_.assign(trace.num_functions(), 0.0);
  priority_.assign(trace.num_functions(), 0.0);
  pinned_.assign(trace.num_functions(), 0);
  clock_ = 0.0;
}

void FaasCachePolicy::OnMinute(int t, const std::vector<Invocation>& arrivals,
                               MemSet* mem) {
  (void)t;
  std::fill(pinned_.begin(), pinned_.end(), 0);
  for (const Invocation& inv : arrivals) {
    const size_t f = inv.function;
    frequency_[f] += static_cast<double>(inv.count);
    // Uniform cost/size: priority = clock + frequency.
    priority_[f] = clock_ + frequency_[f];
    pinned_[f] = 1;
  }

  // Enforce the capacity by evicting the minimum-priority resident victim;
  // executing functions are unevictable this minute.
  while (mem->Count() > capacity_) {
    double best = 0.0;
    int64_t victim = -1;
    // Resident ids come out ascending, so ties keep the lowest id just
    // like the old full scan (strict < keeps the first minimum seen).
    mem->ForEachLoaded([this, &best, &victim](size_t f) {
      if (pinned_[f]) return;
      if (victim < 0 || priority_[f] < best) {
        best = priority_[f];
        victim = static_cast<int64_t>(f);
      }
    });
    if (victim < 0) break;  // everything resident is executing
    mem->Remove(static_cast<size_t>(victim));
    clock_ = best;  // GDSF aging
  }
}

}  // namespace spes
