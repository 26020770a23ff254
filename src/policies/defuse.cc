#include "policies/defuse.h"

#include <algorithm>
#include <memory>

#include "core/policy_registry.h"

namespace spes {

void RegisterDefusePolicy(PolicyRegistry& registry) {
  PolicyRegistry::Entry entry;
  entry.canonical_name = "defuse";
  entry.summary =
      "Defuse: dependency-guided pre-warming over hybrid-histogram "
      "keep-alive";
  entry.factory =
      [](const PolicyParams&) -> Result<std::unique_ptr<Policy>> {
    return std::unique_ptr<Policy>(std::make_unique<DefusePolicy>());
  };
  registry.Register(std::move(entry)).CheckOK();
}

DefusePolicy::DefusePolicy()
    : keepalive_(HybridGranularity::kFunction,
                 kDefuseFallbackKeepAliveMinutes) {}

std::string DefusePolicy::name() const { return "Defuse"; }

void DefusePolicy::Train(const Trace& trace, int train_minutes) {
  const size_t n = trace.num_functions();
  keepalive_.Train(trace, train_minutes);
  prewarm_hold_until_.assign(n, -1);
  successors_.assign(n, {});

  // Per-function arrival minutes for dependency mining.
  std::vector<std::vector<int>> arrival_minutes(n);
  for (size_t f = 0; f < n; ++f) {
    const auto& counts = trace.function(f).counts;
    for (int t = 0; t < train_minutes; ++t) {
      if (counts[static_cast<size_t>(t)] > 0) {
        arrival_minutes[f].push_back(t);
      }
    }
  }

  // Strong-dependency mining over same-app pairs.
  for (const auto& [app, members] : trace.GroupByApp()) {
    if (members.size() < 2) continue;
    for (size_t a : members) {
      const auto& a_times = arrival_minutes[a];
      if (static_cast<int>(a_times.size()) < kDefuseMinSupport) continue;
      for (size_t b : members) {
        if (a == b) continue;
        const auto& b_times = arrival_minutes[b];
        if (b_times.empty()) continue;
        // Count A-arrivals followed by a B-arrival within the window.
        int followed = 0;
        size_t j = 0;
        for (int ta : a_times) {
          while (j < b_times.size() && b_times[j] <= ta) ++j;
          if (j < b_times.size() &&
              b_times[j] - ta <= kDefuseDependencyWindow) {
            ++followed;
          }
        }
        const double confidence =
            static_cast<double>(followed) /
            static_cast<double>(a_times.size());
        if (confidence >= kDefuseMinConfidence) {
          successors_[a].push_back(static_cast<uint32_t>(b));
        }
      }
    }
  }
}

void DefusePolicy::OnMinute(int t, const std::vector<Invocation>& arrivals,
                            MemSet* mem) {
  // Histogram keep-alive / pre-warm windows first...
  keepalive_.OnMinute(t, arrivals, mem);

  // ...then dependency pre-warms override evictions for held targets.
  for (const Invocation& inv : arrivals) {
    for (uint32_t succ : successors_[inv.function]) {
      prewarm_hold_until_[succ] = std::max(
          prewarm_hold_until_[succ], t + kDefusePrewarmHoldMinutes);
    }
  }
  for (size_t f = 0; f < prewarm_hold_until_.size(); ++f) {
    if (prewarm_hold_until_[f] >= t) mem->Add(f);
  }
}

int64_t DefusePolicy::CountFallbackFunctions() const {
  return keepalive_.CountFallbackUnits();
}

}  // namespace spes
