#include "policies/hybrid_histogram.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "core/policy_registry.h"

namespace spes {

void RegisterHybridHistogramPolicy(PolicyRegistry& registry) {
  PolicyRegistry::Entry entry;
  entry.canonical_name = "hybrid_histogram";
  entry.summary =
      "Shahrad et al. hybrid histogram keep-alive/pre-warm (Azure Functions' "
      "adaptive policy)";
  entry.params = {
      {"granularity", ParamType::kString, ParamValue("function"),
       "scheduling unit: 'function' (HF) or 'application' (HA)"},
  };
  entry.factory =
      [](const PolicyParams& params) -> Result<std::unique_ptr<Policy>> {
    const std::string& granularity = params.GetString("granularity");
    HybridGranularity unit;
    if (granularity == "function") {
      unit = HybridGranularity::kFunction;
    } else if (granularity == "application") {
      unit = HybridGranularity::kApplication;
    } else {
      return Status::InvalidArgument(
          "hybrid_histogram parameter 'granularity' must be 'function' or "
          "'application', got '" +
          granularity + "'");
    }
    return std::unique_ptr<Policy>(std::make_unique<HybridHistogramPolicy>(
        unit, kHybridFallbackKeepAliveMinutes));
  };
  registry.Register(std::move(entry)).CheckOK();
}

HybridHistogramPolicy::HybridHistogramPolicy(HybridGranularity granularity,
                                             int fallback_keepalive_minutes)
    : granularity_(granularity),
      fallback_keepalive_minutes_(fallback_keepalive_minutes) {}

std::string HybridHistogramPolicy::name() const {
  return granularity_ == HybridGranularity::kApplication
             ? "Hybrid-Application"
             : "Hybrid-Function";
}

void HybridHistogramPolicy::RefreshWindow(UnitState* unit) const {
  unit->use_histogram = unit->histogram.Representative();
  if (!unit->use_histogram) {
    unit->prewarm_after = 0;  // stay loaded from the arrival on
    unit->unload_after = fallback_keepalive_minutes_;
    return;
  }
  const int head = unit->histogram.PercentileMinute(kHybridHeadPercentile);
  const int tail = unit->histogram.PercentileMinute(kHybridTailPercentile);
  // 10% margin: pre-warm earlier, keep alive longer.
  int prewarm =
      static_cast<int>(std::floor(head * (1.0 - kHybridMarginFraction)));
  int unload =
      static_cast<int>(std::ceil(tail * (1.0 + kHybridMarginFraction)));
  if (prewarm < 0) prewarm = 0;
  if (unload <= prewarm) unload = prewarm + 1;
  // A head at/below one minute means the unit re-fires immediately: keep it
  // loaded from the arrival instead of evict-then-reload.
  if (prewarm <= 1) prewarm = 0;
  unit->prewarm_after = prewarm;
  unit->unload_after = unload;
}

void HybridHistogramPolicy::Train(const Trace& trace, int train_minutes) {
  const size_t n = trace.num_functions();
  unit_of_function_.assign(n, 0);
  functions_of_unit_.clear();
  units_.clear();

  if (granularity_ == HybridGranularity::kFunction) {
    functions_of_unit_.resize(n);
    units_.reserve(n);
    for (size_t f = 0; f < n; ++f) {
      unit_of_function_[f] = static_cast<uint32_t>(f);
      functions_of_unit_[f] = {static_cast<uint32_t>(f)};
      units_.emplace_back();
    }
  } else {
    std::unordered_map<std::string, uint32_t> app_unit;
    for (size_t f = 0; f < n; ++f) {
      const std::string& app = trace.function(f).meta.app;
      auto [it, inserted] =
          app_unit.emplace(app, static_cast<uint32_t>(units_.size()));
      if (inserted) {
        units_.emplace_back();
        functions_of_unit_.emplace_back();
      }
      unit_of_function_[f] = it->second;
      functions_of_unit_[it->second].push_back(static_cast<uint32_t>(f));
    }
  }
  unit_arrived_.assign(units_.size(), 0);

  // Offline pass: accumulate unit-level IATs over the training window,
  // one unit at a time so its members' counts rows are read in order.
  for (size_t u = 0; u < units_.size(); ++u) {
    const std::vector<uint32_t>& members = functions_of_unit_[u];
    int last = -1;
    for (int t = 0; t < train_minutes; ++t) {
      bool arrived = false;
      for (uint32_t f : members) {
        if (trace.function(f).counts[static_cast<size_t>(t)] > 0) {
          arrived = true;
          break;
        }
      }
      if (!arrived) continue;
      if (last >= 0) units_[u].histogram.Record(t - last);
      last = t;
    }
  }
  for (UnitState& unit : units_) RefreshWindow(&unit);
}

void HybridHistogramPolicy::ApplyUnitSchedule(int t, size_t unit_index,
                                              MemSet* mem) {
  UnitState& unit = units_[unit_index];
  if (unit.last_arrival < 0) {
    // Never seen: evict anything resident (nothing should be).
    for (uint32_t f : functions_of_unit_[unit_index]) mem->Remove(f);
    return;
  }
  const int since = t - unit.last_arrival;
  const bool resident =
      since >= unit.prewarm_after && since < unit.unload_after;
  for (uint32_t f : functions_of_unit_[unit_index]) {
    if (resident) {
      mem->Add(f);
    } else {
      mem->Remove(f);
    }
  }
}

void HybridHistogramPolicy::OnMinute(int t,
                                     const std::vector<Invocation>& arrivals,
                                     MemSet* mem) {
  std::fill(unit_arrived_.begin(), unit_arrived_.end(), 0);
  for (const Invocation& inv : arrivals) {
    unit_arrived_[unit_of_function_[inv.function]] = 1;
  }
  for (size_t u = 0; u < units_.size(); ++u) {
    UnitState& unit = units_[u];
    if (unit_arrived_[u]) {
      // Online histogram update + window refresh on every arrival.
      if (unit.last_arrival >= 0) {
        unit.histogram.Record(t - unit.last_arrival);
      }
      unit.last_arrival = t;
      RefreshWindow(&unit);
    }
    ApplyUnitSchedule(t, u, mem);
  }
}

int64_t HybridHistogramPolicy::CountFallbackUnits() const {
  return std::count_if(units_.begin(), units_.end(),
                       [](const UnitState& u) { return !u.use_histogram; });
}

}  // namespace spes
