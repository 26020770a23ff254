#include "policies/oracle.h"

#include <memory>

#include "core/policy_registry.h"

namespace spes {

void RegisterOraclePolicy(PolicyRegistry& registry) {
  PolicyRegistry::Entry entry;
  entry.canonical_name = "oracle";
  entry.summary =
      "Clairvoyant upper bound: loads exactly one minute ahead of every "
      "invocation";
  entry.factory =
      [](const PolicyParams&) -> Result<std::unique_ptr<Policy>> {
    return std::unique_ptr<Policy>(std::make_unique<OraclePolicy>());
  };
  registry.Register(std::move(entry)).CheckOK();
}

void OraclePolicy::Train(const Trace& trace, int train_minutes) {
  const size_t n = trace.num_functions();
  first_ = train_minutes + 1;
  offsets_.assign(1, 0);
  ids_.clear();
  for (int t = first_; t < trace.num_minutes(); ++t) {
    for (size_t f = 0; f < n; ++f) {
      if (trace.function(f).counts[static_cast<size_t>(t)] > 0) {
        ids_.push_back(static_cast<uint32_t>(f));
      }
    }
    offsets_.push_back(ids_.size());
  }
  next_.assign(n, 0);
}

void OraclePolicy::OnMinute(int t, const std::vector<Invocation>& arrivals,
                            MemSet* mem) {
  (void)arrivals;
  const int64_t i = static_cast<int64_t>(t) + 1 - first_;
  size_t begin = 0;
  size_t end = 0;
  if (i >= 0 && static_cast<size_t>(i) + 1 < offsets_.size()) {
    begin = offsets_[static_cast<size_t>(i)];
    end = offsets_[static_cast<size_t>(i) + 1];
  }
  for (size_t k = begin; k < end; ++k) next_[ids_[k]] = 1;
  mem->ForEachLoaded([this, mem](size_t f) {
    if (next_[f] == 0) mem->Remove(f);
  });
  for (size_t k = begin; k < end; ++k) {
    mem->Add(ids_[k]);
    next_[ids_[k]] = 0;
  }
}

}  // namespace spes
