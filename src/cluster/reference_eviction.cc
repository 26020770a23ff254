#include "cluster/reference_eviction.h"

#include <algorithm>
#include <utility>

namespace spes {

std::vector<uint32_t> ReferenceCapacityVictims(
    const MemSet& mem, const std::vector<int32_t>& last_used, int t,
    size_t capacity) {
  if (mem.Count() <= capacity) return {};
  std::vector<std::pair<int32_t, uint32_t>> candidates;
  mem.ForEachLoaded([&](size_t f) {
    if (last_used[f] == t) return;
    candidates.emplace_back(last_used[f], static_cast<uint32_t>(f));
  });
  const size_t excess = mem.Count() - capacity;
  if (candidates.size() > excess) {
    std::partial_sort(candidates.begin(),
                      candidates.begin() + static_cast<ptrdiff_t>(excess),
                      candidates.end());
    candidates.resize(excess);
  } else {
    std::sort(candidates.begin(), candidates.end());
  }
  std::vector<uint32_t> victims;
  victims.reserve(candidates.size());
  for (const auto& [used, f] : candidates) victims.push_back(f);
  return victims;
}

}  // namespace spes
