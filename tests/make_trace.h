// MakeTrace: the one small-fleet builder the unit tests share, plus the
// shifted-behaviour series the forgetting tests run on.
//
// Function k of the fleet is named "f<k>" and owned by "o"; its counts are
// row k. Apps and triggers are given per function, or as one entry every
// function shares, so each test states the grouping its policy reads (one
// shared app "a", one app per function "a<k>", or explicit groups).

#ifndef SPES_TESTS_MAKE_TRACE_H_
#define SPES_TESTS_MAKE_TRACE_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace.h"

namespace spes {

/// \brief A fleet of one function per row. `apps` and `triggers` hold one
/// entry per row, or a single entry for every function; the defaults are
/// one shared app "a" and FunctionMeta's default trigger.
inline Trace MakeTrace(
    std::vector<std::vector<uint32_t>> rows,
    const std::vector<std::string>& apps = {"a"},
    const std::vector<TriggerType>& triggers = {TriggerType::kOthers}) {
  const auto pick = [](const auto& values, size_t k) {
    return values.size() == 1 ? values[0] : values.at(k);
  };
  Trace trace(rows.empty() ? 0 : static_cast<int>(rows[0].size()));
  for (size_t k = 0; k < rows.size(); ++k) {
    // Built by appending and brace-initialized: GCC 12 reports a false
    // -Wrestrict on an inlined "f" + std::to_string(k) and on assigning a
    // literal to a member string.
    std::string name(1, 'f');
    name += std::to_string(k);
    FunctionTrace f{{"o", pick(apps, k), std::move(name), pick(triggers, k)},
                    std::move(rows[k])};
    EXPECT_TRUE(trace.Add(std::move(f)).ok());
  }
  return trace;
}

/// \brief 4 days of wildly varying gaps, then 4 days of a clean 10-minute
/// timer. The noisy prefix contributes ~40% of all WTs across 10 distinct
/// values, defeating every deterministic rule on the full window; the
/// suffix alone is textbook regular, so only forgetting recovers it.
inline std::vector<uint32_t> ShiftedWorkload() {
  const int days = 8;
  const int shift = 4 * kMinutesPerDay;
  std::vector<uint32_t> counts(static_cast<size_t>(days) * kMinutesPerDay, 0);
  const int noise_gaps[10] = {5, 7, 9, 11, 13, 15, 17, 19, 21, 23};
  int t = 0, k = 0;
  while (t < shift) {
    counts[static_cast<size_t>(t)] = 1;
    t += noise_gaps[k++ % 10];
  }
  for (int s = shift; s < days * kMinutesPerDay; s += 10) {
    counts[static_cast<size_t>(s)] = 1;
  }
  return counts;
}

}  // namespace spes

#endif  // SPES_TESTS_MAKE_TRACE_H_
