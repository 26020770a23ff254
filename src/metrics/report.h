// Cross-policy reporting: the comparison rows, CDF tables and per-type
// breakdowns that the bench harnesses print for each paper figure.

#ifndef SPES_METRICS_REPORT_H_
#define SPES_METRICS_REPORT_H_

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/table.h"
#include "core/spes_policy.h"
#include "sim/accounting.h"
#include "sim/observers.h"

namespace spes {

/// \brief One comparison row per policy: CSR percentiles, memory, WMT,
/// EMCR, always-cold — normalized against a reference policy (SPES).
Table BuildComparisonTable(const std::vector<FleetMetrics>& metrics,
                           const std::string& reference_policy);

/// \brief Fig. 8-style table: for each policy, the CSR value at a ladder of
/// CDF fractions, plus the CDF value at CSR == 0 (fully-warm share).
Table BuildCsrCdfTable(const std::vector<FleetMetrics>& metrics);

/// \brief Per-type aggregation over a SPES run (Figs. 10 and 12).
struct TypeBreakdownRow {
  FunctionType type = FunctionType::kUnknown;
  int64_t num_functions = 0;
  uint64_t invocations = 0;
  uint64_t cold_starts = 0;
  uint64_t wasted_minutes = 0;
  double mean_csr = 0.0;        ///< mean per-function CSR within the type
  double wmt_per_invocation = 0.0;  ///< "ratio of WMT" of §V-C1
};

/// \brief Aggregates per-function accounts by the SPES type of each
/// function. `policy` must be the SpesPolicy the outcome was produced with.
std::vector<TypeBreakdownRow> BreakdownByType(
    const SpesPolicy& policy, const std::vector<FunctionAccount>& accounts);

/// \brief Relative improvement (a - b) / a, e.g. CSR reduction vs baseline.
double RelativeReduction(double baseline, double improved);

/// \brief Minute-by-minute table from a TimeSeriesObserver capture: one
/// row per sampled minute, and per lane a "<label> loaded" and
/// "<label> cold" column (cumulative cold starts). Lanes must be sampled
/// on the same minutes (they are, when captured by one observer on one
/// stream); `labels` must match the lane count, empty labels fall back
/// to "lane<k>".
Table BuildTimelineTable(const std::vector<std::string>& labels,
                         const std::vector<std::vector<MinuteSample>>& series);

/// \brief How unevenly a cluster run spread its work and memory across
/// nodes. Nodes that never joined (an `add` event past the window) are
/// excluded; failed and drained nodes count for the minutes they served.
struct ClusterImbalance {
  /// Nodes included in the statistics.
  int64_t num_nodes = 0;
  /// Coefficient of variation (stddev / mean) of per-node invocations.
  double invocation_cv = 0.0;
  /// Peak node invocations over the per-node mean (1.0 = perfectly even).
  double invocation_peak_ratio = 0.0;
  /// Coefficient of variation of per-node average loaded instances.
  double memory_cv = 0.0;
  /// Largest single-node share of the fleet's cold starts.
  double cold_start_peak_share = 0.0;
};

ClusterImbalance ComputeClusterImbalance(const ClusterOutcome& outcome);

/// \brief Per-node breakdown of one cluster run — invocations, cold
/// starts, CSR, memory, WMT, pressure evictions, re-routes — with a
/// fleet-wide summary row last.
Table BuildClusterNodeTable(const ClusterOutcome& outcome);

}  // namespace spes

#endif  // SPES_METRICS_REPORT_H_
