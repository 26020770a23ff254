#include "metrics/report.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/stats.h"

namespace spes {

double RelativeReduction(double baseline, double improved) {
  if (baseline == 0.0) return 0.0;
  return (baseline - improved) / baseline;
}

Table BuildComparisonTable(const std::vector<FleetMetrics>& metrics,
                           const std::string& reference_policy) {
  const FleetMetrics* ref = nullptr;
  for (const FleetMetrics& m : metrics) {
    if (m.policy_name == reference_policy) ref = &m;
  }
  Table table({"policy", "Q3-CSR", "P90-CSR", "always-cold", "zero-cold",
               "norm-mem", "norm-WMT", "EMCR", "overhead-s/min"});
  for (const FleetMetrics& m : metrics) {
    const double norm_mem =
        (ref != nullptr && ref->average_memory > 0.0)
            ? m.average_memory / ref->average_memory
            : m.average_memory;
    const double norm_wmt =
        (ref != nullptr && ref->wasted_memory_minutes > 0)
            ? static_cast<double>(m.wasted_memory_minutes) /
                  static_cast<double>(ref->wasted_memory_minutes)
            : static_cast<double>(m.wasted_memory_minutes);
    table.AddRow({m.policy_name, FormatDouble(m.q3_csr, 4),
                  FormatDouble(m.p90_csr, 4),
                  FormatPercent(m.always_cold_fraction, 2),
                  FormatPercent(m.zero_cold_fraction, 2),
                  FormatDouble(norm_mem, 3), FormatDouble(norm_wmt, 3),
                  FormatPercent(m.emcr, 2),
                  FormatDouble(m.overhead_seconds_per_minute, 5)});
  }
  return table;
}

Table BuildCsrCdfTable(const std::vector<FleetMetrics>& metrics) {
  static const double kFractions[] = {0.10, 0.25, 0.50, 0.75,
                                      0.90, 0.95, 0.99};
  std::vector<std::string> headers = {"policy", "P(CSR=0)"};
  for (double f : kFractions) {
    headers.push_back("CSR@" + FormatPercent(f, 0));
  }
  Table table(headers);
  for (const FleetMetrics& m : metrics) {
    std::vector<std::string> row = {m.policy_name,
                                    FormatPercent(m.zero_cold_fraction, 2)};
    for (double f : kFractions) {
      row.push_back(FormatDouble(Percentile(m.csr, f * 100.0), 4));
    }
    table.AddRow(row);
  }
  return table;
}

std::vector<TypeBreakdownRow> BreakdownByType(
    const SpesPolicy& policy, const std::vector<FunctionAccount>& accounts) {
  std::vector<TypeBreakdownRow> rows(kNumFunctionTypes);
  std::vector<std::vector<double>> csr_samples(kNumFunctionTypes);
  for (int k = 0; k < kNumFunctionTypes; ++k) {
    rows[static_cast<size_t>(k)].type = static_cast<FunctionType>(k);
  }
  for (size_t f = 0; f < accounts.size(); ++f) {
    const size_t k = static_cast<size_t>(policy.TypeOf(f));
    TypeBreakdownRow& row = rows[k];
    ++row.num_functions;
    row.invocations += accounts[f].invocations;
    row.cold_starts += accounts[f].cold_starts;
    row.wasted_minutes += accounts[f].wasted_minutes;
    if (accounts[f].invocations > 0) {
      csr_samples[k].push_back(accounts[f].ColdStartRate());
    }
  }
  for (size_t k = 0; k < rows.size(); ++k) {
    rows[k].mean_csr = Mean(csr_samples[k]);
    if (rows[k].invocations > 0) {
      rows[k].wmt_per_invocation =
          static_cast<double>(rows[k].wasted_minutes) /
          static_cast<double>(rows[k].invocations);
    }
  }
  return rows;
}

Table BuildTimelineTable(
    const std::vector<std::string>& labels,
    const std::vector<std::vector<MinuteSample>>& series) {
  std::vector<std::string> headers{"minute"};
  for (size_t k = 0; k < series.size(); ++k) {
    const std::string label = (k < labels.size() && !labels[k].empty())
                                  ? labels[k]
                                  : "lane" + std::to_string(k);
    headers.push_back(label + " loaded");
    headers.push_back(label + " cold");
  }
  Table table(std::move(headers));
  size_t rows = 0;
  for (const std::vector<MinuteSample>& lane : series) {
    rows = std::max(rows, lane.size());
  }
  for (size_t i = 0; i < rows; ++i) {
    // Lanes captured by one observer on one stream share their minutes;
    // take the row's minute from the first lane that has this sample.
    std::string minute = "-";
    for (const std::vector<MinuteSample>& lane : series) {
      if (i < lane.size()) {
        minute = std::to_string(lane[i].minute);
        break;
      }
    }
    std::vector<std::string> cells{std::move(minute)};
    for (const std::vector<MinuteSample>& lane : series) {
      if (i < lane.size()) {
        cells.push_back(std::to_string(lane[i].loaded_instances));
        cells.push_back(std::to_string(lane[i].cold_starts));
      } else {
        cells.push_back("-");
        cells.push_back("-");
      }
    }
    table.AddRow(std::move(cells));
  }
  return table;
}

ClusterImbalance ComputeClusterImbalance(const ClusterOutcome& outcome) {
  ClusterImbalance imbalance;
  std::vector<double> invocations;
  std::vector<double> memory;
  uint64_t peak_cold = 0;
  for (const NodeOutcome& node : outcome.nodes) {
    if (node.final_state == "pending") continue;
    invocations.push_back(
        static_cast<double>(node.sim.metrics.total_invocations));
    memory.push_back(node.sim.metrics.average_memory);
    peak_cold = std::max(peak_cold, node.sim.metrics.total_cold_starts);
  }
  imbalance.num_nodes = static_cast<int64_t>(invocations.size());
  if (invocations.empty()) return imbalance;

  const auto cv_and_peak = [](const std::vector<double>& values) {
    double sum = 0.0;
    double peak = 0.0;
    for (double v : values) {
      sum += v;
      peak = std::max(peak, v);
    }
    const double mean = sum / static_cast<double>(values.size());
    if (mean == 0.0) return std::pair<double, double>{0.0, 0.0};
    double var = 0.0;
    for (double v : values) var += (v - mean) * (v - mean);
    var /= static_cast<double>(values.size());
    return std::pair<double, double>{std::sqrt(var) / mean, peak / mean};
  };
  const auto [inv_cv, inv_peak] = cv_and_peak(invocations);
  imbalance.invocation_cv = inv_cv;
  imbalance.invocation_peak_ratio = inv_peak;
  imbalance.memory_cv = cv_and_peak(memory).first;
  const uint64_t fleet_cold = outcome.fleet.metrics.total_cold_starts;
  imbalance.cold_start_peak_share =
      fleet_cold == 0 ? 0.0
                      : static_cast<double>(peak_cold) /
                            static_cast<double>(fleet_cold);
  return imbalance;
}

Table BuildClusterNodeTable(const ClusterOutcome& outcome) {
  Table table({"node", "state", "invocations", "cold starts", "Q3-CSR",
               "avg mem", "peak mem", "WMT", "pressure evict",
               "reroutes in"});
  uint64_t pressure = 0;
  for (const NodeOutcome& node : outcome.nodes) {
    const FleetMetrics& m = node.sim.metrics;
    pressure += node.pressure_evictions;
    table.AddRow({std::to_string(node.node), node.final_state,
                  std::to_string(m.total_invocations),
                  std::to_string(m.total_cold_starts),
                  FormatDouble(m.q3_csr, 4), FormatDouble(m.average_memory, 1),
                  std::to_string(m.max_memory),
                  std::to_string(m.wasted_memory_minutes),
                  std::to_string(node.pressure_evictions),
                  std::to_string(node.reroutes_in)});
  }
  const FleetMetrics& fleet = outcome.fleet.metrics;
  table.AddRow({"fleet", "-", std::to_string(fleet.total_invocations),
                std::to_string(fleet.total_cold_starts),
                FormatDouble(fleet.q3_csr, 4),
                FormatDouble(fleet.average_memory, 1),
                std::to_string(fleet.max_memory),
                std::to_string(fleet.wasted_memory_minutes),
                std::to_string(pressure),
                std::to_string(outcome.reroutes)});
  return table;
}

}  // namespace spes
