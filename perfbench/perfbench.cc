// spes_perfbench: one repetition of one benchmark workload.
//
//   spes_perfbench --workload <name> --seed <n> --trace <0|1>
//
// Runs the workload once on a single thread and prints one JSON line: the
// host-time phases (`setup_s`, `simulate_s`, `peak_rss_mib`), every
// simulated counter under "sim" (these must repeat exactly for a seed),
// the layer timers under "layers" when --trace is 1, and the output
// checks as `ops` attempted plus the `failures` seen. perfbench/run.py
// starts one fresh process per repetition and aggregates them.
//
// Workloads (perfbench/README.md says why each exists):
//   spes_tail_streamed     SPES over four rare-heavy fleets, each packed to
//                          .spt bytes and streamed through TraceFileSource.
//   keepalive_sweep_dense  fixed keep-alive at eight lengths as lockstep
//                          lanes of one SimStream over an in-memory fleet.
//   cluster_burst_slo      4-node locality cluster under a burst storm with
//                          capacity pressure, a node failure and a join,
//                          latency queues, and checkpoint round trips.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "common/table.h"
#include "core/policy_registry.h"
#include "latency/latency.h"
#include "obs/clock.h"
#include "layers.h"
#include "sim/accounting.h"
#include "sim/stream.h"
#include "trace/generator.h"
#include "trace/trace_file.h"
#include "trace/trace_source.h"
#include "trace/transform.h"

namespace perfbench {
namespace {

using namespace spes;

constexpr double kMiB = 1024.0 * 1024.0;
/// Simulated minutes between checkpoint round trips, on every workload.
constexpr int kCheckpointEvery = 720;

// Fleet sizes and windows. perfbench/README.md records them with the
// host they were tuned on; changing one changes the benchmark.
// SPES's wasted memory moves with fleet-wide effects (a fleet of 20 000
// varies across seeds at least as much as one of 5 000), so the workload
// sums four independent tenant fleets to keep wasted_memory_min steady
// across seeds.
constexpr int kSpesFleets = 4;
constexpr int kSpesFunctions = 5000;  // per fleet
constexpr int kSpesDays = 4;
constexpr int kSpesTrainMinutes = 2 * kMinutesPerDay;

constexpr int kSweepFunctions = 8000;
constexpr int kSweepDays = 7;
constexpr int kSweepTrainMinutes = kMinutesPerDay;
constexpr int kSweepKeepAlives[] = {1, 2, 5, 10, 20, 30, 60, 120};

constexpr int kClusterFunctions = 4000;
constexpr int kClusterDays = 4;
constexpr int kClusterTrainMinutes = 2 * kMinutesPerDay;
constexpr int kClusterNodes = 4;
constexpr int kClusterNodeCapacity = 600;
constexpr char kClusterPolicy[] = "fixed_keepalive";
constexpr char kClusterPolicyParams[] = "{minutes=10}";
constexpr char kClusterLatency[] =
    "lognormal @ queue{capacity=256,concurrency=8,seed=42,timeout_ms=2000}";

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// \brief A flat JSON object that keeps insertion order.
class JsonObject {
 public:
  void Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    fields_.emplace_back(key, buf);
  }
  void Add(const std::string& key, uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void AddRaw(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
  }

  [[nodiscard]] std::string ToString() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ",";
      out += JsonEscape(fields_[i].first) + ":" + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// \brief Output checks: each Expect() is one operation.
struct Checks {
  uint64_t ops = 0;
  std::vector<std::string> failures;

  void Expect(bool ok, const std::string& what) {
    ++ops;
    if (!ok) failures.push_back(what);
  }
};

/// \brief Everything one repetition measured.
struct Run {
  double setup_s = 0.0;
  double simulate_s = 0.0;
  JsonObject sim;
  Checks checks;
  /// Σ FleetMetrics::overhead_seconds over lanes/nodes: the engine's own
  /// timing of Policy::OnMinute, compared against the TimedPolicy sum.
  double engine_overhead_s = 0.0;
  /// Serialized checkpoints, re-parsed after the simulate phase.
  std::vector<std::string> checkpoints;
};

// ---------------------------------------------------------------------------
// Driving a session
// ---------------------------------------------------------------------------

template <typename Session>
struct Codec;

template <>
struct Codec<SimStream> {
  static std::string Encode(const SimCheckpoint& c) {
    return SerializeCheckpoint(c);
  }
  static Result<SimCheckpoint> Decode(const std::string& b) {
    return ParseCheckpoint(b);
  }
};

template <>
struct Codec<ClusterSession> {
  static std::string Encode(const ClusterCheckpoint& c) {
    return SerializeClusterCheckpoint(c);
  }
  static Result<ClusterCheckpoint> Decode(const std::string& b) {
    return ParseClusterCheckpoint(b);
  }
};

/// Checkpoint -> bytes -> parse -> Restore, in place.
template <typename Session>
Status RoundTrip(Session* session, LayerTimes* layers, Run* run) {
  std::string bytes;
  {
    const ScopedTimer timer(Slot(layers, &LayerTimes::ckpt_save_s));
    SPES_ASSIGN_OR_RETURN(const auto checkpoint, session->Checkpoint());
    bytes = Codec<Session>::Encode(checkpoint);
  }
  {
    const ScopedTimer timer(Slot(layers, &LayerTimes::ckpt_restore_s));
    SPES_ASSIGN_OR_RETURN(const auto parsed, Codec<Session>::Decode(bytes));
    SPES_RETURN_NOT_OK(session->Restore(parsed));
  }
  run->checkpoints.push_back(std::move(bytes));
  return Status::OK();
}

/// Steps to the end of the window with a checkpoint round trip every
/// kCheckpointEvery simulated minutes.
template <typename Session>
Status StepAll(Session* session, LayerTimes* layers, Run* run) {
  int next_checkpoint = session->start_minute() + kCheckpointEvery;
  while (!session->done()) {
    if (session->cursor() == next_checkpoint) {
      SPES_RETURN_NOT_OK(RoundTrip(session, layers, run));
      next_checkpoint += kCheckpointEvery;
    }
    const ScopedTimer timer(Slot(layers, &LayerTimes::step_s));
    SPES_RETURN_NOT_OK(session->Step());
  }
  return Status::OK();
}

/// Every checkpoint satisfies Serialize(Parse(bytes)) == bytes.
template <typename Session>
void CheckCheckpoints(Run* run) {
  double bytes = 0.0;
  for (const std::string& blob : run->checkpoints) {
    const auto parsed = Codec<Session>::Decode(blob);
    run->checks.Expect(parsed.ok() && Codec<Session>::Encode(
                                          parsed.ValueOrDie()) == blob,
                       "checkpoint: Serialize(Parse(bytes)) == bytes");
    bytes += static_cast<double>(blob.size());
  }
  run->sim.Add("ckpt.count", static_cast<uint64_t>(run->checkpoints.size()));
  run->sim.Add("ckpt.mib", bytes / kMiB);
}

// ---------------------------------------------------------------------------
// Outcome checks and counters
// ---------------------------------------------------------------------------

struct LaneTotals {
  uint64_t invoked_fn_min = 0;
  uint64_t cold_starts = 0;
  uint64_t loaded = 0;
  uint64_t wasted = 0;

  LaneTotals& operator+=(const LaneTotals& other) {
    invoked_fn_min += other.invoked_fn_min;
    cold_starts += other.cold_starts;
    loaded += other.loaded;
    wasted += other.wasted;
    return *this;
  }
};

/// Accounting identities of one lane (or node, or cluster fleet).
LaneTotals CheckLane(const SimulationOutcome& outcome, const std::string& lane,
                     Checks* checks) {
  LaneTotals totals;
  bool cold_ok = true;
  bool waste_ok = true;
  for (const FunctionAccount& a : outcome.accounts) {
    cold_ok = cold_ok && a.cold_starts <= a.invoked_minutes;
    waste_ok = waste_ok && a.wasted_minutes <= a.loaded_minutes;
    totals.invoked_fn_min += a.invoked_minutes;
    totals.cold_starts += a.cold_starts;
    totals.loaded += a.loaded_minutes;
    totals.wasted += a.wasted_minutes;
  }
  uint64_t series = 0;
  for (const uint32_t live : outcome.memory_series) series += live;
  const FleetMetrics& m = outcome.metrics;
  checks->Expect(cold_ok, lane + ": cold_starts <= invoked_minutes");
  checks->Expect(waste_ok, lane + ": wasted_minutes <= loaded_minutes");
  checks->Expect(series == m.loaded_instance_minutes && series == totals.loaded,
                 lane + ": sum(memory_series) == loaded_instance_minutes");
  checks->Expect(totals.cold_starts == m.total_cold_starts &&
                     totals.wasted == m.wasted_memory_minutes,
                 lane + ": account sums == fleet metrics");
  return totals;
}

/// Counters every workload reports, summed over lanes.
void AddSimCounters(const LaneTotals& t, int minutes, size_t lanes,
                    size_t functions, double csr_q3, double pack_mib,
                    Run* run) {
  run->sim.Add("trace.pack_mib", pack_mib);
  run->sim.Add("csr_q3", csr_q3);
  run->sim.Add("wasted_memory_min", t.wasted);
  run->sim.Add("sim.minutes", static_cast<uint64_t>(minutes));
  run->sim.Add("sim.lanes", static_cast<uint64_t>(lanes));
  run->sim.Add("sim.functions", static_cast<uint64_t>(functions));
  run->sim.Add("sim.invoked_fn_min", t.invoked_fn_min);
  run->sim.Add("sim.cold_starts", t.cold_starts);
  run->sim.Add("sim.loaded_instance_min", t.loaded);
  run->sim.Add("sim.warm_ratio",
               t.invoked_fn_min == 0
                   ? 0.0
                   : 1.0 - static_cast<double>(t.cold_starts) /
                               static_cast<double>(t.invoked_fn_min));
  run->sim.Add("sim.emcr", t.loaded == 0
                               ? 0.0
                               : static_cast<double>(t.loaded - t.wasted) /
                                     static_cast<double>(t.loaded));
}

/// Cluster and latency counters; zero on the single-node workloads so
/// every workload prints the same keys.
void AddClusterCounters(const ClusterOutcome* cluster, Run* run) {
  uint64_t evictions = 0;
  double memory_cv = 0.0;
  double peak_share = 0.0;
  if (cluster != nullptr) {
    std::vector<double> loaded;
    uint64_t peak_cold = 0;
    for (const NodeOutcome& node : cluster->nodes) {
      evictions += node.pressure_evictions;
      if (node.final_state != "pending") {
        loaded.push_back(
            static_cast<double>(node.sim.metrics.loaded_instance_minutes));
      }
      peak_cold = std::max(peak_cold, node.sim.metrics.total_cold_starts);
    }
    double mean = 0.0;
    for (const double x : loaded) mean += x;
    mean /= static_cast<double>(std::max<size_t>(1, loaded.size()));
    double var = 0.0;
    for (const double x : loaded) var += (x - mean) * (x - mean);
    var /= static_cast<double>(std::max<size_t>(1, loaded.size()));
    memory_cv = mean > 0.0 ? std::sqrt(var) / mean : 0.0;
    const uint64_t cold = cluster->fleet.metrics.total_cold_starts;
    peak_share = cold == 0 ? 0.0
                           : static_cast<double>(peak_cold) /
                                 static_cast<double>(cold);
  }
  run->sim.Add("cluster.pressure_evictions", evictions);
  run->sim.Add("cluster.reroutes",
               cluster == nullptr ? uint64_t{0} : cluster->reroutes);
  run->sim.Add("cluster.memory_cv", memory_cv);
  run->sim.Add("cluster.cold_start_peak_share", peak_share);

  const LatencyOutcome* lat =
      cluster == nullptr ? nullptr : cluster->fleet.latency.get();
  const LatencyOutcome none;
  const LatencyOutcome& l = lat == nullptr ? none : *lat;
  run->sim.Add("latency.offered", l.offered());
  run->sim.Add("latency.served", l.served);
  run->sim.Add("latency.cold_served", l.cold_served);
  run->sim.Add("latency.shed", l.shed);
  run->sim.Add("latency.timeouts", l.timeouts);
  run->sim.Add("latency.max_queue_depth",
               static_cast<uint64_t>(l.max_queue_depth));
  run->sim.Add("latency.p50_ms", l.p50_ms);
  run->sim.Add("latency.p99_ms", l.p99_ms);
  run->sim.Add("latency.failed_rate",
               l.offered() == 0 ? 0.0
                                : static_cast<double>(l.shed + l.timeouts) /
                                      static_cast<double>(l.offered()));
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Wraps each policy in a TimedPolicy when traced.
std::unique_ptr<Policy> MaybeTimed(std::unique_ptr<Policy> policy,
                                   LayerTimes* layers) {
  if (layers == nullptr) return policy;
  return std::make_unique<TimedPolicy>(std::move(policy), layers);
}

/// The source an engine reads: `inner`, behind a TimedSource (kept alive
/// by `holder`) when traced.
TraceSource& MaybeTimed(TraceSource& inner, LayerTimes* layers,
                        std::unique_ptr<TimedSource>* holder) {
  if (layers == nullptr) return inner;
  *holder = std::make_unique<TimedSource>(&inner, layers);
  return **holder;
}

/// The simulate phase of one session: StepAll, then `finish` (Finish or
/// FinishAll). Adds its wall time to run->simulate_s.
template <typename Session, typename FinishFn>
auto Simulate(Session* session, FinishFn finish, LayerTimes* layers,
              Run* run) -> decltype(finish()) {
  const double start = MonotonicSeconds();
  SPES_RETURN_NOT_OK(StepAll(session, layers, run));
  auto outcome = Timed(layers, &LayerTimes::finish_s, finish);
  run->simulate_s += MonotonicSeconds() - start;
  return outcome;
}

/// One tenant fleet of spes_tail_streamed, open and ready to step.
struct SpesFleet {
  std::unique_ptr<TraceFileSource> file;
  std::unique_ptr<TimedSource> timed;
  std::unique_ptr<Policy> policy;
  std::unique_ptr<SimStream> stream;
  uint64_t packed_bytes = 0;
};

Result<SpesFleet> OpenSpesFleet(uint64_t seed, LayerTimes* layers) {
  GeneratorConfig config;
  config.num_functions = kSpesFunctions;
  config.days = kSpesDays;
  config.seed = seed;
  config.rare_fraction = 0.9;

  // Generation streams each function straight into the packer, so the
  // full-horizon trace never exists; the Add() calls count as packing.
  SPES_ASSIGN_OR_RETURN(TraceFileWriter writer,
                        TraceFileWriter::Create(kSpesDays * kMinutesPerDay));
  const double pack_before = layers == nullptr ? 0.0 : layers->pack_s;
  SPES_RETURN_NOT_OK(Timed(layers, &LayerTimes::generate_s, [&] {
    return GenerateTraceStreamed(
        config, [&](FunctionTrace&& function, const GroundTruth&) {
          return Timed(layers, &LayerTimes::pack_s, [&] {
            return writer.Add(function.meta, function.counts);
          });
        });
  }));
  if (layers != nullptr) layers->generate_s -= layers->pack_s - pack_before;
  SpesFleet fleet;
  TraceFileStats stats;
  SPES_ASSIGN_OR_RETURN(
      fleet.file,
      Timed(layers, &LayerTimes::pack_s,
            [&]() -> Result<std::unique_ptr<TraceFileSource>> {
              SPES_ASSIGN_OR_RETURN(std::string bytes, writer.ToBytes(&stats));
              return TraceFileSource::FromBytes(std::move(bytes));
            }));
  fleet.packed_bytes = stats.file_bytes;

  SPES_ASSIGN_OR_RETURN(std::unique_ptr<Policy> spes,
                        PolicyRegistry::Global().CreateFromString("spes"));
  fleet.policy = MaybeTimed(std::move(spes), layers);
  TraceSource& source = MaybeTimed(*fleet.file, layers, &fleet.timed);
  SimOptions options;
  options.train_minutes = kSpesTrainMinutes;
  SPES_ASSIGN_OR_RETURN(
      SimStream stream, Timed(layers, &LayerTimes::create_s, [&] {
        return SimStream::Create(source, fleet.policy.get(), options);
      }));
  fleet.stream = std::make_unique<SimStream>(std::move(stream));
  return fleet;
}

Status SpesTailStreamed(uint64_t seed, LayerTimes* layers, Run* run) {
  const double start = MonotonicSeconds();
  std::vector<SpesFleet> fleets;
  for (int k = 0; k < kSpesFleets; ++k) {
    SPES_ASSIGN_OR_RETURN(SpesFleet fleet,
                          OpenSpesFleet(seed * kSpesFleets + k, layers));
    fleets.push_back(std::move(fleet));
  }
  run->setup_s = MonotonicSeconds() - start;

  LaneTotals sum;
  double csr_q3 = 0.0;
  double packed_bytes = 0.0;
  for (SpesFleet& fleet : fleets) {
    SimStream* stream = fleet.stream.get();
    SPES_ASSIGN_OR_RETURN(
        const SimulationOutcome outcome,
        Simulate(stream, [&] { return stream->Finish(); }, layers, run));
    sum += CheckLane(outcome, "spes fleet", &run->checks);
    csr_q3 += outcome.metrics.q3_csr / kSpesFleets;
    packed_bytes += static_cast<double>(fleet.packed_bytes);
    run->engine_overhead_s += outcome.metrics.overhead_seconds;
  }
  const SimStream& first = *fleets.front().stream;
  AddSimCounters(sum, first.end_minute() - first.start_minute(), kSpesFleets,
                 static_cast<size_t>(kSpesFleets) * kSpesFunctions, csr_q3,
                 packed_bytes / kMiB, run);
  CheckCheckpoints<SimStream>(run);
  AddClusterCounters(nullptr, run);
  return Status::OK();
}

Status KeepaliveSweepDense(uint64_t seed, LayerTimes* layers, Run* run) {
  const double start = MonotonicSeconds();
  GeneratorConfig config;
  config.num_functions = kSweepFunctions;
  config.days = kSweepDays;
  config.seed = seed;

  SPES_ASSIGN_OR_RETURN(
      const GeneratedTrace generated,
      Timed(layers, &LayerTimes::generate_s,
            [&] { return GenerateTrace(config); }));
  InMemoryTraceSource memory(generated.trace);

  std::vector<std::unique_ptr<Policy>> policies;
  std::vector<Policy*> lanes;
  for (const int minutes : kSweepKeepAlives) {
    SPES_ASSIGN_OR_RETURN(
        std::unique_ptr<Policy> policy,
        PolicyRegistry::Global().CreateFromString(
            "fixed_keepalive{minutes=" + std::to_string(minutes) + "}"));
    policies.push_back(MaybeTimed(std::move(policy), layers));
    lanes.push_back(policies.back().get());
  }
  std::unique_ptr<TimedSource> timed;
  TraceSource& source = MaybeTimed(memory, layers, &timed);
  SimOptions options;
  options.train_minutes = kSweepTrainMinutes;
  SPES_ASSIGN_OR_RETURN(
      SimStream stream, Timed(layers, &LayerTimes::create_s, [&] {
        return SimStream::Create(source, lanes, options);
      }));
  run->setup_s = MonotonicSeconds() - start;

  SPES_ASSIGN_OR_RETURN(
      const std::vector<SimulationOutcome> outcomes,
      Simulate(&stream, [&] { return stream.FinishAll(); }, layers, run));

  LaneTotals sum;
  double csr_q3 = 0.0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    sum += CheckLane(outcomes[i],
                     "keepalive lane " + std::to_string(kSweepKeepAlives[i]),
                     &run->checks);
    csr_q3 += outcomes[i].metrics.q3_csr / static_cast<double>(outcomes.size());
    run->engine_overhead_s += outcomes[i].metrics.overhead_seconds;
  }
  AddSimCounters(sum, stream.end_minute() - stream.start_minute(),
                 outcomes.size(), generated.trace.num_functions(), csr_q3,
                 0.0, run);
  CheckCheckpoints<SimStream>(run);
  AddClusterCounters(nullptr, run);
  return Status::OK();
}

/// Per-node accounts and memory series add up to the fleet's, function by
/// function and minute by minute.
bool NodesSumToFleet(const ClusterOutcome& outcome) {
  const SimulationOutcome& fleet = outcome.fleet;
  std::vector<FunctionAccount> sum(fleet.accounts.size());
  std::vector<uint64_t> series(fleet.memory_series.size(), 0);
  for (const NodeOutcome& node : outcome.nodes) {
    if (node.sim.accounts.size() != sum.size() ||
        node.sim.memory_series.size() != series.size()) {
      return false;
    }
    for (size_t f = 0; f < sum.size(); ++f) {
      const FunctionAccount& a = node.sim.accounts[f];
      sum[f].invocations += a.invocations;
      sum[f].invoked_minutes += a.invoked_minutes;
      sum[f].cold_starts += a.cold_starts;
      sum[f].loaded_minutes += a.loaded_minutes;
      sum[f].wasted_minutes += a.wasted_minutes;
    }
    for (size_t t = 0; t < series.size(); ++t) {
      series[t] += node.sim.memory_series[t];
    }
  }
  for (size_t f = 0; f < sum.size(); ++f) {
    const FunctionAccount& a = fleet.accounts[f];
    if (sum[f].invocations != a.invocations ||
        sum[f].invoked_minutes != a.invoked_minutes ||
        sum[f].cold_starts != a.cold_starts ||
        sum[f].loaded_minutes != a.loaded_minutes ||
        sum[f].wasted_minutes != a.wasted_minutes) {
      return false;
    }
  }
  for (size_t t = 0; t < series.size(); ++t) {
    if (series[t] != fleet.memory_series[t]) return false;
  }
  return true;
}

Status ClusterBurstSlo(uint64_t seed, LayerTimes* layers, Run* run) {
  const double start = MonotonicSeconds();
  GeneratorConfig config;
  config.num_functions = kClusterFunctions;
  config.days = kClusterDays;
  config.seed = seed;

  SPES_ASSIGN_OR_RETURN(
      GeneratedTrace generated,
      Timed(layers, &LayerTimes::generate_s,
            [&] { return GenerateTrace(config); }));
  // bench_latency_slo's burst storm: doubled load plus a burst four hours
  // into the simulated window.
  const int t0 = kClusterTrainMinutes;
  SPES_ASSIGN_OR_RETURN(
      const std::vector<TransformSpec> chain,
      ParseTransformChain("load_scale{factor=2.0} | inject_burst{at=" +
                          std::to_string(t0 + 240) +
                          ",width=30,amplitude=60,fraction=0.2,seed=13}"));
  SPES_ASSIGN_OR_RETURN(
      const Trace trace, Timed(layers, &LayerTimes::transform_s, [&] {
        return ApplyTransforms(std::move(generated.trace), chain);
      }));
  InMemoryTraceSource memory(trace);
  std::unique_ptr<TimedSource> timed;
  TraceSource& source = MaybeTimed(memory, layers, &timed);

  ClusterSpec cluster;
  cluster.nodes = kClusterNodes;
  cluster.node_capacity = kClusterNodeCapacity;
  SPES_ASSIGN_OR_RETURN(cluster.router, ParseRouterSpec("locality"));
  SPES_ASSIGN_OR_RETURN(
      cluster.events,
      ParseNodeEventTimeline("fail{at=" + std::to_string(t0 + 960) +
                             ",node=1} | add{at=" + std::to_string(t0 + 1680) +
                             "}"));
  SimOptions options;
  options.train_minutes = t0;
  SPES_ASSIGN_OR_RETURN(options.latency, ParseLatencySpec(kClusterLatency));
  // Per-node policies come from the registry, so the traced run names the
  // timed wrapper registered in main().
  SPES_ASSIGN_OR_RETURN(
      const PolicySpec policy,
      ParsePolicySpec(std::string(layers == nullptr ? "" : "timed_") +
                      kClusterPolicy + kClusterPolicyParams));
  SPES_ASSIGN_OR_RETURN(
      ClusterSession session, Timed(layers, &LayerTimes::create_s, [&] {
        return ClusterSession::Create(source, cluster, policy, options);
      }));
  run->setup_s = MonotonicSeconds() - start;

  SPES_ASSIGN_OR_RETURN(
      const ClusterOutcome outcome,
      Simulate(&session, [&] { return session.Finish(); }, layers, run));

  const LaneTotals totals =
      CheckLane(outcome.fleet, "cluster fleet", &run->checks);
  for (const NodeOutcome& node : outcome.nodes) {
    CheckLane(node.sim, "node " + std::to_string(node.node), &run->checks);
    run->engine_overhead_s += node.sim.metrics.overhead_seconds;
  }
  run->checks.Expect(NodesSumToFleet(outcome),
                     "cluster: per-node sums == fleet totals");
  const LatencyOutcome* latency = outcome.fleet.latency.get();
  run->checks.Expect(
      latency != nullptr &&
          latency->offered() == outcome.fleet.metrics.total_invocations,
      "cluster: latency offered == fleet invocations");

  AddSimCounters(totals, session.end_minute() - session.start_minute(),
                 outcome.nodes.size(), trace.num_functions(),
                 outcome.fleet.metrics.q3_csr, 0.0, run);
  CheckCheckpoints<ClusterSession>(run);
  AddClusterCounters(&outcome, run);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double QuantileOf(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  const size_t k = static_cast<size_t>(q * static_cast<double>(xs.size() - 1));
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(k),
                   xs.end());
  return xs[k];
}

/// Layer timers, derived self times and closure; adds the check that the
/// TimedPolicy sum agrees with the engine's own overhead timing.
JsonObject LayerReport(const LayerTimes& l, Run* run) {
  double policy_step_s = 0.0;
  for (const double s : l.policy_steps) policy_step_s += s;
  const double setup_covered =
      l.generate_s + l.transform_s + l.pack_s + l.create_s;
  const double simulate_covered =
      l.step_s + l.finish_s + l.ckpt_save_s + l.ckpt_restore_s;

  JsonObject out;
  out.Add("trace.generate_s", l.generate_s);
  out.Add("trace.transform_s", l.transform_s);
  out.Add("trace.pack_s", l.pack_s);
  out.Add("trace.prefix_s", l.prefix_s);
  out.Add("trace.decode_s", l.decode_s);
  out.Add("trace.decode_calls", l.decode_calls);
  out.Add("trace.arrivals", l.arrivals);
  out.Add("policy.train_s", l.train_s);
  out.Add("policy.step_s", policy_step_s);
  out.Add("policy.step_p50_us", QuantileOf(l.policy_steps, 0.50) * 1e6);
  out.Add("policy.step_p99_us", QuantileOf(l.policy_steps, 0.99) * 1e6);
  out.Add("policy.steps", static_cast<uint64_t>(l.policy_steps.size()));
  out.Add("policy.engine_overhead_s", run->engine_overhead_s);
  out.Add("sim.create_s", l.create_s);
  out.Add("sim.step_s", l.step_s);
  out.Add("sim.finish_s", l.finish_s);
  out.Add("sim.engine_self_s", l.step_s - l.decode_s - policy_step_s);
  out.Add("ckpt.save_s", l.ckpt_save_s);
  out.Add("ckpt.restore_s", l.ckpt_restore_s);
  out.Add("setup.unattributed_share",
          (run->setup_s - setup_covered) / run->setup_s);
  out.Add("simulate.unattributed_share",
          (run->simulate_s - simulate_covered) / run->simulate_s);

  // The engine times OnMinute around the TimedPolicy, so its figure is
  // the decorator's plus two clock reads per call.
  const double engine = run->engine_overhead_s;
  run->checks.Expect(
      std::abs(policy_step_s - engine) <= 0.05 * engine + 1e-3,
      "closure: policy.step_s within 5% of FleetMetrics::overhead_seconds");
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: spes_perfbench --workload "
               "<spes_tail_streamed|keepalive_sweep_dense|cluster_burst_slo> "
               "--seed <n> --trace <0|1>\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      trace = value == "1" ? 1 : 0;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || trace < 0) return Usage();

  LayerTimes layer_times;
  LayerTimes* layers = trace == 1 ? &layer_times : nullptr;
  if (layers != nullptr) RegisterTimedPolicy(kClusterPolicy, layers);

  Run run;
  Status status;
  if (workload == "spes_tail_streamed") {
    status = SpesTailStreamed(seed, layers, &run);
  } else if (workload == "keepalive_sweep_dense") {
    status = KeepaliveSweepDense(seed, layers, &run);
  } else if (workload == "cluster_burst_slo") {
    status = ClusterBurstSlo(seed, layers, &run);
  } else {
    return Usage();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }

#ifdef __OPTIMIZE__
  constexpr bool kOptimized = true;
#else
  constexpr bool kOptimized = false;
#endif
  run.checks.Expect(kOptimized, "build: compiled with optimization");

  JsonObject out;
  out.AddRaw("workload", JsonEscape(workload));
  out.Add("seed", seed);
  out.Add("traced", static_cast<uint64_t>(trace));
  out.AddRaw("compiler", JsonEscape(__VERSION__));
  out.Add("optimized", static_cast<uint64_t>(kOptimized));
  out.Add("setup_s", run.setup_s);
  out.Add("simulate_s", run.simulate_s);
  if (layers != nullptr) {
    out.AddRaw("layers", LayerReport(*layers, &run).ToString());
  }
  out.Add("peak_rss_mib", PeakRssMiB());
  out.AddRaw("sim", run.sim.ToString());
  out.Add("ops", run.checks.ops);
  std::string failures = "[";
  for (size_t i = 0; i < run.checks.failures.size(); ++i) {
    if (i > 0) failures += ",";
    failures += JsonEscape(run.checks.failures[i]);
  }
  out.AddRaw("failures", failures + "]");
  std::printf("%s\n", out.ToString().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
