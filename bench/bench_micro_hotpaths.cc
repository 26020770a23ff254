// Micro-benchmarks (google-benchmark) for SPES's hot paths: WT extraction,
// deterministic categorization, arrival decode, the per-minute provision
// step (event-driven, and the scan reference it replaced) and the IAT
// histogram update, plus the end-to-end simulation kernel
// (columnar SimStream vs the kept naive reference loop), and the two
// cluster hot paths: one latency-lane minute and capped-cluster capacity
// eviction, and the trace generator that synthesizes every fleet. These
// back the RQ2 overhead discussion — every per-invocation operation must
// be O(1)-ish for the unbillable scheduling window — and pin the
// simulator's own throughput trajectory (BENCH_micro_hotpaths.json).
//
// Scale knobs: SPES_BENCH_FUNCTIONS overrides the fleet sizes of the
// decode/provision/kernel benches (e.g. SPES_BENCH_FUNCTIONS=1000000 for
// the Azure-scale single-thread run); SPES_BENCH_DAYS (default 3) sets the
// horizon — the last day is simulated, the rest trains.
// SPES_BENCH_RARE_PCT (default 0) forces that percentage of the fleet onto
// the rarely-invoked archetypes: the default mix is calibrated at laptop
// scale where ~a third of the fleet fires every minute, which extrapolated
// to 1M functions would be an unrealistic ~475M invocations/day — the
// Azure-scale runs pair SPES_BENCH_FUNCTIONS=1000000 with
// SPES_BENCH_RARE_PCT=90 to match the real trace's tail-heavy population.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "common/env.h"
#include "common/rng.h"
#include "core/categorizer.h"
#include "core/policy_registry.h"
#include "core/reference_spes.h"
#include "core/spes_policy.h"
#include "core/series_features.h"
#include "latency/latency.h"
#include "policies/fixed_keepalive.h"
#include "policies/iat_histogram.h"
#include "sim/columnar.h"
#include "sim/engine.h"
#include "sim/reference_kernel.h"
#include "sim/stream.h"
#include "trace/generator.h"
#include "trace/trace_file.h"
#include "trace/trace_source.h"

#include <filesystem>
#include <string>

namespace spes {
namespace {

std::vector<uint32_t> PeriodicCounts(int n, int period) {
  std::vector<uint32_t> counts(static_cast<size_t>(n), 0);
  for (int t = 0; t < n; t += period) counts[static_cast<size_t>(t)] = 1;
  return counts;
}

/// The benches' fleet at `num_functions`: seed 7, SPES_BENCH_DAYS days,
/// SPES_BENCH_RARE_PCT percent forced rare.
GeneratorConfig FleetConfig(int64_t num_functions) {
  GeneratorConfig config;
  config.num_functions = static_cast<int>(num_functions);
  config.days = static_cast<int>(GetEnvInt("SPES_BENCH_DAYS", 3));
  if (config.days < 2) config.days = 2;
  config.seed = 7;
  config.rare_fraction =
      static_cast<double>(GetEnvInt("SPES_BENCH_RARE_PCT", 0)) / 100.0;
  return config;
}

/// One generated fleet per size, shared across benches (generation at
/// 1M functions is minutes of work; pay it once).
const GeneratedTrace& SharedFleet(int64_t num_functions) {
  static std::map<int64_t, std::unique_ptr<GeneratedTrace>> cache;
  std::unique_ptr<GeneratedTrace>& slot = cache[num_functions];
  if (slot == nullptr) {
    slot = std::make_unique<GeneratedTrace>(
        std::move(GenerateTrace(FleetConfig(num_functions)).ValueOrDie()));
  }
  return *slot;
}

int TrainMinutes(const Trace& trace) {
  return trace.num_minutes() - kMinutesPerDay;  // simulate the last day
}

/// Fleet sizes: SPES_BENCH_FUNCTIONS when set, else the default ladder.
void FleetArgs(benchmark::internal::Benchmark* bench) {
  const int64_t env = GetEnvInt("SPES_BENCH_FUNCTIONS", 0);
  if (env > 0) {
    bench->Arg(env);
    return;
  }
  bench->Arg(1000)->Arg(4000);
}

// The trace generator itself, on the same fleet every other bench reads
// (one iteration synthesizes the whole fleet). Items are function-minutes.
void BM_GenerateTrace(benchmark::State& state) {
  const GeneratorConfig config = FleetConfig(state.range(0));
  for (auto _ : state) {
    auto generated = GenerateTrace(config);
    benchmark::DoNotOptimize(generated.ValueOrDie().trace.num_functions());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          config.days * kMinutesPerDay);
}
BENCHMARK(BM_GenerateTrace)->Apply(FleetArgs)->Unit(benchmark::kMillisecond);

void BM_ExtractSeriesFeatures(benchmark::State& state) {
  const auto counts =
      PeriodicCounts(static_cast<int>(state.range(0)), 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExtractSeriesFeatures(counts));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExtractSeriesFeatures)->Arg(1440)->Arg(20160);

void BM_CategorizeDeterministic(benchmark::State& state) {
  const auto counts =
      PeriodicCounts(static_cast<int>(state.range(0)), 31);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CategorizeDeterministic(counts));
  }
}
BENCHMARK(BM_CategorizeDeterministic)->Arg(1440)->Arg(20160);

void BM_IatHistogramRecordAndQuery(benchmark::State& state) {
  IatHistogram hist(240);
  int iat = 1;
  for (auto _ : state) {
    hist.Record(iat);
    iat = iat % 240 + 1;
    benchmark::DoNotOptimize(hist.PercentileMinute(99.0));
  }
}
BENCHMARK(BM_IatHistogramRecordAndQuery);

// --------------------------------------------------------------------------
// Arrival decode: the naive O(n)-per-minute scan vs the block-transposing
// ArrivalDecoder. Items/sec counts function-minutes, so the two series are
// directly comparable (and comparable with the provision step below).
// --------------------------------------------------------------------------

void BM_ArrivalDecodeNaive(benchmark::State& state) {
  const GeneratedTrace& fleet = SharedFleet(state.range(0));
  const int train = TrainMinutes(fleet.trace);
  const size_t n = fleet.trace.num_functions();
  std::vector<Invocation> arrivals;
  int t = train;
  for (auto _ : state) {
    arrivals.clear();
    for (size_t f = 0; f < n; ++f) {
      const uint32_t c =
          fleet.trace.function(f).counts[static_cast<size_t>(t)];
      if (c > 0) arrivals.push_back({static_cast<uint32_t>(f), c});
    }
    benchmark::DoNotOptimize(arrivals.data());
    t = train + (t + 1 - train) % (fleet.trace.num_minutes() - train);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ArrivalDecodeNaive)->Apply(FleetArgs);

void BM_ArrivalDecodeColumnar(benchmark::State& state) {
  const GeneratedTrace& fleet = SharedFleet(state.range(0));
  InMemoryTraceSource source(fleet.trace);
  ArrivalDecoder decoder(&source);
  // One iteration = one full block of minutes, cycling through distinct
  // blocks so every iteration pays (and amortizes) a real block transpose.
  // Items/sec stays in function-minutes, comparable with the naive scan.
  constexpr int kBlock = ArrivalDecoder::kBlockMinutes;
  const int num_blocks = fleet.trace.num_minutes() / kBlock;
  int block = 0;
  for (auto _ : state) {
    const int start = block * kBlock;
    uint64_t arrivals = 0;
    for (int t = start; t < start + kBlock; ++t) {
      arrivals += decoder.Decode(t).size();
    }
    benchmark::DoNotOptimize(arrivals);
    block = (block + 1) % num_blocks;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * kBlock);
}
BENCHMARK(BM_ArrivalDecodeColumnar)->Apply(FleetArgs);

// --------------------------------------------------------------------------
// Packed-file streaming decode vs the in-memory source. Both go through
// the same ArrivalDecoder block transpose; the streamed variant adds the
// trace_file read + varint/LZ block decode, so the items/sec gap IS the
// out-of-core overhead. check_bench_regression.py gates that gap
// (--max-stream-overhead). Counters record the packed file size and its
// compression ratio vs the dense u32 matrix.
// --------------------------------------------------------------------------

/// Packs the shared fleet once per size; reopened by every iteration set.
const std::string& SharedPackedFleet(int64_t num_functions,
                                     TraceFileStats* stats) {
  static std::map<int64_t, std::pair<std::string, TraceFileStats>> cache;
  std::pair<std::string, TraceFileStats>& slot = cache[num_functions];
  if (slot.first.empty()) {
    slot.first = (std::filesystem::temp_directory_path() /
                  ("spes_bench_" + std::to_string(num_functions) + ".spt"))
                     .string();
    slot.second =
        WriteTraceFile(SharedFleet(num_functions).trace, slot.first)
            .ValueOrDie();
  }
  if (stats != nullptr) *stats = slot.second;
  return slot.first;
}

/// Decodes every minute of one 256-minute block per iteration through
/// `decoder`, cycling blocks; items/sec counts function-minutes, directly
/// comparable between the two sources (and with BM_ArrivalDecodeColumnar).
template <typename MakeDecoder>
void DecodeBlocksLoop(benchmark::State& state, int num_minutes,
                      MakeDecoder make_decoder) {
  ArrivalDecoder decoder = make_decoder();
  constexpr int kBlock = ArrivalDecoder::kBlockMinutes;
  const int num_blocks = num_minutes / kBlock;
  int block = 0;
  for (auto _ : state) {
    const int start = block * kBlock;
    uint64_t arrivals = 0;
    for (int t = start; t < start + kBlock; ++t) {
      arrivals += decoder.Decode(t).size();
    }
    benchmark::DoNotOptimize(arrivals);
    block = (block + 1) % num_blocks;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * kBlock);
}

void BM_InMemoryDecode(benchmark::State& state) {
  const GeneratedTrace& fleet = SharedFleet(state.range(0));
  InMemoryTraceSource source(fleet.trace);
  DecodeBlocksLoop(state, fleet.trace.num_minutes(),
                   [&source] { return ArrivalDecoder(&source); });
}
BENCHMARK(BM_InMemoryDecode)->Apply(FleetArgs);

void BM_TraceFileStreamDecode(benchmark::State& state) {
  TraceFileStats stats;
  const std::string& path = SharedPackedFleet(state.range(0), &stats);
  std::unique_ptr<TraceFileSource> source =
      OpenTraceFile(path).ValueOrDie();
  DecodeBlocksLoop(state, source->num_minutes(),
                   [&source] { return ArrivalDecoder(source.get()); });
  state.counters["file_bytes"] = static_cast<double>(stats.file_bytes);
  state.counters["compression_ratio"] = stats.CompressionRatio();
}
BENCHMARK(BM_TraceFileStreamDecode)->Apply(FleetArgs);

// --------------------------------------------------------------------------
// SPES provision step: one engine minute of the policy — the minute's
// arrivals are loaded into memory, as EngineLane::Admit does before
// Policy::OnMinute, then the step runs. Arrivals are pre-decoded OUTSIDE
// the timed region. Minutes only move forward: when the simulated day runs
// out, timing pauses while the policy is restored from the blob saved
// right after Train() and memory is emptied. BM_SpesProvisionMinute times
// the event-driven step; BM_SpesProvisionMinuteScan times the per-minute
// scan reference on the same setup, so the speed-up is a same-process
// ratio (tools/check_bench_regression.py --min-spes-ratio).
// --------------------------------------------------------------------------

template <typename SpesStep>
void SpesProvisionMinute(benchmark::State& state) {
  const GeneratedTrace& fleet = SharedFleet(state.range(0));
  SpesStep policy;
  const int train = TrainMinutes(fleet.trace);
  policy.Train(fleet.trace, train);
  const std::string trained = policy.SaveState().ValueOrDie();
  // Pre-decode every simulated minute once, outside the measurement.
  const int sim_minutes = fleet.trace.num_minutes() - train;
  std::vector<std::vector<Invocation>> decoded(
      static_cast<size_t>(sim_minutes));
  {
    InMemoryTraceSource source(fleet.trace);
    ArrivalDecoder decoder(&source);
    for (int m = 0; m < sim_minutes; ++m) {
      const auto span = decoder.Decode(train + m);
      decoded[static_cast<size_t>(m)].assign(span.begin(), span.end());
    }
  }
  MemSet mem(fleet.trace.num_functions());
  int m = 0;
  for (auto _ : state) {
    if (m == sim_minutes) {
      state.PauseTiming();
      policy.RestoreState(trained).CheckOK();
      mem = MemSet(fleet.trace.num_functions());
      m = 0;
      state.ResumeTiming();
    }
    const std::vector<Invocation>& arrivals = decoded[static_cast<size_t>(m)];
    for (const Invocation& inv : arrivals) mem.Add(inv.function);
    policy.OnMinute(train + m, arrivals, &mem);
    benchmark::DoNotOptimize(mem.Count());
    ++m;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_SpesProvisionMinute(benchmark::State& state) {
  SpesProvisionMinute<SpesPolicy>(state);
}
BENCHMARK(BM_SpesProvisionMinute)->Apply(FleetArgs);

void BM_SpesProvisionMinuteScan(benchmark::State& state) {
  SpesProvisionMinute<ReferenceSpesPolicy>(state);
}
BENCHMARK(BM_SpesProvisionMinuteScan)->Apply(FleetArgs);

// --------------------------------------------------------------------------
// End-to-end simulation kernel over the last trace day: the columnar
// SimStream vs the kept naive reference loop driving a pre-refactor-style
// policy. Items/sec counts simulated function-minutes; the
// columnar/reference items-per-second ratio is the PR's ≥10x headline
// number, and tools/check_bench_regression.py gates on BM_SimKernelColumnar.
// --------------------------------------------------------------------------

/// Fixed keep-alive exactly as the pre-columnar engine ran it: an O(n)
/// membership scan every minute instead of walking only the loaded ids.
/// Same semantics as FixedKeepAlivePolicy (identical outcomes), kept here
/// so BM_SimKernelReference measures the full pre-refactor cost profile.
class PreRefactorKeepAlive : public Policy {
 public:
  explicit PreRefactorKeepAlive(int keepalive_minutes)
      : keepalive_minutes_(keepalive_minutes) {}
  std::string name() const override {
    return "Fixed-" + std::to_string(keepalive_minutes_) + "min";
  }
  void Train(const Trace& trace, int) override {
    last_arrival_.assign(trace.num_functions(), -1);
  }
  void OnMinute(int t, const std::vector<Invocation>& arrivals,
                MemSet* mem) override {
    for (const Invocation& inv : arrivals) last_arrival_[inv.function] = t;
    const size_t n = last_arrival_.size();
    for (size_t f = 0; f < n; ++f) {
      if (!mem->Contains(f)) continue;
      const int last = last_arrival_[f];
      if (last < 0 || t - last >= keepalive_minutes_) mem->Remove(f);
    }
  }

 private:
  int keepalive_minutes_;
  std::vector<int> last_arrival_;
};

void BM_SimKernelColumnar(benchmark::State& state) {
  const GeneratedTrace& fleet = SharedFleet(state.range(0));
  SimOptions options;
  options.train_minutes = TrainMinutes(fleet.trace);
  for (auto _ : state) {
    FixedKeepAlivePolicy policy(10);
    SimStream stream =
        SimStream::Create(fleet.trace, &policy, options).ValueOrDie();
    const SimulationOutcome outcome = stream.Finish().ValueOrDie();
    benchmark::DoNotOptimize(outcome.metrics.total_invocations);
  }
  const int sim_minutes = fleet.trace.num_minutes() - options.train_minutes;
  state.SetItemsProcessed(state.iterations() * state.range(0) * sim_minutes);
}
BENCHMARK(BM_SimKernelColumnar)
    ->Apply(FleetArgs)
    ->Unit(benchmark::kMillisecond);

void BM_SimKernelReference(benchmark::State& state) {
  const GeneratedTrace& fleet = SharedFleet(state.range(0));
  SimOptions options;
  options.train_minutes = TrainMinutes(fleet.trace);
  for (auto _ : state) {
    PreRefactorKeepAlive policy(10);
    const SimulationOutcome outcome =
        SimulateReference(fleet.trace, &policy, options).ValueOrDie();
    benchmark::DoNotOptimize(outcome.metrics.total_invocations);
  }
  const int sim_minutes = fleet.trace.num_minutes() - options.train_minutes;
  state.SetItemsProcessed(state.iterations() * state.range(0) * sim_minutes);
}
BENCHMARK(BM_SimKernelReference)
    ->Apply(FleetArgs)
    ->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------------
// Cluster hot paths. BM_LatencyLaneMinute feeds one LatencyLane a steady
// minute of ~3k requests (items/sec counts requests): key derivation,
// lognormal sampling, queue admission and histogram recording.
// BM_ClusterEnforceCapacity runs a 4-node capped cluster (no latency
// block) whose long keep-alive leaves capacity eviction as the dominant
// per-minute cost; items/sec counts node-minutes.
// --------------------------------------------------------------------------

void BM_LatencyLaneMinute(benchmark::State& state) {
  constexpr size_t kFunctions = 600;
  std::vector<uint64_t> hashes(kFunctions);
  for (size_t f = 0; f < kFunctions; ++f) {
    hashes[f] = MixNameSeed("fn" + std::to_string(f), 42);
  }
  // 600 arrivals of 1-9 requests (~3k requests), every 16th one cold.
  std::vector<Invocation> arrivals;
  std::vector<uint8_t> cold_flags;
  uint64_t requests = 0;
  for (uint32_t f = 0; f < kFunctions; ++f) {
    const uint32_t count = 1 + (f * 7) % 9;
    arrivals.push_back({f, count});
    cold_flags.push_back(f % 16 == 0 ? 1 : 0);
    requests += count;
  }
  const LatencySpec spec =
      ParseLatencySpec(
          "lognormal @ queue{concurrency=8,capacity=256,timeout_ms=2000}")
          .ValueOrDie();
  std::unique_ptr<LatencyLane> lane =
      CreateLatencyLane(
          spec, std::make_shared<const std::vector<uint64_t>>(hashes))
          .ValueOrDie();
  int minute = 0;
  for (auto _ : state) {
    lane->OnMinute(minute++, arrivals, cold_flags);
  }
  benchmark::DoNotOptimize(lane->live().served);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(requests));
}
BENCHMARK(BM_LatencyLaneMinute);

void BM_ClusterEnforceCapacity(benchmark::State& state) {
  const GeneratedTrace& fleet = SharedFleet(4000);
  ClusterSpec cluster;
  cluster.nodes = 4;
  cluster.node_capacity = static_cast<int>(state.range(0));
  cluster.router = ParseRouterSpec("locality").ValueOrDie();
  SimOptions options;
  options.train_minutes = TrainMinutes(fleet.trace);
  const PolicySpec policy =
      ParsePolicySpec("fixed_keepalive{minutes=120}").ValueOrDie();
  uint64_t evictions = 0;
  for (auto _ : state) {
    ClusterSession session =
        ClusterSession::Create(fleet.trace, cluster, policy, options)
            .ValueOrDie();
    const ClusterOutcome outcome = session.Finish().ValueOrDie();
    evictions = 0;
    for (const NodeOutcome& node : outcome.nodes) {
      evictions += node.pressure_evictions;
    }
    benchmark::DoNotOptimize(evictions);
  }
  const int sim_minutes = fleet.trace.num_minutes() - options.train_minutes;
  state.counters["evictions"] = static_cast<double>(evictions);
  state.SetItemsProcessed(state.iterations() * cluster.nodes * sim_minutes);
}
BENCHMARK(BM_ClusterEnforceCapacity)
    ->Arg(150)
    ->Arg(600)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace spes

// BENCHMARK_MAIN() plus one context entry: Google Benchmark's own
// "library_build_type" describes how the benchmark library was compiled,
// so the JSON also records this project's CMAKE_BUILD_TYPE
// (tools/check_bench_regression.py requires "Release").
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("spes_build_type", SPES_BUILD_TYPE);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
