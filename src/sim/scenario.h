// The declarative Scenario API: a simulation scenario as data.
//
// A ScenarioSpec captures everything one figure point needs — where the
// trace comes from (generator config, Azure-format CSV directory or packed
// trace file), an ordered chain of trace transforms (trace/transform.h)
// applied after realization, the train/simulate window, the engine knobs,
// and the policy as a registry spec (core/policy_registry.h).
//
// Every run goes through one core, reached by six entry points:
//   RunScenario(spec)          realizes the spec's source + chain;
//   RunScenario(trace, spec)   `trace` stands in for the source;
//   RunScenario(source, spec)  a chunk-streamed TraceSource, no chain;
//   SuiteRunner::Run(trace, specs), SuiteRunner::Run(specs) and
//   SuiteRunner::RunLockstep(trace, specs) (runner/suite_runner.h) — a
//   whole figure sweep, including one over stressed workload variants, as
//   a batch of data whose workloads a TraceCache realizes once each.

#ifndef SPES_SIM_SCENARIO_H_
#define SPES_SIM_SCENARIO_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "core/policy_registry.h"
#include "sim/engine.h"
#include "sim/observer.h"
#include "trace/generator.h"
#include "trace/trace.h"
#include "trace/trace_source.h"
#include "trace/transform.h"

namespace spes {

/// \brief Where a scenario's workload comes from, plus how it is stressed.
struct TraceSpec {
  enum class Source {
    /// No materializable source: the trace is supplied at run time via
    /// RunScenario(trace, spec) or a trace-taking SuiteRunner batch
    /// (hand-built fleets).
    kProvided,
    /// Synthesized by trace/generator with `generator`.
    kGenerator,
    /// Parsed from Azure-format daily CSVs under `csv_dir`.
    kAzureCsvDir,
    /// Read from a packed binary trace file (trace/trace_file.h) at
    /// `trace_file`. RealizeTrace() loads it fully; TraceCache::OpenStream
    /// serves it as a chunk-streamed source without materializing.
    kTraceFile,
  };

  Source source = Source::kProvided;
  GeneratorConfig generator;
  std::string csv_dir;
  std::string trace_file;

  /// Transform chain applied, in order, after the source is realized
  /// (trace/transform.h). Empty means the raw source trace.
  std::vector<TransformSpec> transforms;

  /// \brief Fluent chain builder: appends one transform step.
  ///   TraceSpec::FromGenerator(cfg)
  ///       .Then({"load_scale", {{"factor", 2.0}}})
  ///       .Then({"inject_burst", {{"at", 720}}});
  TraceSpec& Then(TransformSpec transform) {
    transforms.push_back(std::move(transform));
    return *this;
  }

  /// \brief A generator-backed spec (no transforms).
  static TraceSpec FromGenerator(const GeneratorConfig& config) {
    TraceSpec spec;
    spec.source = Source::kGenerator;
    spec.generator = config;
    return spec;
  }

  /// \brief An Azure-CSV-backed spec (no transforms).
  static TraceSpec FromAzureCsvDir(std::string dir) {
    TraceSpec spec;
    spec.source = Source::kAzureCsvDir;
    spec.csv_dir = std::move(dir);
    return spec;
  }

  /// \brief A packed-trace-file-backed spec (no transforms).
  static TraceSpec FromTraceFile(std::string path) {
    TraceSpec spec;
    spec.source = Source::kTraceFile;
    spec.trace_file = std::move(path);
    return spec;
  }
};

/// \brief Canonical cache key of a trace spec: the source fingerprint
/// (every generator field, or the CSV directory) plus the formatted
/// transform chain. Equal keys realize bitwise-identical traces, so the
/// key is what TraceCache deduplicates on.
std::string TraceSpecKey(const TraceSpec& spec);

/// \brief One simulation scenario, fully described as data.
struct ScenarioSpec {
  /// Display label for reports; the policy's name() when empty.
  std::string label;
  TraceSpec trace;
  PolicySpec policy;
  SimOptions options;
  /// Observers attached to the run's SimStream (borrowed; must outlive
  /// the run). Every entry point honours them, and in a lockstep batch
  /// they still see only this spec's lane; null entries are ignored.
  std::vector<SimObserver*> observers;
  /// When set, the scenario simulates a multi-node cluster
  /// (cluster/cluster.h): the run goes through a ClusterSession instead
  /// of a single SimStream, `policy` is instantiated once per node, and
  /// the outcome carries the per-node breakdown in
  /// ScenarioOutcome::cluster. A cluster spec never shares a lockstep
  /// stream; SuiteRunner::RunLockstep runs it standalone.
  std::optional<ClusterSpec> cluster;
};

/// \brief Up-front spec validation: an empty policy name or invalid
/// SimOptions window yields InvalidArgument naming the bad field. Trace
/// source problems surface later, from RealizeTrace().
Status ValidateScenarioSpec(const ScenarioSpec& spec);

/// \brief Materializes the spec's trace source and applies its transform
/// chain. Source::kProvided is an error here — such specs only run with
/// an externally supplied trace.
Result<Trace> RealizeTrace(const TraceSpec& spec);

/// \brief Outcome of one scenario: the simulation result plus the trained
/// policy instance (kept alive for per-type breakdowns and inspection).
/// For cluster scenarios, `outcome` is the fleet-wide aggregate, `policy`
/// is null (the per-node instances live in the cluster breakdown), and
/// `cluster` carries the full ClusterOutcome.
struct ScenarioOutcome {
  SimulationOutcome outcome;
  std::unique_ptr<Policy> policy;
  std::shared_ptr<const ClusterOutcome> cluster;
};

/// \brief One-shot entry point: validates, realizes the spec's trace
/// source with its transform chain applied, builds the policy through
/// PolicyRegistry::Global() — or a ClusterSession for a cluster spec —
/// and simulates.
Result<ScenarioOutcome> RunScenario(const ScenarioSpec& spec);

/// \brief Runs `spec` with `trace` standing in for its trace source: the
/// spec's transform chain (if any) is applied on top of `trace`, then the
/// run proceeds as above.
Result<ScenarioOutcome> RunScenario(const Trace& trace,
                                    const ScenarioSpec& spec);

/// \brief Runs `spec` over a chunk-streamed source standing in for its
/// trace source (e.g. a TraceFileSource over a packed trace that would not
/// fit in memory). The spec must not carry transforms — transforms need a
/// realized trace; pack the transformed workload instead (a TraceCache
/// with a pack directory does exactly that). Every registered policy runs
/// here, `oracle` included (its RequiresFullTrace() makes the engine
/// materialize the whole horizon for training). Outcomes are
/// bitwise-identical to running the realized trace in memory.
Result<ScenarioOutcome> RunScenario(TraceSource& source,
                                    const ScenarioSpec& spec);

namespace scenario_internal {

/// \brief The one run core behind every entry point (the three
/// RunScenario overloads and runner/suite_runner.h). Runs `specs` as ONE
/// session over `source`: a ClusterSession for a single cluster spec,
/// otherwise a SimStream with one lane per spec, so a lockstep group walks
/// the source once. Lanes share one cursor, so every spec must carry the
/// same SimOptions (recorder_slot aside); `recorder_slot` stamps recorded
/// events. Each spec's observers see only their own lane, presented as a
/// single-lane stream. Specs must already be validated. A realized trace
/// reaches it through an InMemoryTraceSource, one per run: the adapter
/// caches row pointers lazily, so it is never shared across threads.
Result<std::vector<ScenarioOutcome>> RunValidated(
    TraceSource& source, const std::vector<const ScenarioSpec*>& specs,
    int recorder_slot);

/// \brief Validates every spec of a batch and resolves its workload
/// through one TraceCache: each distinct (source, chain) is realized once
/// and a chain is applied to the cached base of its source. With
/// `provided`, that trace stands in for every spec's source (the
/// trace-taking batch forms). A slot that fails validation or realization
/// carries its precise error instead of a trace.
std::vector<Result<std::shared_ptr<const Trace>>> ResolveWorkloads(
    const Trace* provided, const std::vector<ScenarioSpec>& specs);

}  // namespace scenario_internal

/// \brief Realized-trace cache shared across specs: Get() materializes
/// each distinct (source, transform chain) — see TraceSpecKey() — exactly
/// once and hands out shared, immutable traces. Without a disk tier, a
/// transformed spec is derived from the cached untransformed trace of its
/// source, so a sweep over N stressed variants of one source realizes the
/// source once. Thread-safe; every SuiteRunner batch resolves its
/// workloads through one.
class TraceCache {
 public:
  /// \brief Purely in-memory cache (the original behaviour).
  TraceCache() = default;

  /// \brief Adds a disk tier: realized traces are packed once into
  /// `pack_dir` (created on demand) as binary trace files named by the
  /// TraceSpecKey fingerprint, so later misses — in this process or any
  /// other pointed at the same directory — reopen the packed file instead
  /// of re-realizing the source ("realize once, reopen many").
  /// OpenStream() additionally hands out chunk-streamed sources over the
  /// packed files without materializing the trace at all.
  explicit TraceCache(std::string pack_dir) : pack_dir_(std::move(pack_dir)) {}

  /// \brief The realized trace for `spec`, materializing on first use.
  /// Source::kProvided yields InvalidArgument (nothing to realize). With
  /// a disk tier, a miss realizes + packs the spec, then loads the packed
  /// file (or just loads it, if an earlier run left it behind).
  Result<std::shared_ptr<const Trace>> Get(const TraceSpec& spec);

  /// \brief A chunk-streamed TraceSource for `spec`. A kTraceFile spec
  /// without transforms opens its file directly; everything else needs
  /// the disk tier (InvalidArgument without one): the spec is realized
  /// and packed once — transform chains are applied *before* packing, so
  /// the stream serves the transformed workload — and every call opens a
  /// fresh handle over the packed file.
  Result<std::unique_ptr<TraceSource>> OpenStream(const TraceSpec& spec);

  /// \brief Packs `spec` into the disk tier and returns the packed file's
  /// path (realizing only when the file does not exist yet). Requires a
  /// disk tier.
  Result<std::string> EnsurePacked(const TraceSpec& spec);

  /// \brief Number of distinct realized traces held in memory.
  [[nodiscard]] size_t size() const;

  /// \brief Attaches an optional observability recorder: Get() emits
  /// cache hit/miss events, realize spans for source realizations and
  /// transform spans for derived variants; EnsurePacked() emits pack
  /// events and pack spans. Pass nullptr to detach. The recorder must
  /// outlive the cache's use; set it before sharing the cache across
  /// threads (the pointer itself is unsynchronized).
  void set_recorder(RunRecorder* recorder) { recorder_ = recorder; }

 private:
  friend std::vector<Result<std::shared_ptr<const Trace>>>
  scenario_internal::ResolveWorkloads(const Trace* provided,
                                      const std::vector<ScenarioSpec>& specs);

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const Trace>> by_key_;
  /// Disk tier root; empty = memory only. pack_mu_ serializes packing so
  /// concurrent misses on one spec realize it exactly once.
  std::string pack_dir_;
  std::mutex pack_mu_;
  /// Optional observability hook (obs/recorder.h); never feeds results.
  RunRecorder* recorder_ = nullptr;
};

}  // namespace spes

#endif  // SPES_SIM_SCENARIO_H_
