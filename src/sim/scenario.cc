#include "sim/scenario.h"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "obs/recorder.h"
#include "sim/stream.h"
#include "trace/azure_csv.h"
#include "trace/trace_file.h"

namespace spes {

namespace {

/// Serializes every generator field, so two configs share a cache key iff
/// they generate bitwise-identical traces. Field order is fixed.
std::string GeneratorFingerprint(const GeneratorConfig& config) {
  const auto d = [](double value) {
    return FormatParamValue(ParamValue(value));
  };
  return "generator{num_functions=" + std::to_string(config.num_functions) +
         ",days=" + std::to_string(config.days) +
         ",seed=" + std::to_string(config.seed) +
         ",mean_functions_per_app=" + d(config.mean_functions_per_app) +
         ",mean_apps_per_owner=" + d(config.mean_apps_per_owner) +
         ",concept_shift_fraction=" + d(config.concept_shift_fraction) +
         ",unseen_fraction=" + d(config.unseen_fraction) +
         ",unseen_days=" + std::to_string(config.unseen_days) +
         ",chain_app_fraction=" + d(config.chain_app_fraction) +
         ",chain_follow_probability=" + d(config.chain_follow_probability) +
         ",chain_max_lag=" + std::to_string(config.chain_max_lag) +
         ",intensity_zipf_exponent=" + d(config.intensity_zipf_exponent) +
         ",rare_fraction=" + d(config.rare_fraction) + "}";
}

/// Stable file name for a packed trace: FNV-1a 64 over the spec key, hex,
/// with a format-identifying extension. The key is the full fingerprint,
/// so distinct specs land in distinct files.
std::string PackedFileName(const std::string& key) {
  uint64_t hash = 14695981039346656037ull;
  for (const char c : key) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(hex) + ".spt";
}

}  // namespace

std::string TraceSpecKey(const TraceSpec& spec) {
  std::string key;
  switch (spec.source) {
    case TraceSpec::Source::kProvided:
      key = "provided";
      break;
    case TraceSpec::Source::kGenerator:
      key = GeneratorFingerprint(spec.generator);
      break;
    case TraceSpec::Source::kAzureCsvDir:
      key = "csv{dir=" + spec.csv_dir + "}";
      break;
    case TraceSpec::Source::kTraceFile:
      key = "trace_file{path=" + spec.trace_file + "}";
      break;
  }
  if (!spec.transforms.empty()) {
    key += " | " + FormatTransformChain(spec.transforms);
  }
  return key;
}

Status ValidateScenarioSpec(const ScenarioSpec& spec) {
  if (spec.policy.name.empty()) {
    return Status::InvalidArgument(
        "ScenarioSpec.policy.name must not be empty");
  }
  if (spec.cluster.has_value()) {
    SPES_RETURN_NOT_OK(ValidateClusterSpec(*spec.cluster));
  }
  return ValidateSimOptions(spec.options);
}

Result<Trace> RealizeTrace(const TraceSpec& spec) {
  Result<Trace> realized = [&spec]() -> Result<Trace> {
    switch (spec.source) {
      case TraceSpec::Source::kProvided:
        return Status::InvalidArgument(
            "TraceSpec.source is kProvided (no materializable source); pass "
            "the trace via RunScenario(trace, spec) or a trace-taking "
            "SuiteRunner batch");
      case TraceSpec::Source::kGenerator: {
        SPES_ASSIGN_OR_RETURN(GeneratedTrace generated,
                              GenerateTrace(spec.generator));
        return std::move(generated.trace);
      }
      case TraceSpec::Source::kAzureCsvDir:
        if (spec.csv_dir.empty()) {
          return Status::InvalidArgument(
              "TraceSpec.csv_dir must not be empty for Source::kAzureCsvDir");
        }
        return ReadAzureTraceDir(spec.csv_dir);
      case TraceSpec::Source::kTraceFile:
        if (spec.trace_file.empty()) {
          return Status::InvalidArgument(
              "TraceSpec.trace_file must not be empty for "
              "Source::kTraceFile");
        }
        return ReadTraceFile(spec.trace_file);
    }
    return Status::Internal("unhandled TraceSpec::Source");
  }();
  if (!realized.ok() || spec.transforms.empty()) return realized;
  return ApplyTransforms(std::move(realized).ValueOrDie(), spec.transforms);
}

namespace {

/// Scopes an observer to one lane of a stream: views from other lanes
/// are filtered out and the surviving views are presented as a
/// single-lane stream (lane 0, num_lanes 1). A spec's observers thus
/// behave identically whether the spec ran alone or as one lane of a
/// lockstep group, and the stock observers (TimeSeriesObserver,
/// ProgressObserver) work unchanged for any lane.
class LaneScopedObserver : public SimObserver {
 public:
  LaneScopedObserver(SimObserver* inner, size_t stream_lane)
      : inner_(inner), stream_lane_(stream_lane) {}

  void OnStreamStart(const StreamInfo& info) override {
    StreamInfo scoped = info;
    scoped.num_lanes = 1;
    inner_->OnStreamStart(scoped);
  }
  bool OnMinute(const MinuteView& view) override {
    if (view.lane != stream_lane_) return true;
    MinuteView scoped = view;
    scoped.lane = 0;
    return inner_->OnMinute(scoped);
  }
  void OnStreamEnd(size_t lane, const SimulationOutcome& outcome) override {
    if (lane == stream_lane_) inner_->OnStreamEnd(0, outcome);
  }

 private:
  SimObserver* inner_;
  size_t stream_lane_;
};

/// A single spec through the core: validated by the caller.
Result<ScenarioOutcome> RunOne(TraceSource& source, const ScenarioSpec& spec) {
  SPES_ASSIGN_OR_RETURN(
      std::vector<ScenarioOutcome> outcomes,
      scenario_internal::RunValidated(source, {&spec},
                                      spec.options.recorder_slot));
  return std::move(outcomes[0]);
}

/// RunOne over a realized trace, through a stack adapter of its own.
Result<ScenarioOutcome> RunOne(const Trace& trace, const ScenarioSpec& spec) {
  InMemoryTraceSource source(trace);
  return RunOne(source, spec);
}

}  // namespace

namespace scenario_internal {

Result<std::vector<ScenarioOutcome>> RunValidated(
    TraceSource& source, const std::vector<const ScenarioSpec*>& specs,
    int recorder_slot) {
  SimOptions options = specs[0]->options;
  options.recorder_slot = recorder_slot;
  std::vector<ScenarioOutcome> outcomes(specs.size());
  if (specs[0]->cluster.has_value()) {
    // A cluster is its own multi-lane session: observers see every node.
    const ScenarioSpec& spec = *specs[0];
    SPES_ASSIGN_OR_RETURN(ClusterSession session,
                          ClusterSession::Create(source, *spec.cluster,
                                                 spec.policy, options));
    for (SimObserver* observer : spec.observers) {
      session.AddObserver(observer);
    }
    SPES_ASSIGN_OR_RETURN(ClusterOutcome cluster, session.Finish());
    outcomes[0].outcome = cluster.fleet;  // per-node detail keeps its own copy
    outcomes[0].cluster =
        std::make_shared<const ClusterOutcome>(std::move(cluster));
    return outcomes;
  }
  std::vector<Policy*> lanes;
  for (size_t k = 0; k < specs.size(); ++k) {
    SPES_ASSIGN_OR_RETURN(outcomes[k].policy,
                          PolicyRegistry::Global().Create(specs[k]->policy));
    lanes.push_back(outcomes[k].policy.get());
  }
  SPES_ASSIGN_OR_RETURN(SimStream stream,
                        SimStream::Create(source, std::move(lanes), options));
  std::vector<std::unique_ptr<LaneScopedObserver>> scoped;
  for (size_t k = 0; k < specs.size(); ++k) {
    for (SimObserver* observer : specs[k]->observers) {
      if (observer == nullptr) continue;
      scoped.push_back(std::make_unique<LaneScopedObserver>(observer, k));
      stream.AddObserver(scoped.back().get());
    }
  }
  SPES_ASSIGN_OR_RETURN(std::vector<SimulationOutcome> finished,
                        stream.FinishAll());
  for (size_t k = 0; k < specs.size(); ++k) {
    outcomes[k].outcome = std::move(finished[k]);
  }
  return outcomes;
}

std::vector<Result<std::shared_ptr<const Trace>>> ResolveWorkloads(
    const Trace* provided, const std::vector<ScenarioSpec>& specs) {
  TraceCache cache;
  // The batch cache reports its activity to the first recorder any
  // spec carries (a batch shares at most one run log in practice).
  for (const ScenarioSpec& spec : specs) {
    if (spec.options.recorder != nullptr) {
      cache.set_recorder(spec.options.recorder);
      break;
    }
  }
  if (provided != nullptr) {
    // Seed the supplied trace as the (borrowed) base of the kProvided
    // source, so chained specs derive their variants from it.
    cache.by_key_.emplace(TraceSpecKey(TraceSpec{}),
                          std::shared_ptr<const Trace>(
                              std::shared_ptr<const Trace>(), provided));
  }
  std::vector<Result<std::shared_ptr<const Trace>>> workloads;
  workloads.reserve(specs.size());
  for (const ScenarioSpec& spec : specs) {
    // Validate before realizing: a bad spec must not cost a trace build.
    const Status valid = ValidateScenarioSpec(spec);
    if (!valid.ok()) {
      workloads.emplace_back(valid);
      continue;
    }
    TraceSpec source = spec.trace;
    if (provided != nullptr) {
      source = TraceSpec{};
      source.transforms = spec.trace.transforms;
    }
    workloads.push_back(cache.Get(source));
  }
  return workloads;
}

}  // namespace scenario_internal

Result<ScenarioOutcome> RunScenario(const ScenarioSpec& spec) {
  // Validate before realizing: a bad spec must not cost a trace build.
  SPES_RETURN_NOT_OK(ValidateScenarioSpec(spec));
  ScopedSpan realize_span(spec.options.recorder, "realize",
                          spec.options.recorder_slot, 0,
                          TraceSpecKey(spec.trace));
  SPES_ASSIGN_OR_RETURN(const Trace trace, RealizeTrace(spec.trace));
  realize_span.End();
  return RunOne(trace, spec);
}

Result<ScenarioOutcome> RunScenario(const Trace& trace,
                                    const ScenarioSpec& spec) {
  SPES_RETURN_NOT_OK(ValidateScenarioSpec(spec));
  if (spec.trace.transforms.empty()) return RunOne(trace, spec);
  SPES_ASSIGN_OR_RETURN(const Trace stressed,
                        ApplyTransforms(trace, spec.trace.transforms));
  return RunOne(stressed, spec);
}

Result<ScenarioOutcome> RunScenario(TraceSource& source,
                                    const ScenarioSpec& spec) {
  SPES_RETURN_NOT_OK(ValidateScenarioSpec(spec));
  if (!spec.trace.transforms.empty()) {
    return Status::InvalidArgument(
        "streamed scenarios cannot apply transform chains (transforms need "
        "a realized trace); pack the transformed workload instead — a "
        "TraceCache with a pack directory applies transforms before "
        "packing");
  }
  return RunOne(source, spec);
}

Result<std::shared_ptr<const Trace>> TraceCache::Get(const TraceSpec& spec) {
  const std::string key = TraceSpecKey(spec);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_key_.find(key);
    if (it != by_key_.end()) {
      if (recorder_ != nullptr) recorder_->CacheEvent("hit", key);
      return it->second;
    }
  }
  if (recorder_ != nullptr) recorder_->CacheEvent("miss", key);
  // Realize outside the lock: trace builds are the expensive part and
  // distinct keys should not serialize on each other. A racing double
  // realization of the same key is benign (both are bitwise identical;
  // the first insert wins).
  Trace trace;
  if (!pack_dir_.empty() && spec.source != TraceSpec::Source::kProvided) {
    // Disk tier: realize + pack once (or reuse a pack an earlier run left
    // behind), then load the packed bytes. The pack round-trips the trace
    // bit for bit, so callers cannot tell the tiers apart.
    const ScopedSpan realize_span(recorder_, "realize", 0, 0, key);
    SPES_ASSIGN_OR_RETURN(const std::string path, EnsurePacked(spec));
    SPES_ASSIGN_OR_RETURN(trace, ReadTraceFile(path));
  } else if (!spec.transforms.empty()) {
    // A variant is its source's cached base with the chain applied, so N
    // chains over one source realize the source once.
    TraceSpec base_spec = spec;
    base_spec.transforms.clear();
    SPES_ASSIGN_OR_RETURN(const std::shared_ptr<const Trace> base,
                          Get(base_spec));
    const ScopedSpan transform_span(recorder_, "transform", 0, 0, key);
    SPES_ASSIGN_OR_RETURN(trace, ApplyTransforms(*base, spec.transforms));
  } else {
    const ScopedSpan realize_span(recorder_, "realize", 0, 0, key);
    SPES_ASSIGN_OR_RETURN(trace, RealizeTrace(spec));
  }
  auto shared = std::make_shared<const Trace>(std::move(trace));
  std::lock_guard<std::mutex> lock(mu_);
  return by_key_.emplace(key, std::move(shared)).first->second;
}

Result<std::string> TraceCache::EnsurePacked(const TraceSpec& spec) {
  if (pack_dir_.empty()) {
    return Status::InvalidArgument(
        "TraceCache has no disk tier; construct it with a pack directory "
        "to pack traces");
  }
  const std::string key = TraceSpecKey(spec);
  // One packer at a time: concurrent misses on the same spec must realize
  // it once, and realization is far more expensive than the serialization.
  std::lock_guard<std::mutex> lock(pack_mu_);
  std::error_code ec;
  std::filesystem::create_directories(pack_dir_, ec);
  if (ec) {
    return Status::IOError("cannot create trace pack directory '" +
                           pack_dir_ + "': " + ec.message());
  }
  const std::string path =
      (std::filesystem::path(pack_dir_) / PackedFileName(key)).string();
  if (std::filesystem::exists(path, ec)) return path;
  if (recorder_ != nullptr) recorder_->CacheEvent("pack", key);
  const ScopedSpan pack_span(recorder_, "pack", 0, 0, key);
  SPES_ASSIGN_OR_RETURN(Trace trace, RealizeTrace(spec));
  // Write to a temp name and rename into place, so a concurrent reader
  // (another process sharing the directory) never sees a partial pack.
  const std::string tmp = path + ".tmp";
  SPES_ASSIGN_OR_RETURN(const TraceFileStats stats,
                        WriteTraceFile(trace, tmp));
  (void)stats;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("cannot move packed trace into place at '" +
                           path + "': " + ec.message());
  }
  return path;
}

Result<std::unique_ptr<TraceSource>> TraceCache::OpenStream(
    const TraceSpec& spec) {
  // A trace-file spec with no transforms already IS the packed form.
  if (spec.source == TraceSpec::Source::kTraceFile &&
      spec.transforms.empty()) {
    SPES_ASSIGN_OR_RETURN(std::unique_ptr<TraceFileSource> source,
                          OpenTraceFile(spec.trace_file));
    return std::unique_ptr<TraceSource>(std::move(source));
  }
  if (spec.source == TraceSpec::Source::kProvided) {
    return Status::InvalidArgument(
        "TraceSpec.source is kProvided (no materializable source); streams "
        "only serve realizable specs");
  }
  SPES_ASSIGN_OR_RETURN(const std::string path, EnsurePacked(spec));
  SPES_ASSIGN_OR_RETURN(std::unique_ptr<TraceFileSource> source,
                        OpenTraceFile(path));
  return std::unique_ptr<TraceSource>(std::move(source));
}

size_t TraceCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return by_key_.size();
}

}  // namespace spes
