#include "latency/latency.h"

#include <algorithm>
#include <utility>

#include "common/binary_io.h"
#include "common/rng.h"

namespace spes {

namespace {

/// Longest representable end-to-end sample: the histogram domain is
/// uint64 microseconds; anything beyond (pathological spec corners such
/// as lognormal with sigma near its cap) clamps to this, deterministically.
constexpr double kMaxSampleUs = 9.2e18;

/// Golden-ratio minute salt: decorrelates a function's per-minute request
/// streams without any carried RNG state (checkpoint-safe by construction).
constexpr uint64_t kMinuteSalt = 0x9e3779b97f4a7c15ULL;

std::string TrimCopy(const std::string& text) {
  size_t begin = text.find_first_not_of(" \t\n\r");
  if (begin == std::string::npos) return "";
  size_t end = text.find_last_not_of(" \t\n\r");
  return text.substr(begin, end - begin + 1);
}

constexpr double kMaxTimeoutMs = 1e9;

}  // namespace

const std::vector<ParamSpec>& LatencyQueueParamSchema() {
  static const std::vector<ParamSpec>* schema = new std::vector<ParamSpec>{
      {"concurrency", ParamType::kInt, ParamValue(0),
       "concurrent execution slots per lane/node; 0 = unlimited", 0,
       kIntParamMax},
      {"capacity", ParamType::kInt, ParamValue(0),
       "queue slots before arrivals are shed; 0 = unbounded", 0, kIntParamMax},
      {"timeout_ms", ParamType::kDouble, ParamValue(0.0),
       "longest tolerated queue wait in milliseconds; 0 = wait forever", 0.0,
       kMaxTimeoutMs},
      {"seed", ParamType::kInt, ParamValue(0),
       "seed of the per-request service-time sampling stream", 0},
  };
  return *schema;
}

Result<LatencySpec> ParseLatencySpec(const std::string& text) {
  // Split at the first top-level '@' (brace depth 0); the separator can
  // never occur inside a name{...} block, whose grammar has no '@'.
  size_t at = std::string::npos;
  int depth = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '{') ++depth;
    if (text[i] == '}') --depth;
    if (text[i] == '@' && depth == 0) {
      at = i;
      break;
    }
  }
  const std::string model_text =
      TrimCopy(at == std::string::npos ? text : text.substr(0, at));
  LatencySpec spec;
  SPES_ASSIGN_OR_RETURN(spec.model, ParseLatencyModelSpec(model_text));
  if (at == std::string::npos) return spec;

  const std::string queue_text = TrimCopy(text.substr(at + 1));
  SPES_ASSIGN_OR_RETURN(const NamedSpec queue_spec,
                        ParseNamedSpec(queue_text, "latency queue"));
  if (queue_spec.name != "queue") {
    return Status::InvalidArgument(
        "latency block after '@' must be a queue{...} spec, got '" +
        queue_spec.name + "'");
  }
  SPES_ASSIGN_OR_RETURN(
      const ParamMap params,
      MergeSpecParams("latency queue", queue_spec, LatencyQueueParamSchema()));
  spec.concurrency = static_cast<int>(params.GetInt("concurrency"));
  spec.queue_capacity = static_cast<int>(params.GetInt("capacity"));
  spec.timeout_ms = params.GetDouble("timeout_ms");
  spec.seed = static_cast<uint64_t>(params.GetInt("seed"));
  return spec;
}

std::string FormatLatencySpec(const LatencySpec& spec) {
  std::string out = FormatNamedSpec(spec.model);
  NamedSpec queue{"queue", {}};
  if (spec.concurrency != 0) {
    queue.params["concurrency"] = ParamValue(int64_t{spec.concurrency});
  }
  if (spec.queue_capacity != 0) {
    queue.params["capacity"] = ParamValue(int64_t{spec.queue_capacity});
  }
  if (spec.timeout_ms != 0.0) {
    queue.params["timeout_ms"] = ParamValue(spec.timeout_ms);
  }
  if (spec.seed != 0) {
    queue.params["seed"] = ParamValue(static_cast<int64_t>(spec.seed));
  }
  if (!queue.params.empty()) out += " @ " + FormatNamedSpec(queue);
  return out;
}

Status ValidateLatencySpec(const LatencySpec& spec) {
  SPES_ASSIGN_OR_RETURN(const std::unique_ptr<LatencyModel> model,
                        LatencyModelRegistry::Global().Create(spec.model));
  (void)model;
  const std::vector<ParamSpec>& schema = LatencyQueueParamSchema();
  SPES_RETURN_NOT_OK(CheckDeclaredDomain(schema, "concurrency",
                                         ParamValue(spec.concurrency),
                                         "LatencySpec.concurrency"));
  SPES_RETURN_NOT_OK(CheckDeclaredDomain(schema, "capacity",
                                         ParamValue(spec.queue_capacity),
                                         "LatencySpec.queue_capacity"));
  SPES_RETURN_NOT_OK(CheckDeclaredDomain(schema, "timeout_ms",
                                         ParamValue(spec.timeout_ms),
                                         "LatencySpec.timeout_ms"));
  if (spec.concurrency == 0 &&
      (spec.queue_capacity > 0 || spec.timeout_ms > 0.0)) {
    return Status::InvalidArgument(
        "latency queue capacity/timeout_ms require a concurrency limit: "
        "with unlimited slots nothing ever queues, so they would be "
        "silent no-ops");
  }
  return Status::OK();
}

std::vector<uint64_t> ComputeFunctionHashes(const TraceSource& source,
                                            uint64_t seed) {
  std::vector<uint64_t> hashes;
  hashes.reserve(source.num_functions());
  for (size_t f = 0; f < source.num_functions(); ++f) {
    hashes.push_back(MixNameSeed(source.function_meta(f).name, seed));
  }
  return hashes;
}

void FinalizeLatencyOutcome(LatencyOutcome* outcome) {
  outcome->p50_ms = static_cast<double>(outcome->histogram.ValueAtQuantile(0.50)) / 1000.0;
  outcome->p95_ms = static_cast<double>(outcome->histogram.ValueAtQuantile(0.95)) / 1000.0;
  outcome->p99_ms = static_cast<double>(outcome->histogram.ValueAtQuantile(0.99)) / 1000.0;
  outcome->mean_ms = outcome->histogram.Mean() / 1000.0;
  outcome->max_ms = static_cast<double>(outcome->histogram.Max()) / 1000.0;
  const uint64_t offered = outcome->offered();
  outcome->timeout_rate =
      offered == 0 ? 0.0
                   : static_cast<double>(outcome->timeouts) /
                         static_cast<double>(offered);
  outcome->shed_rate = offered == 0
                           ? 0.0
                           : static_cast<double>(outcome->shed) /
                                 static_cast<double>(offered);
  outcome->max_queue_depth = 0;
  for (uint32_t depth : outcome->queue_depth_series) {
    outcome->max_queue_depth = std::max(outcome->max_queue_depth, depth);
  }
}

void MergeLatencyOutcome(LatencyOutcome* dst, const LatencyOutcome& src) {
  dst->histogram.Merge(src.histogram);
  dst->served += src.served;
  dst->cold_served += src.cold_served;
  dst->timeouts += src.timeouts;
  dst->shed += src.shed;
  if (dst->queue_depth_series.size() < src.queue_depth_series.size()) {
    dst->queue_depth_series.resize(src.queue_depth_series.size(), 0);
  }
  for (size_t i = 0; i < src.queue_depth_series.size(); ++i) {
    dst->queue_depth_series[i] += src.queue_depth_series[i];
  }
}

LatencyLane::LatencyLane(
    std::unique_ptr<const LatencyModel> model, const LatencySpec& spec,
    std::shared_ptr<const std::vector<uint64_t>> function_hashes)
    : model_(std::move(model)),
      spec_(spec),
      function_hashes_(std::move(function_hashes)),
      queue_(QueueConfig{spec.concurrency, spec.queue_capacity,
                         spec.timeout_ms}),
      keys_(kChunk),
      cold_(kChunk),
      service_ms_(kChunk) {}

void LatencyLane::OnMinute(int minute,
                           const std::vector<Invocation>& arrivals,
                           const std::vector<uint8_t>& cold_flags) {
  const double minute_start = static_cast<double>(minute) * 60000.0;
  uint64_t total = 0;
  for (const Invocation& inv : arrivals) total += inv.count;
  // Spread the minute's requests evenly across it in decode order: burst
  // minutes contend at the queue instead of collapsing onto one instant,
  // and the offsets are a pure function of the trace.
  const double spacing =
      total > 0 ? 60000.0 / static_cast<double>(total) : 0.0;
  const uint64_t minute_salt =
      kMinuteSalt * (static_cast<uint64_t>(minute) + 1);
  const std::vector<uint64_t>& hashes = *function_hashes_;
  // The minute runs in chunks of at most kChunk requests, in two passes
  // per chunk. Every sample is a pure function of its key, so sampling a
  // whole chunk before offering any of it changes no outcome.
  uint64_t j = 0;  // request index within the minute
  size_t i = 0;    // cursor: arrival i, its request k
  uint32_t k = 0;
  while (i < arrivals.size()) {
    // Pass 1: keys and cold flags, then one batched model call.
    size_t n = 0;
    while (n < kChunk && i < arrivals.size()) {
      const Invocation& inv = arrivals[i];
      const uint64_t base = hashes[inv.function] ^ minute_salt;
      // Concurrent arrivals share the freshly started instance (§V-A):
      // only the arrival's first request pays the cold distribution.
      const uint8_t cold_arrival = cold_flags[i] != 0 ? 1 : 0;
      const uint32_t take = static_cast<uint32_t>(
          std::min<uint64_t>(inv.count - k, kChunk - n));
      for (uint32_t m = 0; m < take; ++m, ++k, ++n) {
        uint64_t state = base + k;
        keys_[n] = SplitMix64(&state);
        cold_[n] = k == 0 ? cold_arrival : 0;
      }
      if (k == inv.count) {
        ++i;
        k = 0;
      }
    }
    model_->SampleMinute(keys_.data(), cold_.data(), n, service_ms_.data());
    // Pass 2: offer the chunk to the queue in order and record it.
    for (size_t m = 0; m < n; ++m, ++j) {
      const double arrival_ms =
          minute_start + static_cast<double>(j) * spacing;
      const QueueOutcome result = queue_.Offer(arrival_ms, service_ms_[m]);
      switch (result.admission) {
        case Admission::kServed: {
          const double us = result.end_to_end_ms * 1000.0 + 0.5;
          outcome_.histogram.Record(
              us >= kMaxSampleUs ? static_cast<uint64_t>(kMaxSampleUs)
                                 : static_cast<uint64_t>(us));
          ++outcome_.served;
          outcome_.cold_served += cold_[m];
          break;
        }
        case Admission::kTimedOut:
          ++outcome_.timeouts;
          break;
        case Admission::kShed:
          ++outcome_.shed;
          break;
      }
    }
  }
  const size_t depth = queue_.DrainUntil(minute_start + 60000.0);
  outcome_.queue_depth_series.push_back(static_cast<uint32_t>(depth));
  live_ = {outcome_.served, outcome_.timeouts, outcome_.shed,
           static_cast<uint32_t>(depth)};
}

LatencyOutcome LatencyLane::TakeOutcome() {
  FinalizeLatencyOutcome(&outcome_);
  LatencyOutcome out = std::move(outcome_);
  outcome_ = LatencyOutcome{};
  return out;
}

std::string LatencyLane::SaveState() const {
  BinaryWriter writer;
  queue_.SerializeTo(&writer);
  outcome_.histogram.SerializeTo(&writer);
  writer.PutVarU64(outcome_.served);
  writer.PutVarU64(outcome_.cold_served);
  writer.PutVarU64(outcome_.timeouts);
  writer.PutVarU64(outcome_.shed);
  writer.PutVarU64(outcome_.queue_depth_series.size());
  for (uint32_t depth : outcome_.queue_depth_series) {
    writer.PutVarU32(depth);
  }
  return writer.Take();
}

Status LatencyLane::RestoreState(const std::string& bytes,
                                 size_t expected_minutes) {
  BinaryReader reader(bytes);
  SPES_ASSIGN_OR_RETURN(ConcurrencyQueue queue,
                        ConcurrencyQueue::ParseFrom(&reader));
  if (queue.config() !=
      QueueConfig{spec_.concurrency, spec_.queue_capacity,
                  spec_.timeout_ms}) {
    return Status::InvalidArgument(
        "latency state was captured under a different queue config");
  }
  LatencyOutcome outcome;
  SPES_ASSIGN_OR_RETURN(outcome.histogram,
                        FixedBucketHistogram::ParseFrom(&reader));
  SPES_ASSIGN_OR_RETURN(outcome.served, reader.VarU64());
  SPES_ASSIGN_OR_RETURN(outcome.cold_served, reader.VarU64());
  SPES_ASSIGN_OR_RETURN(outcome.timeouts, reader.VarU64());
  SPES_ASSIGN_OR_RETURN(outcome.shed, reader.VarU64());
  if (outcome.cold_served > outcome.served) {
    return Status::InvalidArgument(
        "corrupt latency state: cold_served exceeds served");
  }
  if (outcome.histogram.TotalCount() != outcome.served) {
    return Status::InvalidArgument(
        "corrupt latency state: histogram holds " +
        std::to_string(outcome.histogram.TotalCount()) +
        " samples but served says " + std::to_string(outcome.served));
  }
  SPES_ASSIGN_OR_RETURN(const uint64_t series_size, reader.VarLength(1));
  if (series_size != expected_minutes) {
    return Status::InvalidArgument(
        "latency state covers " + std::to_string(series_size) +
        " minutes but the stream position implies " +
        std::to_string(expected_minutes));
  }
  outcome.queue_depth_series.reserve(static_cast<size_t>(series_size));
  for (uint64_t i = 0; i < series_size; ++i) {
    SPES_ASSIGN_OR_RETURN(const uint32_t depth, reader.VarU32());
    outcome.queue_depth_series.push_back(depth);
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument(
        "corrupt latency state: " + std::to_string(reader.remaining()) +
        " trailing bytes");
  }
  queue_ = std::move(queue);
  outcome_ = std::move(outcome);
  live_ = {outcome_.served, outcome_.timeouts, outcome_.shed,
           outcome_.queue_depth_series.empty()
               ? 0
               : outcome_.queue_depth_series.back()};
  return Status::OK();
}

Result<std::unique_ptr<LatencyLane>> CreateLatencyLane(
    const LatencySpec& spec,
    std::shared_ptr<const std::vector<uint64_t>> function_hashes) {
  SPES_RETURN_NOT_OK(ValidateLatencySpec(spec));
  SPES_ASSIGN_OR_RETURN(std::unique_ptr<LatencyModel> model,
                        LatencyModelRegistry::Global().Create(spec.model));
  return std::make_unique<LatencyLane>(
      std::unique_ptr<const LatencyModel>(std::move(model)), spec,
      std::move(function_hashes));
}

}  // namespace spes
