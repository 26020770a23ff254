// Fuzzes both checkpoint parsers over raw bytes — ParseCheckpoint
// (SPESCKPT, SimStream) and ParseClusterCheckpoint (SPESCLCK,
// ClusterSession) — and every state blob they carry. These are the
// highest-value targets: they consume bytes straight from disk for
// cross-process resume, so truncated, corrupt or adversarial input must
// always yield InvalidArgument, never undefined behaviour or an unbounded
// allocation. Both parsers see every input, so mutations of one format's
// seeds also probe the other. Properties, for each parser:
//   * A successful parse re-serializes to bytes that parse again; the
//     second serialization is byte-identical (canonical encoding).
//   * Every policy_state of a parsed checkpoint is handed to the policies
//     a session would restore it into — spes and fixed_keepalive, trained
//     once per process (see TrainedPolicies) — and each either rejects it
//     with a message or re-saves it to the same bytes. The whole input
//     gets the same treatment as a bare policy blob (the *_state_blob
//     seeds): an inserted or erased byte inside a blob rarely survives
//     the length prefixes of an enclosing checkpoint.
//   * Every latency_state opens with a queue state that
//     ConcurrencyQueue::ParseFrom rejects with a message or re-serializes
//     to the same bytes, and LatencyLane::RestoreState (on a lane with
//     that queue config, at the checkpoint's cursor) rejects the whole
//     blob with a message or re-saves it to the same bytes. Sessions
//     restore these blobs, so impossible states must be rejected.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/binary_io.h"
#include "core/spes_policy.h"
#include "fuzz/fuzz_common.h"
#include "latency/latency.h"
#include "latency/queue.h"
#include "policies/fixed_keepalive.h"
#include "sim/stream.h"
#include "trace/generator.h"

namespace {

/// Generator seed of the fleets below; the spes_mid_window seed was cut
/// from the 8-function one.
constexpr uint64_t kFleetSeed = 99;

/// spes and fixed_keepalive (at every keep-alive the seeds use), trained
/// once on a 2-day generated fleet of each seed size: 4 functions (the
/// SPESCLCK and latency seeds) and 8 (the other SPESCKPT seeds). A state
/// blob only restores into a policy trained on a fleet of its size.
const std::vector<std::unique_ptr<spes::Policy>>& TrainedPolicies() {
  static const auto* policies = [] {
    auto* out = new std::vector<std::unique_ptr<spes::Policy>>;
    for (const int n : {4, 8}) {
      spes::GeneratorConfig config;
      config.num_functions = n;
      config.days = 2;
      config.seed = kFleetSeed;
      const spes::Trace fleet =
          std::move(spes::GenerateTrace(config).ValueOrDie().trace);
      std::vector<std::unique_ptr<spes::Policy>> trained;
      trained.push_back(std::make_unique<spes::SpesPolicy>());
      for (const int minutes : {2, 5, 10, 20}) {
        trained.push_back(
            std::make_unique<spes::FixedKeepAlivePolicy>(minutes));
      }
      for (auto& policy : trained) {
        policy->Train(fleet, spes::kMinutesPerDay);
        out->push_back(std::move(policy));
      }
    }
    return out;
  }();
  return *policies;
}

void CheckPolicyState(const std::string& blob) {
  for (const auto& policy : TrainedPolicies()) {
    const spes::Status restored = policy->RestoreState(blob);
    if (!restored.ok()) {
      FUZZ_ASSERT(!restored.message().empty());
      continue;
    }
    const auto saved = policy->SaveState();
    FUZZ_ASSERT(saved.ok() && saved.ValueOrDie() == blob);
  }
}

/// `minutes` is the checkpoint's cursor minus its train window: the
/// minutes the restoring lane has simulated.
void CheckLatencyState(const std::string& blob, int64_t minutes) {
  if (blob.empty()) return;
  spes::BinaryReader reader(blob);
  const auto queue = spes::ConcurrencyQueue::ParseFrom(&reader);
  if (!queue.ok()) {
    FUZZ_ASSERT(!queue.status().message().empty());
    return;
  }
  const size_t consumed = blob.size() - reader.remaining();
  spes::BinaryWriter writer;
  queue.ValueOrDie().SerializeTo(&writer);
  FUZZ_ASSERT(writer.Take() == blob.substr(0, consumed));

  // Restore() rejects a cursor before the window ahead of any blob.
  if (minutes < 0) return;
  const spes::QueueConfig& config = queue.ValueOrDie().config();
  spes::LatencySpec spec;
  spec.concurrency = config.concurrency;
  spec.queue_capacity = config.queue_capacity;
  spec.timeout_ms = config.timeout_ms;
  auto model = spes::LatencyModelRegistry::Global().Create(spec.model);
  FUZZ_ASSERT(model.ok());
  spes::LatencyLane lane(std::move(model).ValueOrDie(), spec,
                         std::make_shared<const std::vector<uint64_t>>());
  const spes::Status restored =
      lane.RestoreState(blob, static_cast<size_t>(minutes));
  if (!restored.ok()) {
    FUZZ_ASSERT(!restored.message().empty());
    return;
  }
  FUZZ_ASSERT(lane.SaveState() == blob);
}

void CheckLaneBlobs(const spes::CheckpointWindow& window,
                    const spes::LaneCheckpoint& lane) {
  CheckPolicyState(lane.policy_state);
  CheckLatencyState(lane.latency_state,
                    int64_t{window.cursor} - window.train_minutes);
}

void CheckBlobs(const std::string& bytes) {
  const auto stream = spes::ParseCheckpoint(bytes);
  if (stream.ok()) {
    for (const auto& lane : stream.ValueOrDie().lanes) {
      CheckLaneBlobs(stream.ValueOrDie(), lane);
    }
  }
  const auto cluster = spes::ParseClusterCheckpoint(bytes);
  if (cluster.ok()) {
    for (const auto& node : cluster.ValueOrDie().nodes) {
      CheckLaneBlobs(cluster.ValueOrDie(), node);
    }
  }
}

template <typename Parse, typename Serialize>
void CheckCanonical(const std::string& bytes, Parse parse,
                    Serialize serialize) {
  const auto parsed = parse(bytes);
  if (!parsed.ok()) {
    FUZZ_ASSERT(!parsed.status().message().empty());
    return;
  }
  const std::string reserialized = serialize(parsed.ValueOrDie());
  const auto reparsed = parse(reserialized);
  FUZZ_ASSERT(reparsed.ok());
  FUZZ_ASSERT(serialize(reparsed.ValueOrDie()) == reserialized);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  CheckCanonical(bytes, spes::ParseCheckpoint, spes::SerializeCheckpoint);
  CheckCanonical(bytes, spes::ParseClusterCheckpoint,
                 spes::SerializeClusterCheckpoint);
  CheckBlobs(bytes);
  CheckPolicyState(bytes);
  return 0;
}
