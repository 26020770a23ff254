// Fuzzes both checkpoint parsers over raw bytes — ParseCheckpoint
// (SPESCKPT, SimStream) and ParseClusterCheckpoint (SPESCLCK,
// ClusterSession). These are the highest-value targets: they consume
// bytes straight from disk for cross-process resume, so truncated,
// corrupt or adversarial input must always yield InvalidArgument, never
// undefined behaviour or an unbounded allocation. Both parsers see every
// input, so mutations of one format's seeds also probe the other.
// Properties, for each parser:
//   * A successful parse re-serializes to bytes that parse again; the
//     second serialization is byte-identical (canonical encoding).
//   * Every latency blob of a parsed checkpoint opens with a queue state:
//     ConcurrencyQueue::ParseFrom either rejects it with a message or
//     accepts a state that re-serializes to the same bytes. Sessions
//     restore these blobs, so impossible queue states must be rejected.

#include <string>

#include "cluster/cluster.h"
#include "common/binary_io.h"
#include "fuzz/fuzz_common.h"
#include "latency/queue.h"
#include "sim/stream.h"

namespace {

void CheckQueueState(const std::string& latency_state) {
  if (latency_state.empty()) return;
  spes::BinaryReader reader(latency_state);
  const auto parsed = spes::ConcurrencyQueue::ParseFrom(&reader);
  if (!parsed.ok()) {
    FUZZ_ASSERT(!parsed.status().message().empty());
    return;
  }
  const size_t consumed = latency_state.size() - reader.remaining();
  spes::BinaryWriter writer;
  parsed.ValueOrDie().SerializeTo(&writer);
  FUZZ_ASSERT(writer.Take() == latency_state.substr(0, consumed));
}

void CheckQueueStates(const std::string& bytes) {
  const auto stream = spes::ParseCheckpoint(bytes);
  if (stream.ok()) {
    for (const auto& lane : stream.ValueOrDie().lanes) {
      CheckQueueState(lane.latency_state);
    }
  }
  const auto cluster = spes::ParseClusterCheckpoint(bytes);
  if (cluster.ok()) {
    for (const auto& node : cluster.ValueOrDie().nodes) {
      CheckQueueState(node.latency_state);
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
  CheckQueueStates(bytes);
  return 0;
}
