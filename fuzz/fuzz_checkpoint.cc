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

#include <string>

#include "cluster/cluster.h"
#include "fuzz/fuzz_common.h"
#include "sim/stream.h"

namespace {

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
  return 0;
}
