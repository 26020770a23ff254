// Differential and hostile-input tests for the packed binary trace format
// (trace/trace_file.h).
//
// The differential half pins that the streamed disk path is bitwise
// interchangeable with the in-memory path: write -> open -> stream
// round-trips arrivals, counts, metadata and population summaries exactly,
// and the seed-99 golden runs (plain, lockstep, 4-node cluster, mid-window
// checkpoint/restore) reproduce the golden_metrics_test numbers when the
// engine is fed from a packed file.
//
// The hostile half feeds the parser truncated, corrupted and maliciously
// crafted images and requires InvalidArgument with a message every time —
// never a crash, hang or out-of-bounds access (fuzz/fuzz_trace_file.cc
// continues where these hand-picked cases leave off).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "core/policy_registry.h"
#include "core/spes_policy.h"
#include "policies/fixed_keepalive.h"
#include "sim/engine.h"
#include "sim/scenario.h"
#include "sim/stream.h"
#include "tests/same_outcome.h"
#include "trace/generator.h"
#include "trace/summary.h"
#include "trace/trace_file.h"
#include "trace/trace_source.h"

namespace spes {
namespace {

// ---------------------------------------------------------------------
// Fixtures: the same seed-99 golden fleet golden_metrics_test pins.
// ---------------------------------------------------------------------

Trace GoldenTrace() {
  GeneratorConfig config;
  config.num_functions = 150;
  config.days = 4;
  config.seed = 99;
  return std::move(GenerateTrace(config).ValueOrDie().trace);
}

SimOptions GoldenOptions() {
  SimOptions options;
  options.train_minutes = 2 * kMinutesPerDay;
  return options;
}

uint64_t SeriesSum(const std::vector<uint32_t>& series) {
  return std::accumulate(series.begin(), series.end(), uint64_t{0});
}

std::string PackToBytes(const Trace& trace, bool compress,
                        TraceFileStats* stats = nullptr) {
  TraceFileOptions options;
  options.compress = compress;
  TraceFileWriter writer =
      TraceFileWriter::Create(trace.num_minutes(), options).ValueOrDie();
  for (size_t f = 0; f < trace.num_functions(); ++f) {
    writer.Add(trace.function(f).meta, trace.function(f).counts).CheckOK();
  }
  return writer.ToBytes(stats).ValueOrDie();
}

/// Packs the golden fleet to a temp file and returns its path.
std::string PackGoldenToFile(const std::string& name) {
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  WriteTraceFile(GoldenTrace(), path).ValueOrDie();
  return path;
}

// ---------------------------------------------------------------------
// Round-trip differential: disk path == in-memory path, bit for bit.
// ---------------------------------------------------------------------

class TraceFileRoundTripTest : public ::testing::TestWithParam<bool> {};

TEST_P(TraceFileRoundTripTest, StreamedArrivalsMatchInMemoryTransposeExactly) {
  const bool compress = GetParam();
  const Trace trace = GoldenTrace();
  std::unique_ptr<TraceFileSource> from_disk =
      TraceFileSource::FromBytes(PackToBytes(trace, compress)).ValueOrDie();
  InMemoryTraceSource in_memory(trace);

  ASSERT_EQ(from_disk->num_minutes(), trace.num_minutes());
  ASSERT_EQ(from_disk->num_functions(), trace.num_functions());

  // Windows deliberately misaligned with the 256-minute block grid, so
  // every FillArrivals call crosses block boundaries.
  std::vector<std::vector<Invocation>> disk_buckets;
  std::vector<std::vector<Invocation>> memory_buckets;
  const int window = 173;
  for (int begin = 0; begin < trace.num_minutes(); begin += window) {
    const int end = std::min(begin + window, trace.num_minutes());
    ASSERT_TRUE(from_disk->FillArrivals(begin, end, &disk_buckets).ok());
    ASSERT_TRUE(in_memory.FillArrivals(begin, end, &memory_buckets).ok());
    for (int i = 0; i < end - begin; ++i) {
      const auto& a = disk_buckets[static_cast<size_t>(i)];
      const auto& b = memory_buckets[static_cast<size_t>(i)];
      ASSERT_EQ(a.size(), b.size()) << "minute " << begin + i;
      for (size_t j = 0; j < a.size(); ++j) {
        EXPECT_EQ(a[j].function, b[j].function) << "minute " << begin + i;
        EXPECT_EQ(a[j].count, b[j].count) << "minute " << begin + i;
      }
    }
  }
}

TEST_P(TraceFileRoundTripTest, MaterializedTraceAndSummariesMatchOriginal) {
  const bool compress = GetParam();
  const Trace original = GoldenTrace();
  std::unique_ptr<TraceFileSource> source =
      TraceFileSource::FromBytes(PackToBytes(original, compress))
          .ValueOrDie();
  const Trace reloaded =
      source->MaterializePrefix(original.num_minutes()).ValueOrDie();

  ASSERT_EQ(reloaded.num_functions(), original.num_functions());
  ASSERT_EQ(reloaded.num_minutes(), original.num_minutes());
  for (size_t f = 0; f < original.num_functions(); ++f) {
    const FunctionTrace& a = original.function(f);
    const FunctionTrace& b = reloaded.function(f);
    EXPECT_EQ(a.meta.owner, b.meta.owner) << f;
    EXPECT_EQ(a.meta.app, b.meta.app) << f;
    EXPECT_EQ(a.meta.name, b.meta.name) << f;
    EXPECT_EQ(a.meta.trigger, b.meta.trigger) << f;
    ASSERT_EQ(a.counts, b.counts) << f;
  }

  // Population summaries are derived, so they must agree too.
  const InvocationHistogram ha = ComputeInvocationHistogram(original);
  const InvocationHistogram hb = ComputeInvocationHistogram(reloaded);
  EXPECT_EQ(ha.buckets, hb.buckets);
  EXPECT_EQ(ha.zero_functions, hb.zero_functions);
  EXPECT_EQ(ha.total_invocations, hb.total_invocations);
  EXPECT_EQ(ComputeTriggerMix(original), ComputeTriggerMix(reloaded));
}

TEST_P(TraceFileRoundTripTest, MaterializePrefixMatchesCountPrefix) {
  const bool compress = GetParam();
  const Trace original = GoldenTrace();
  std::unique_ptr<TraceFileSource> source =
      TraceFileSource::FromBytes(PackToBytes(original, compress))
          .ValueOrDie();
  const int prefix = 2 * kMinutesPerDay;
  const Trace train = source->MaterializePrefix(prefix).ValueOrDie();
  ASSERT_EQ(train.num_minutes(), prefix);
  ASSERT_EQ(train.num_functions(), original.num_functions());
  for (size_t f = 0; f < original.num_functions(); ++f) {
    const std::vector<uint32_t>& full = original.function(f).counts;
    const std::vector<uint32_t>& cut = train.function(f).counts;
    ASSERT_EQ(cut.size(), static_cast<size_t>(prefix)) << f;
    EXPECT_TRUE(std::equal(cut.begin(), cut.end(), full.begin())) << f;
  }
}

INSTANTIATE_TEST_SUITE_P(CompressedAndRaw, TraceFileRoundTripTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Compressed" : "Raw";
                         });

TEST(TraceFileTest, StatsAccountForCompressionAndFileLayout) {
  const Trace trace = GoldenTrace();
  TraceFileStats raw_stats;
  TraceFileStats lz_stats;
  const std::string raw = PackToBytes(trace, /*compress=*/false, &raw_stats);
  const std::string lz = PackToBytes(trace, /*compress=*/true, &lz_stats);

  EXPECT_EQ(raw_stats.file_bytes, raw.size());
  EXPECT_EQ(lz_stats.file_bytes, lz.size());
  EXPECT_EQ(raw_stats.payload_stored_bytes, raw_stats.payload_raw_bytes);
  EXPECT_LT(lz_stats.payload_stored_bytes, lz_stats.payload_raw_bytes);
  EXPECT_LT(lz.size(), raw.size());
  EXPECT_GT(lz_stats.CompressionRatio(), 1.0);
  EXPECT_EQ(lz_stats.num_functions, trace.num_functions());
  EXPECT_EQ(lz_stats.num_minutes,
            static_cast<uint32_t>(trace.num_minutes()));

  // The opened source recomputes the same accounting from the file.
  std::unique_ptr<TraceFileSource> source =
      TraceFileSource::FromBytes(lz).ValueOrDie();
  EXPECT_EQ(source->stats().file_bytes, lz_stats.file_bytes);
  EXPECT_EQ(source->stats().total_invocations, lz_stats.total_invocations);
  EXPECT_EQ(source->stats().payload_stored_bytes,
            lz_stats.payload_stored_bytes);
}

// ---------------------------------------------------------------------
// Seed-99 golden runs, served from disk: every driving mode must hit the
// exact numbers golden_metrics_test pins for the in-memory engine.
// ---------------------------------------------------------------------

TEST(TraceFileGoldenTest, StreamedPlainRunMatchesBatchGoldens) {
  const std::string path = PackGoldenToFile("spes_tf_golden_plain.spt");
  std::unique_ptr<TraceFileSource> source =
      OpenTraceFile(path).ValueOrDie();

  SpesPolicy streamed;
  SimStream stream =
      SimStream::Create(*source, &streamed, GoldenOptions()).ValueOrDie();
  const SimulationOutcome outcome = stream.Finish().ValueOrDie();
  EXPECT_EQ(outcome.metrics.total_cold_starts, 631u);
  EXPECT_EQ(outcome.metrics.wasted_memory_minutes, 82418u);
  EXPECT_EQ(SeriesSum(outcome.memory_series), 212568u);
  EXPECT_DOUBLE_EQ(outcome.metrics.q3_csr, 0.051625753660637382);

  SpesPolicy batch;
  const Trace fleet = GoldenTrace();
  ExpectSameOutcome(
      Simulate(fleet, &batch, GoldenOptions()).ValueOrDie(), outcome);
  std::filesystem::remove(path);
}

TEST(TraceFileGoldenTest, StreamedLockstepMatchesBatchGoldens) {
  const std::string path = PackGoldenToFile("spes_tf_golden_lockstep.spt");
  std::unique_ptr<TraceFileSource> source =
      OpenTraceFile(path).ValueOrDie();

  SpesPolicy spes;
  FixedKeepAlivePolicy fixed(10);
  SimStream stream =
      SimStream::Create(*source, {&spes, &fixed}, GoldenOptions())
          .ValueOrDie();
  const std::vector<SimulationOutcome> outcomes =
      stream.FinishAll().ValueOrDie();
  EXPECT_EQ(stream.minutes_decoded(), 2880);

  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].metrics.total_cold_starts, 631u);
  EXPECT_EQ(SeriesSum(outcomes[0].memory_series), 212568u);
  EXPECT_EQ(outcomes[1].metrics.total_cold_starts, 1574u);
  EXPECT_EQ(SeriesSum(outcomes[1].memory_series), 210020u);
  std::filesystem::remove(path);
}

TEST(TraceFileGoldenTest, StreamedFourNodeClusterMatchesGoldens) {
  const std::string path = PackGoldenToFile("spes_tf_golden_cluster.spt");
  std::unique_ptr<TraceFileSource> source =
      OpenTraceFile(path).ValueOrDie();

  ScenarioSpec spec;
  spec.policy = {"spes", {}};
  spec.options = GoldenOptions();
  spec.cluster = ClusterSpec{};
  spec.cluster->nodes = 4;

  const ScenarioOutcome run =
      RunScenario(*source, spec).ValueOrDie();
  EXPECT_EQ(run.outcome.metrics.total_invocations, 505234u);
  EXPECT_EQ(run.outcome.metrics.total_cold_starts, 1535u);
  EXPECT_EQ(run.outcome.metrics.wasted_memory_minutes, 576460u);
  EXPECT_EQ(SeriesSum(run.outcome.memory_series), 706610u);
  ASSERT_NE(run.cluster, nullptr);
  ASSERT_EQ(run.cluster->nodes.size(), 4u);
  const uint64_t node_cold_starts[] = {190u, 796u, 413u, 136u};
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(run.cluster->nodes[k].sim.metrics.total_cold_starts,
              node_cold_starts[k])
        << k;
  }
  std::filesystem::remove(path);
}

TEST(TraceFileGoldenTest, StreamedCheckpointRestoreMatchesBatchGoldens) {
  const std::string path = PackGoldenToFile("spes_tf_golden_ckpt.spt");
  std::unique_ptr<TraceFileSource> source =
      OpenTraceFile(path).ValueOrDie();
  const int midpoint = 3 * kMinutesPerDay;

  SpesPolicy original;
  SimStream first =
      SimStream::Create(*source, &original, GoldenOptions()).ValueOrDie();
  ASSERT_TRUE(first.RunUntil(midpoint).ok());
  const std::string bytes =
      SerializeCheckpoint(first.Checkpoint().ValueOrDie());

  // Restore onto a second stream over a *fresh* handle of the same file —
  // the cross-process resume story, entirely disk-backed.
  std::unique_ptr<TraceFileSource> reopened =
      OpenTraceFile(path).ValueOrDie();
  SpesPolicy fresh;
  SimStream second =
      SimStream::Create(*reopened, &fresh, GoldenOptions()).ValueOrDie();
  ASSERT_TRUE(second.Restore(ParseCheckpoint(bytes).ValueOrDie()).ok());
  const SimulationOutcome resumed = second.Finish().ValueOrDie();

  EXPECT_EQ(resumed.metrics.total_cold_starts, 631u);
  EXPECT_EQ(SeriesSum(resumed.memory_series), 212568u);
  SpesPolicy batch;
  const Trace fleet = GoldenTrace();
  ExpectSameOutcome(
      Simulate(fleet, &batch, GoldenOptions()).ValueOrDie(), resumed);
  std::filesystem::remove(path);
}

TEST(TraceFileGoldenTest, OracleFromPackedFileMatchesInMemorySimulate) {
  const std::string path = PackGoldenToFile("spes_tf_golden_oracle.spt");
  std::unique_ptr<TraceFileSource> source =
      OpenTraceFile(path).ValueOrDie();
  const Trace fleet = GoldenTrace();
  std::unique_ptr<Policy> in_memory =
      PolicyRegistry::Global().CreateFromString("oracle").ValueOrDie();
  const SimulationOutcome expected =
      Simulate(fleet, in_memory.get(), GoldenOptions()).ValueOrDie();

  // The oracle trains on the whole horizon materialized from the file.
  ScenarioSpec spec;
  spec.policy = {"oracle", {}};
  spec.options = GoldenOptions();
  ExpectSameOutcome(
      expected, RunScenario(*source, spec).ValueOrDie().outcome);

  spec.cluster = ClusterSpec{};
  ExpectSameOutcome(
      expected, RunScenario(*source, spec).ValueOrDie().outcome);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------
// Declarative stack: trace_file sources and the disk-backed cache tier.
// ---------------------------------------------------------------------

TEST(TraceFileScenarioTest, TraceFileSourceKindRealizesAndRuns) {
  const std::string path = PackGoldenToFile("spes_tf_scenario.spt");

  ScenarioSpec spec;
  spec.trace = TraceSpec::FromTraceFile(path);
  spec.policy = {"spes", {}};
  spec.options = GoldenOptions();
  EXPECT_EQ(TraceSpecKey(spec.trace), "trace_file{path=" + path + "}");

  const ScenarioOutcome run = RunScenario(spec).ValueOrDie();
  EXPECT_EQ(run.outcome.metrics.total_cold_starts, 631u);
  EXPECT_EQ(SeriesSum(run.outcome.memory_series), 212568u);

  // Missing path names the field.
  ScenarioSpec empty = spec;
  empty.trace.trace_file.clear();
  const auto bad = RunScenario(empty);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("trace_file"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(TraceFileScenarioTest, DiskBackedTraceCachePacksOnceAndReopens) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "spes_tf_cache").string();
  std::filesystem::remove_all(dir);

  TraceSpec spec;
  spec.source = TraceSpec::Source::kGenerator;
  spec.generator.num_functions = 150;
  spec.generator.days = 4;
  spec.generator.seed = 99;

  TraceCache cache(dir);
  const std::string packed = cache.EnsurePacked(spec).ValueOrDie();
  ASSERT_TRUE(std::filesystem::exists(packed));
  const auto first_write = std::filesystem::last_write_time(packed);

  // Get() serves the packed bytes and they are the realized trace exactly.
  const std::shared_ptr<const Trace> cached = cache.Get(spec).ValueOrDie();
  const Trace direct = RealizeTrace(spec).ValueOrDie();
  ASSERT_EQ(cached->num_functions(), direct.num_functions());
  for (size_t f = 0; f < direct.num_functions(); ++f) {
    ASSERT_EQ(cached->function(f).counts, direct.function(f).counts) << f;
    EXPECT_EQ(cached->function(f).meta.name, direct.function(f).meta.name);
  }

  // A second cache over the same directory reopens, never re-packs.
  TraceCache second(dir);
  (void)second.Get(spec).ValueOrDie();
  EXPECT_EQ(std::filesystem::last_write_time(packed), first_write);

  // OpenStream hands out a streaming source over the packed file whose
  // golden run matches the in-memory numbers.
  std::unique_ptr<TraceSource> streamed =
      cache.OpenStream(spec).ValueOrDie();
  ScenarioSpec scenario;
  scenario.policy = {"spes", {}};
  scenario.options = GoldenOptions();
  const ScenarioOutcome run =
      RunScenario(*streamed, scenario).ValueOrDie();
  EXPECT_EQ(run.outcome.metrics.total_cold_starts, 631u);
  EXPECT_EQ(SeriesSum(run.outcome.memory_series), 212568u);

  // Without a disk tier the pack entry points say so.
  TraceCache memory_only;
  const auto no_tier = memory_only.EnsurePacked(spec);
  ASSERT_FALSE(no_tier.ok());
  EXPECT_NE(no_tier.status().message().find("disk tier"),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(TraceFileScenarioTest, StreamedScenarioRejectsTransformChains) {
  const std::string path = PackGoldenToFile("spes_tf_transforms.spt");
  std::unique_ptr<TraceFileSource> source =
      OpenTraceFile(path).ValueOrDie();
  ScenarioSpec spec;
  spec.policy = {"spes", {}};
  spec.options = GoldenOptions();
  spec.trace.transforms.push_back({"load_scale", {{"factor", 2.0}}});
  const auto run = RunScenario(*source, spec);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(run.status().message().find("transform"), std::string::npos);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------
// Hostile input: every malformation is InvalidArgument with a message.
// ---------------------------------------------------------------------

/// A tiny but fully featured fleet: several functions, several blocks.
Trace SmallTrace() {
  GeneratorConfig config;
  config.num_functions = 12;
  config.days = 2;
  config.seed = 7;
  return std::move(GenerateTrace(config).ValueOrDie().trace);
}

void PokeU32(std::string* bytes, size_t offset, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    (*bytes)[offset + static_cast<size_t>(i)] =
        static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

void PokeU64(std::string* bytes, size_t offset, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[offset + static_cast<size_t>(i)] =
        static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

uint64_t PeekU64(const std::string& bytes, size_t offset) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(
                 static_cast<unsigned char>(bytes[offset + i]))
             << (8 * i);
  }
  return value;
}

/// Header offsets (see docs/trace_format.md): magic@0, version@8, flags@12,
/// num_minutes@16, block_minutes@20, num_functions@24, total@32,
/// table_offset@40, index_offset@48, blocks_offset@56, file_size@64.
constexpr size_t kOffVersion = 8;
constexpr size_t kOffFlags = 12;
constexpr size_t kOffNumMinutes = 16;
constexpr size_t kOffBlockMinutes = 20;
constexpr size_t kOffNumFunctions = 24;
constexpr size_t kOffIndexOffset = 48;
constexpr size_t kOffFileSize = 64;

void ExpectParseFails(std::string bytes, const char* what) {
  const auto parsed = TraceFileSource::FromBytes(std::move(bytes));
  ASSERT_FALSE(parsed.ok()) << what;
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << what;
  EXPECT_FALSE(parsed.status().message().empty()) << what;
}

TEST(TraceFileHostileTest, EveryTruncationFailsCleanly) {
  const std::string valid = PackToBytes(SmallTrace(), /*compress=*/true);
  // A representative sweep: empty, sub-header, header-only, mid-table,
  // mid-index, one byte short of complete.
  for (const size_t len :
       {size_t{0}, size_t{8}, size_t{71}, size_t{72}, size_t{100},
        valid.size() / 2, valid.size() - 1}) {
    ExpectParseFails(valid.substr(0, len), "truncated");
  }
}

TEST(TraceFileHostileTest, BadMagicVersionAndFlagsAreRejected) {
  const std::string valid = PackToBytes(SmallTrace(), /*compress=*/true);

  std::string bad_magic = valid;
  bad_magic[0] = 'X';
  ExpectParseFails(std::move(bad_magic), "magic");

  std::string bad_version = valid;
  PokeU32(&bad_version, kOffVersion, 99);
  ExpectParseFails(std::move(bad_version), "version");

  std::string bad_flags = valid;
  PokeU32(&bad_flags, kOffFlags, 0x4);
  ExpectParseFails(std::move(bad_flags), "flags");
}

TEST(TraceFileHostileTest, CorruptHeaderGeometryIsRejected) {
  const std::string valid = PackToBytes(SmallTrace(), /*compress=*/true);

  std::string zero_minutes = valid;
  PokeU32(&zero_minutes, kOffNumMinutes, 0);
  ExpectParseFails(std::move(zero_minutes), "num_minutes=0");

  std::string zero_block = valid;
  PokeU32(&zero_block, kOffBlockMinutes, 0);
  ExpectParseFails(std::move(zero_block), "block_minutes=0");

  // file_size lies about the actual image size.
  std::string wrong_size = valid;
  PokeU64(&wrong_size, kOffFileSize, valid.size() + 8);
  ExpectParseFails(std::move(wrong_size), "file_size");

  // More functions than the table can possibly hold: the per-entry
  // minimum size bound must catch it before any allocation.
  std::string fn_bomb = valid;
  PokeU64(&fn_bomb, kOffNumFunctions, uint64_t{1} << 32);
  ExpectParseFails(std::move(fn_bomb), "num_functions over u32");
  std::string fn_off_by_one = valid;
  PokeU64(&fn_off_by_one, kOffNumFunctions,
          PeekU64(valid, kOffNumFunctions) + 1);
  ExpectParseFails(std::move(fn_off_by_one), "num_functions+1");
}

TEST(TraceFileHostileTest, CorruptIndexEntriesAreRejected) {
  const std::string valid = PackToBytes(SmallTrace(), /*compress=*/true);
  const size_t index_offset =
      static_cast<size_t>(PeekU64(valid, kOffIndexOffset));

  // Index past EOF / overlapping blocks: any offset break violates the
  // contiguity invariant.
  std::string bad_offset = valid;
  PokeU64(&bad_offset, index_offset,
          PeekU64(valid, index_offset) + 1);
  ExpectParseFails(std::move(bad_offset), "index offset");

  // stored@+8: stored bytes that disagree with the layout shift every
  // later block off its recorded offset.
  std::string bad_stored = valid;
  PokeU32(&bad_stored, index_offset + 8, 0xffffffffu);
  ExpectParseFails(std::move(bad_stored), "stored bytes");

  // raw@+12: a decompression bomb claim over the hard cap.
  std::string bomb = valid;
  PokeU32(&bomb, index_offset + 12, (1u << 28) + 1);
  ExpectParseFails(std::move(bomb), "raw over cap");

  // codec@+16: unknown codec id.
  std::string bad_codec = valid;
  bad_codec[index_offset + 16] = 7;
  ExpectParseFails(std::move(bad_codec), "codec");
}

TEST(TraceFileHostileTest, CorruptBlockPayloadFailsAtDecodeTime) {
  // Raw blocks so payload offsets are stable; zero the first block's
  // bytes. Metadata still parses — the damage is only in the payload, so
  // Open succeeds and the *decode* must fail cleanly.
  const std::string valid = PackToBytes(SmallTrace(), /*compress=*/false);
  const size_t blocks_offset = static_cast<size_t>(PeekU64(valid, 56));
  std::string corrupt = valid;
  for (size_t i = blocks_offset; i < std::min(blocks_offset + 64, corrupt.size());
       ++i) {
    corrupt[i] = 0;
  }
  auto parsed = TraceFileSource::FromBytes(std::move(corrupt));
  ASSERT_TRUE(parsed.ok());
  std::unique_ptr<TraceFileSource> source = std::move(parsed).ValueOrDie();
  std::vector<std::vector<Invocation>> buckets;
  const Status decoded = source->FillArrivals(0, 16, &buckets);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(decoded.message().empty());

  // And the decoder surface stays sticky-failed instead of crashing.
  ArrivalDecoder decoder(source.get());
  EXPECT_TRUE(decoder.Decode(0).empty());
  EXPECT_FALSE(decoder.status().ok());
}

TEST(TraceFileHostileTest, GarbageAndEmptyImagesAreRejected) {
  ExpectParseFails(std::string(), "empty");
  ExpectParseFails(std::string(4096, '\xff'), "all 0xff");
  ExpectParseFails(std::string("SPESTRCF"), "magic only");
  std::string nulls(256, '\0');
  ExpectParseFails(std::move(nulls), "all zero");
}

// ---------------------------------------------------------------------
// Hardened varint primitives (common/binary_io.h extensions).
// ---------------------------------------------------------------------

TEST(VarintTest, RoundTripsBoundaryValues) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             (uint64_t{1} << 32) - 1,
                             uint64_t{1} << 32,
                             uint64_t{1} << 63,
                             ~uint64_t{0}};
  BinaryWriter writer;
  for (const uint64_t v : values) writer.PutVarU64(v);
  const std::string bytes = writer.Take();
  BinaryReader reader(bytes);
  for (const uint64_t v : values) {
    EXPECT_EQ(reader.VarU64().ValueOrDie(), v);
  }
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(VarintTest, RejectsOverflowAndNonMinimalForms) {
  {
    // 10 continuation groups followed by a value bit that overflows bit 64.
    const std::string overflow(
        "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02", 10);
    BinaryReader reader(overflow);
    const auto result = reader.VarU64();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // Eleven bytes of continuation: past the 10-byte maximum.
    const std::string runaway(11, '\x80');
    BinaryReader reader(runaway);
    EXPECT_FALSE(reader.VarU64().ok());
  }
  {
    // 0x80 0x00 encodes 0 in two bytes: non-minimal, must be rejected.
    const std::string padded("\x80\x00", 2);
    BinaryReader reader(padded);
    const auto result = reader.VarU64();
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("non-minimal"),
              std::string::npos);
  }
  {
    // Truncated mid-varint.
    const std::string cut("\x80", 1);
    BinaryReader reader(cut);
    EXPECT_FALSE(reader.VarU64().ok());
  }
}

TEST(VarintTest, VarU32AndVarBytesEnforceBounds) {
  BinaryWriter writer;
  writer.PutVarU64(uint64_t{1} << 33);
  const std::string too_big = writer.Take();
  BinaryReader reader(too_big);
  EXPECT_FALSE(reader.VarU32().ok());

  BinaryWriter ok_writer;
  ok_writer.PutVarBytes("hello");
  const std::string bytes = ok_writer.Take();
  BinaryReader bytes_reader(bytes);
  EXPECT_EQ(bytes_reader.VarBytes().ValueOrDie(), "hello");

  // Length prefix promising more than the buffer holds.
  BinaryWriter lying;
  lying.PutVarU64(1000);
  const std::string lie = lying.Take();
  BinaryReader lie_reader(lie);
  EXPECT_FALSE(lie_reader.VarBytes().ok());
}

}  // namespace
}  // namespace spes
