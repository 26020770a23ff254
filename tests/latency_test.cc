// Latency subsystem unit tests: the model registry and its built-ins,
// the `<model> @ queue{...}` spec grammar, ConcurrencyQueue admission
// semantics (hand-computable with the constant model), LatencyLane
// determinism and save/restore, and the SimStream / ClusterSession
// integration including checkpoint round-trips. The seed-99 latency
// golden pins live in golden_metrics_test.cc.

#include "latency/latency.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/binary_io.h"
#include "common/rng.h"
#include "core/policy_registry.h"
#include "latency/latency_model.h"
#include "latency/queue.h"
#include "latency/reference_queue.h"
#include "policies/fixed_keepalive.h"
#include "sim/engine.h"
#include "sim/stream.h"
#include "trace/trace.h"
#include "tests/make_trace.h"

namespace spes {
namespace {

SimOptions Window(int train, const std::string& latency_block = "") {
  SimOptions options;
  options.train_minutes = train;
  if (!latency_block.empty()) {
    options.latency = ParseLatencySpec(latency_block).ValueOrDie();
  }
  return options;
}

// ---------------------------------------------------------------------
// LatencyModelRegistry + built-in models
// ---------------------------------------------------------------------

TEST(LatencyModelRegistryTest, ConstantDefaultsAndOverrides) {
  auto& registry = LatencyModelRegistry::Global();
  const auto defaults = registry.CreateFromString("constant").ValueOrDie();
  EXPECT_EQ(defaults->name(), "constant");
  EXPECT_EQ(defaults->SampleMs(true, 7), 1000.0);
  EXPECT_EQ(defaults->SampleMs(false, 7), 10.0);

  const auto tuned =
      registry.CreateFromString("constant{cold_ms=500,warm_ms=5}")
          .ValueOrDie();
  EXPECT_EQ(tuned->SampleMs(true, 99), 500.0);
  EXPECT_EQ(tuned->SampleMs(false, 99), 5.0);
}

TEST(LatencyModelRegistryTest, LognormalIsAPureFunctionOfTheKey) {
  const auto model =
      LatencyModelRegistry::Global().CreateFromString("lognormal")
          .ValueOrDie();
  const double warm = model->SampleMs(false, 42);
  EXPECT_EQ(model->SampleMs(false, 42), warm);  // no carried state
  EXPECT_NE(model->SampleMs(false, 43), warm);
  // Cold and warm are independent streams even at the same key.
  EXPECT_NE(model->SampleMs(true, 42), warm);
  EXPECT_GT(warm, 0.0);
}

TEST(LatencyModelRegistryTest, LognormalSigmaZeroDegeneratesToMedians) {
  const auto model = LatencyModelRegistry::Global()
                         .CreateFromString(
                             "lognormal{cold_median_ms=900,cold_sigma=0,"
                             "warm_median_ms=9,warm_sigma=0}")
                         .ValueOrDie();
  EXPECT_EQ(model->SampleMs(true, 1), 900.0);
  EXPECT_EQ(model->SampleMs(false, 2), 9.0);
}

TEST(LatencyModelRegistryTest, LognormalDrawsTheFirstVariateOfASeededRng) {
  // The definition the sampler must keep: median * exp(sigma * Z), with Z
  // the first Rng(key).Normal(0, 1) draw and cold keys salted.
  constexpr uint64_t kColdSalt = 0xc01d5742a5a1f00dULL;
  const auto model =
      LatencyModelRegistry::Global().CreateFromString("lognormal")
          .ValueOrDie();
  uint64_t state = 11;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t key = SplitMix64(&state);
    Rng warm_rng(key);
    const double warm = 8.0 * std::exp(0.3 * warm_rng.Normal(0.0, 1.0));
    Rng cold_rng(key ^ kColdSalt);
    const double cold = 800.0 * std::exp(0.5 * cold_rng.Normal(0.0, 1.0));
    ASSERT_EQ(std::bit_cast<uint64_t>(model->SampleMs(false, key)),
              std::bit_cast<uint64_t>(warm));
    ASSERT_EQ(std::bit_cast<uint64_t>(model->SampleMs(true, key)),
              std::bit_cast<uint64_t>(cold));
  }
}

TEST(LatencyModelRegistryTest, SampleMinuteMatchesPerRequestSampling) {
  // 5000 requests span several of lognormal's internal blocks plus a
  // remainder; cold and warm requests are interleaved at random.
  constexpr size_t kRequests = 5000;
  std::vector<uint64_t> keys(kRequests);
  std::vector<uint8_t> cold(kRequests);
  uint64_t state = 3;
  for (size_t i = 0; i < kRequests; ++i) {
    keys[i] = SplitMix64(&state);
    cold[i] = SplitMix64(&state) % 5 == 0 ? 1 : 0;
  }
  for (const char* text :
       {"constant", "constant{cold_ms=900,warm_ms=12}", "lognormal",
        "lognormal{cold_median_ms=1200,cold_sigma=1.5,warm_sigma=0}"}) {
    const auto model =
        LatencyModelRegistry::Global().CreateFromString(text).ValueOrDie();
    std::vector<double> batch(kRequests, -1.0);
    model->SampleMinute(keys.data(), cold.data(), kRequests, batch.data());
    for (size_t i = 0; i < kRequests; ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(batch[i]),
                std::bit_cast<uint64_t>(model->SampleMs(cold[i] != 0,
                                                        keys[i])))
          << text << " request " << i;
    }
  }
}

TEST(LatencyModelRegistryTest, UnknownModelListsAlternatives) {
  const auto result =
      LatencyModelRegistry::Global().CreateFromString("pareto");
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("constant"), std::string::npos);
  EXPECT_NE(result.status().message().find("lognormal"), std::string::npos);
}

TEST(LatencyModelRegistryTest, BadParametersNameTheField) {
  auto& registry = LatencyModelRegistry::Global();
  const auto unknown = registry.CreateFromString("constant{bogus=1}");
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.status().message().find("bogus"), std::string::npos);

  const auto negative = registry.CreateFromString("constant{cold_ms=-1}");
  EXPECT_FALSE(negative.ok());
  EXPECT_NE(negative.status().message().find("cold_ms"), std::string::npos);
}

TEST(LatencyModelRegistryTest, IntrospectionSurfacesTheBuiltins) {
  auto& registry = LatencyModelRegistry::Global();
  EXPECT_EQ(registry.Names(),
            (std::vector<std::string>{"constant", "lognormal"}));
  EXPECT_TRUE(registry.Contains("lognormal"));
  EXPECT_FALSE(registry.Contains("pareto"));
  const auto* entry = registry.Find("lognormal");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->params.size(), 4u);
  EXPECT_EQ(registry.Find("pareto"), nullptr);
}

// ---------------------------------------------------------------------
// LatencySpec grammar
// ---------------------------------------------------------------------

TEST(LatencySpecTest, ParseBareModelLeavesQueueOff) {
  const LatencySpec spec = ParseLatencySpec("constant").ValueOrDie();
  EXPECT_EQ(spec.model.name, "constant");
  EXPECT_EQ(spec.concurrency, 0);
  EXPECT_EQ(spec.queue_capacity, 0);
  EXPECT_EQ(spec.timeout_ms, 0.0);
  EXPECT_EQ(spec.seed, 0u);
  EXPECT_EQ(FormatLatencySpec(spec), "constant");
  EXPECT_TRUE(ValidateLatencySpec(spec).ok());
}

TEST(LatencySpecTest, ParseFullBlockRoundTrips) {
  const std::string text =
      "lognormal{cold_median_ms=900} @ "
      "queue{capacity=256,concurrency=16,seed=42,timeout_ms=2000}";
  const LatencySpec spec = ParseLatencySpec(text).ValueOrDie();
  EXPECT_EQ(spec.model.name, "lognormal");
  EXPECT_EQ(spec.concurrency, 16);
  EXPECT_EQ(spec.queue_capacity, 256);
  EXPECT_EQ(spec.timeout_ms, 2000.0);
  EXPECT_EQ(spec.seed, 42u);
  // Canonical form is a fixed point of format -> reparse.
  const std::string canonical = FormatLatencySpec(spec);
  const LatencySpec reparsed = ParseLatencySpec(canonical).ValueOrDie();
  EXPECT_EQ(reparsed, spec);
  EXPECT_EQ(FormatLatencySpec(reparsed), canonical);
  EXPECT_TRUE(ValidateLatencySpec(spec).ok());
}

TEST(LatencySpecTest, RejectsNonQueueBlockAfterAt) {
  const auto result = ParseLatencySpec("constant @ pool{concurrency=4}");
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("queue"), std::string::npos);
}

TEST(LatencySpecTest, RejectsUnknownQueueParameter) {
  const auto result = ParseLatencySpec("constant @ queue{burst=9}");
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("burst"), std::string::npos);
}

TEST(LatencySpecTest, ValidateRejectsQueueKnobsWithoutConcurrency) {
  const LatencySpec capacity_only =
      ParseLatencySpec("constant @ queue{capacity=10}").ValueOrDie();
  EXPECT_EQ(ValidateLatencySpec(capacity_only).code(),
            StatusCode::kInvalidArgument);
  const LatencySpec timeout_only =
      ParseLatencySpec("constant @ queue{timeout_ms=100}").ValueOrDie();
  EXPECT_EQ(ValidateLatencySpec(timeout_only).code(),
            StatusCode::kInvalidArgument);
}

TEST(LatencySpecTest, ValidateChecksCodeBuiltValuesAgainstTheQueueSchema) {
  // A spec built in code gets the domains the queue{...} parser enforces,
  // from the same declarations, and the message names the field.
  LatencySpec spec;
  spec.concurrency = 4;
  spec.timeout_ms = 2e9;
  Status status = ValidateLatencySpec(spec);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(
                "LatencySpec.timeout_ms must be in [0.0, 1e+09], got 2e+09"),
            std::string::npos)
      << status.message();
  spec.timeout_ms = std::nan("");
  EXPECT_EQ(ValidateLatencySpec(spec).code(), StatusCode::kInvalidArgument);
  spec.timeout_ms = 1e9;
  EXPECT_TRUE(ValidateLatencySpec(spec).ok());
  spec.queue_capacity = -1;
  status = ValidateLatencySpec(spec);
  EXPECT_NE(status.message().find("LatencySpec.queue_capacity must be in"),
            std::string::npos)
      << status.message();
  spec.queue_capacity = 0;
  spec.concurrency = -1;
  status = ValidateLatencySpec(spec);
  EXPECT_NE(status.message().find("LatencySpec.concurrency must be in"),
            std::string::npos)
      << status.message();
}

TEST(LatencySpecTest, ValidateRejectsUnknownModel) {
  LatencySpec spec;
  spec.model.name = "pareto";
  EXPECT_EQ(ValidateLatencySpec(spec).code(), StatusCode::kNotFound);
}

TEST(LatencySpecTest, QueueSchemaMatchesTheParser) {
  std::vector<std::string> names;
  for (const ParamSpec& param : LatencyQueueParamSchema()) {
    names.push_back(param.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"concurrency", "capacity",
                                             "timeout_ms", "seed"}));
}

// ---------------------------------------------------------------------
// ConcurrencyQueue admission semantics
// ---------------------------------------------------------------------

TEST(ConcurrencyQueueTest, UnlimitedSlotsAreAPassthrough) {
  ConcurrencyQueue queue;  // zero config: no limits
  for (int i = 0; i < 5; ++i) {
    const QueueOutcome out = queue.Offer(0.0, 100.0);
    EXPECT_EQ(out.admission, Admission::kServed);
    EXPECT_EQ(out.end_to_end_ms, 100.0);
  }
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(ConcurrencyQueueTest, SingleServerWaitAccumulates) {
  ConcurrencyQueue queue(QueueConfig{1, 0, 0.0});
  EXPECT_EQ(queue.Offer(0.0, 100.0).end_to_end_ms, 100.0);
  EXPECT_EQ(queue.Offer(0.0, 100.0).end_to_end_ms, 200.0);  // waits 100
  EXPECT_EQ(queue.Offer(0.0, 100.0).end_to_end_ms, 300.0);  // waits 200
  EXPECT_EQ(queue.depth(), 2u);  // two waiters, leaving at 100 and 200
  EXPECT_EQ(queue.DrainUntil(100.0), 1u);
  EXPECT_EQ(queue.DrainUntil(250.0), 0u);
}

TEST(ConcurrencyQueueTest, IdleServersAbsorbLateArrivals) {
  ConcurrencyQueue queue(QueueConfig{1, 0, 0.0});
  EXPECT_EQ(queue.Offer(0.0, 100.0).end_to_end_ms, 100.0);
  // Arrives after the server freed up: no wait.
  const QueueOutcome out = queue.Offer(150.0, 50.0);
  EXPECT_EQ(out.admission, Admission::kServed);
  EXPECT_EQ(out.end_to_end_ms, 50.0);
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(ConcurrencyQueueTest, WaitPastTimeoutAbandons) {
  ConcurrencyQueue queue(QueueConfig{1, 0, 150.0});
  EXPECT_EQ(queue.Offer(0.0, 100.0).admission, Admission::kServed);
  // Wait of 100 is tolerated...
  EXPECT_EQ(queue.Offer(0.0, 100.0).end_to_end_ms, 200.0);
  // ...a wait of 200 is not: the request abandons at t=150 without ever
  // occupying a server.
  const QueueOutcome out = queue.Offer(0.0, 100.0);
  EXPECT_EQ(out.admission, Admission::kTimedOut);
  EXPECT_EQ(queue.depth(), 2u);  // the waiter (until 100) + the abandoner
  EXPECT_EQ(queue.DrainUntil(150.0), 0u);
  // The abandoner never held a slot: a fourth request starts at 200.
  EXPECT_EQ(queue.Offer(160.0, 10.0).end_to_end_ms, 50.0);
}

TEST(ConcurrencyQueueTest, FullQueueSheds) {
  ConcurrencyQueue queue(QueueConfig{1, 1, 0.0});
  EXPECT_EQ(queue.Offer(0.0, 1000.0).admission, Admission::kServed);
  EXPECT_EQ(queue.Offer(0.0, 10.0).admission, Admission::kServed);
  EXPECT_EQ(queue.depth(), 1u);  // at capacity
  EXPECT_EQ(queue.Offer(0.0, 10.0).admission, Admission::kShed);
  // Once the waiter starts (t=1000), admission resumes.
  EXPECT_EQ(queue.Offer(1000.0, 10.0).admission, Admission::kServed);
}

TEST(ConcurrencyQueueTest, SerializeRoundTripsMidBurst) {
  ConcurrencyQueue queue(QueueConfig{2, 8, 500.0});
  for (int i = 0; i < 6; ++i) queue.Offer(static_cast<double>(i), 300.0);
  BinaryWriter writer;
  queue.SerializeTo(&writer);
  const std::string bytes = writer.Take();

  BinaryReader reader(bytes);
  ConcurrencyQueue restored = ConcurrencyQueue::ParseFrom(&reader).ValueOrDie();
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_TRUE(restored == queue);
  // The restored queue behaves identically, not just compares equal.
  const QueueOutcome a = queue.Offer(6.0, 300.0);
  const QueueOutcome b = restored.Offer(6.0, 300.0);
  EXPECT_EQ(a.admission, b.admission);
  EXPECT_EQ(a.end_to_end_ms, b.end_to_end_ms);
}

TEST(ConcurrencyQueueTest, ParseRejectsTruncatedAndCorruptBytes) {
  ConcurrencyQueue queue(QueueConfig{2, 4, 100.0});
  queue.Offer(0.0, 50.0);
  queue.Offer(0.0, 50.0);
  queue.Offer(0.0, 50.0);
  BinaryWriter writer;
  queue.SerializeTo(&writer);
  const std::string bytes = writer.Take();
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::string prefix = bytes.substr(0, len);
    BinaryReader reader(prefix);
    const auto result = ConcurrencyQueue::ParseFrom(&reader);
    EXPECT_FALSE(result.ok()) << "prefix of " << len << " bytes parsed";
    EXPECT_FALSE(result.status().message().empty());
  }
  // More busy servers than slots.
  ConcurrencyQueue busy(QueueConfig{3, 0, 0.0});
  busy.Offer(0.0, 10.0);
  busy.Offer(0.0, 10.0);
  BinaryWriter bad_writer;
  busy.SerializeTo(&bad_writer);
  std::string bad = bad_writer.Take();
  bad[0] = 1;  // concurrency 3 -> 1 (varint, single byte)
  BinaryReader reader(bad);
  const auto result = ConcurrencyQueue::ParseFrom(&reader);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("busy servers"),
            std::string::npos);
}

/// Queue-state bytes in the SerializeTo() layout, for hand-built states.
std::string QueueBytes(uint64_t concurrency, uint64_t capacity,
                       const std::vector<double>& finish_times,
                       const std::vector<double>& leave_times) {
  BinaryWriter writer;
  writer.PutVarU64(concurrency);
  writer.PutVarU64(capacity);
  writer.PutDouble(0.0);  // timeout_ms
  writer.PutVarU64(finish_times.size());
  for (double t : finish_times) writer.PutDouble(t);
  writer.PutVarU64(leave_times.size());
  for (double t : leave_times) writer.PutDouble(t);
  return writer.Take();
}

Status ParseQueueStatus(const std::string& bytes) {
  BinaryReader reader(bytes);
  return ConcurrencyQueue::ParseFrom(&reader).status();
}

void ExpectCorruptQueue(const std::string& bytes, const std::string& needle) {
  const Status status = ParseQueueStatus(bytes);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("wait queue"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find(needle), std::string::npos)
      << status.message();
}

TEST(ConcurrencyQueueTest, ParseRejectsWaitersWithUnlimitedConcurrency) {
  ExpectCorruptQueue(QueueBytes(0, 0, {}, {5.0}),
                     "concurrency is unlimited");
}

TEST(ConcurrencyQueueTest, ParseRejectsMoreWaitersThanCapacity) {
  ExpectCorruptQueue(QueueBytes(1, 2, {10.0}, {1.0, 2.0, 3.0}),
                     "more than capacity (=2)");
  // At capacity is a state Offer() reaches.
  EXPECT_TRUE(ParseQueueStatus(QueueBytes(1, 2, {10.0}, {1.0, 2.0})).ok());
}

TEST(ConcurrencyQueueTest, ParseRejectsWaitersBesideAnIdleServer) {
  ExpectCorruptQueue(QueueBytes(2, 0, {10.0}, {5.0}),
                     "(=1) busy servers of concurrency (=2)");
  // With every server busy, waiters are a state Offer() reaches.
  EXPECT_TRUE(ParseQueueStatus(QueueBytes(2, 0, {10.0, 12.0}, {5.0})).ok());
}

std::string SerializedQueue(const ConcurrencyQueue& queue) {
  BinaryWriter writer;
  queue.SerializeTo(&writer);
  return writer.Take();
}

// Offer()'s inline fast path and replace-top sift-down must be invisible:
// the same verdicts, bit for bit, and the same canonical state as the
// pop/push reference, on streams that idle, saturate, queue, shed and
// time out — including bursts that share one arrival instant.
TEST(ConcurrencyQueueTest, FastPathMatchesTheReferenceOnRandomStreams) {
  const int kConcurrency[] = {1, 8, 64, 0};
  const int kCapacity[] = {0, 4, 256};
  const double kTimeoutMs[] = {0.0, 250.0, 2000.0};
  const double kMeanServiceMs[] = {2.0, 40.0, 900.0};
  constexpr int kStreamsPerConfig = 300;  // 36 configs: 10,800 streams
  Rng rng(20241017);
  uint64_t counts[3] = {0, 0, 0};
  uint64_t waited = 0;
  uint64_t compared_states = 0;
  for (const int concurrency : kConcurrency) {
    for (const int capacity : kCapacity) {
      for (const double timeout_ms : kTimeoutMs) {
        const QueueConfig config{concurrency, capacity, timeout_ms};
        for (int stream = 0; stream < kStreamsPerConfig; ++stream) {
          ConcurrencyQueue fast(config);
          ConcurrencyQueue reference(config);
          const double mean_service =
              kMeanServiceMs[rng.UniformInt(0, 2)];
          const double mean_gap = rng.UniformDouble(0.5, 60.0);
          const int offers = static_cast<int>(rng.UniformInt(1, 300));
          double now = rng.UniformDouble(0.0, 5000.0);
          for (int i = 0; i < offers; ++i) {
            // Half the arrivals share the previous instant (bursts).
            if (rng.Bernoulli(0.5)) now += rng.Exponential(1.0 / mean_gap);
            double service = rng.Exponential(1.0 / mean_service);
            if (rng.Bernoulli(0.01)) service = rng.Bernoulli(0.5) ? 0.0 : -0.0;
            const QueueOutcome a = fast.Offer(now, service);
            const QueueOutcome b = ReferenceOffer(&reference, now, service);
            ASSERT_EQ(a.admission, b.admission)
                << "stream " << stream << " offer " << i;
            ASSERT_EQ(std::bit_cast<uint64_t>(a.end_to_end_ms),
                      std::bit_cast<uint64_t>(b.end_to_end_ms))
                << "stream " << stream << " offer " << i;
            ++counts[static_cast<int>(a.admission)];
            if (a.admission == Admission::kServed &&
                a.end_to_end_ms > service) {
              ++waited;
            }
            if (rng.Bernoulli(0.05)) {  // a random cut point
              ASSERT_EQ(SerializedQueue(fast), SerializedQueue(reference));
              ++compared_states;
            }
          }
          ASSERT_EQ(SerializedQueue(fast), SerializedQueue(reference));
          ASSERT_TRUE(fast == reference);
          const double later = now + rng.UniformDouble(0.0, 3000.0);
          ASSERT_EQ(fast.DrainUntil(later), reference.DrainUntil(later));
        }
      }
    }
  }
  // Every verdict and real queueing occurred, so both paths were driven.
  EXPECT_GT(counts[static_cast<int>(Admission::kServed)], 0u);
  EXPECT_GT(counts[static_cast<int>(Admission::kTimedOut)], 0u);
  EXPECT_GT(counts[static_cast<int>(Admission::kShed)], 0u);
  EXPECT_GT(waited, 0u);
  EXPECT_GT(compared_states, 10000u);
}

// ---------------------------------------------------------------------
// LatencyLane
// ---------------------------------------------------------------------

LatencySpec ConstantLaneSpec() {
  return ParseLatencySpec("constant").ValueOrDie();
}

std::shared_ptr<const std::vector<uint64_t>> TwoHashes() {
  return std::make_shared<const std::vector<uint64_t>>(
      std::vector<uint64_t>{0x1111, 0x2222});
}

TEST(LatencyLaneTest, ColdChargesOnlyTheArrivalsFirstRequest) {
  auto lane = CreateLatencyLane(ConstantLaneSpec(), TwoHashes()).ValueOrDie();
  // One cold arrival with 3 concurrent requests: SPES V-A says they share
  // the freshly started instance, so exactly one pays the cold start.
  lane->OnMinute(5, {{0, 3}}, {1});
  const LatencyOutcome outcome = lane->TakeOutcome();
  EXPECT_EQ(outcome.served, 3u);
  EXPECT_EQ(outcome.cold_served, 1u);
  EXPECT_EQ(outcome.timeouts, 0u);
  EXPECT_EQ(outcome.shed, 0u);
  // constant: one 1000ms draw + two 10ms draws, exact in the histogram.
  EXPECT_EQ(outcome.max_ms, 1000.0);
  EXPECT_EQ(outcome.mean_ms, 340.0);
  EXPECT_EQ(outcome.queue_depth_series, (std::vector<uint32_t>{0}));
  EXPECT_EQ(outcome.max_queue_depth, 0u);
}

TEST(LatencyLaneTest, WarmArrivalNeverSamplesCold) {
  auto lane = CreateLatencyLane(ConstantLaneSpec(), TwoHashes()).ValueOrDie();
  lane->OnMinute(0, {{0, 2}, {1, 1}}, {0, 0});
  const LatencyOutcome outcome = lane->TakeOutcome();
  EXPECT_EQ(outcome.served, 3u);
  EXPECT_EQ(outcome.cold_served, 0u);
  EXPECT_EQ(outcome.max_ms, 10.0);
}

TEST(LatencyLaneTest, IdenticalInputsGiveIdenticalOutcomes) {
  const LatencySpec spec =
      ParseLatencySpec(
          "lognormal @ queue{concurrency=2,capacity=8,timeout_ms=500,seed=7}")
          .ValueOrDie();
  auto a = CreateLatencyLane(spec, TwoHashes()).ValueOrDie();
  auto b = CreateLatencyLane(spec, TwoHashes()).ValueOrDie();
  for (int minute = 0; minute < 4; ++minute) {
    const std::vector<Invocation> arrivals = {{0, 40}, {1, 25}};
    const std::vector<uint8_t> cold = {static_cast<uint8_t>(minute == 0), 0};
    a->OnMinute(minute, arrivals, cold);
    b->OnMinute(minute, arrivals, cold);
    EXPECT_EQ(a->live(), b->live());
  }
  EXPECT_EQ(a->TakeOutcome(), b->TakeOutcome());
}

TEST(LatencyLaneTest, LiveTotalsTrackTheOutcome) {
  // 100 requests spread over one minute arrive every 600ms; at 2000ms
  // per service the single server falls behind and the 2-slot queue
  // starts shedding.
  const LatencySpec spec =
      ParseLatencySpec(
          "constant{cold_ms=2000,warm_ms=2000} @ "
          "queue{concurrency=1,capacity=2}")
          .ValueOrDie();
  auto lane = CreateLatencyLane(spec, TwoHashes()).ValueOrDie();
  lane->OnMinute(0, {{0, 100}}, {1});
  const LatencyLiveTotals live = lane->live();
  const LatencyOutcome outcome = lane->TakeOutcome();
  EXPECT_EQ(live.served, outcome.served);
  EXPECT_EQ(live.timeouts, outcome.timeouts);
  EXPECT_EQ(live.shed, outcome.shed);
  EXPECT_GT(outcome.shed, 0u);  // 100 requests, 1 slot, 2 queue slots
  EXPECT_EQ(outcome.offered(), 100u);
}

TEST(LatencyLaneTest, SaveRestoreResumesExactly) {
  const LatencySpec spec =
      ParseLatencySpec(
          "lognormal @ queue{concurrency=2,capacity=8,timeout_ms=500,seed=7}")
          .ValueOrDie();
  auto original = CreateLatencyLane(spec, TwoHashes()).ValueOrDie();
  const std::vector<Invocation> arrivals = {{0, 40}, {1, 25}};
  original->OnMinute(0, arrivals, {1, 1});
  original->OnMinute(1, arrivals, {0, 0});
  const std::string blob = original->SaveState();

  auto restored = CreateLatencyLane(spec, TwoHashes()).ValueOrDie();
  ASSERT_TRUE(restored->RestoreState(blob, 2).ok());
  original->OnMinute(2, arrivals, {0, 1});
  restored->OnMinute(2, arrivals, {0, 1});
  EXPECT_EQ(original->TakeOutcome(), restored->TakeOutcome());
}

TEST(LatencyLaneTest, RestoreValidatesTheBlob) {
  const LatencySpec spec = ConstantLaneSpec();
  auto lane = CreateLatencyLane(spec, TwoHashes()).ValueOrDie();
  lane->OnMinute(0, {{0, 2}}, {1});
  const std::string blob = lane->SaveState();

  auto target = CreateLatencyLane(spec, TwoHashes()).ValueOrDie();
  // Minute count mismatch: the blob covers 1 minute, not 5.
  const Status wrong_minutes = target->RestoreState(blob, 5);
  EXPECT_EQ(wrong_minutes.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wrong_minutes.message().find("minutes"), std::string::npos);
  // Queue config mismatch.
  const LatencySpec other =
      ParseLatencySpec("constant @ queue{concurrency=4}").ValueOrDie();
  auto other_lane = CreateLatencyLane(other, TwoHashes()).ValueOrDie();
  EXPECT_EQ(other_lane->RestoreState(blob, 1).code(),
            StatusCode::kInvalidArgument);
  // Truncations never parse.
  for (size_t len = 0; len < blob.size(); ++len) {
    EXPECT_FALSE(target->RestoreState(blob.substr(0, len), 1).ok());
  }
}

// ---------------------------------------------------------------------
// SimStream integration
// ---------------------------------------------------------------------

TEST(LatencyStreamTest, DisabledRunsCarryNoLatencyOutcome) {
  Trace trace = MakeTrace({{1, 0, 2, 0, 3, 0}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(1)).ValueOrDie();
  const SimulationOutcome outcome = stream.Finish().ValueOrDie();
  EXPECT_EQ(outcome.latency, nullptr);
}

TEST(LatencyStreamTest, EnabledRunsAccountEveryArrival) {
  Trace trace = MakeTrace({{1, 0, 2, 0, 3, 0}, {0, 1, 0, 1, 0, 1}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(1, "constant")).ValueOrDie();
  const SimulationOutcome outcome = stream.Finish().ValueOrDie();
  ASSERT_NE(outcome.latency, nullptr);
  // Simulated window is minutes 1..5: 5 arrivals on f0, 3 on f1.
  EXPECT_EQ(outcome.latency->offered(), 8u);
  EXPECT_EQ(outcome.latency->served, 8u);
  EXPECT_EQ(outcome.latency->timeouts, 0u);
  EXPECT_EQ(outcome.latency->shed, 0u);
  EXPECT_EQ(outcome.latency->histogram.TotalCount(), 8u);
  EXPECT_EQ(outcome.latency->queue_depth_series.size(), 5u);
  EXPECT_EQ(outcome.metrics.total_invocations, 8u);
  // Cold-served mirrors the engine's cold-start accounting: each cold
  // arrival-minute pays exactly one cold draw.
  EXPECT_EQ(outcome.latency->cold_served, outcome.metrics.total_cold_starts);
}

TEST(LatencyStreamTest, LatencyPathDoesNotPerturbAccounting) {
  Trace trace = MakeTrace({{2, 0, 1, 3, 0, 1, 0, 2}, {1, 1, 0, 0, 2, 0, 1, 0}});
  FixedKeepAlivePolicy plain_policy(3);
  FixedKeepAlivePolicy latency_policy(3);
  SimStream plain =
      SimStream::Create(trace, &plain_policy, Window(2)).ValueOrDie();
  SimStream with_latency =
      SimStream::Create(trace, &latency_policy,
                        Window(2, "lognormal @ queue{concurrency=1,"
                                  "timeout_ms=50,seed=3}"))
          .ValueOrDie();
  const SimulationOutcome a = plain.Finish().ValueOrDie();
  const SimulationOutcome b = with_latency.Finish().ValueOrDie();
  EXPECT_EQ(a.metrics.total_invocations, b.metrics.total_invocations);
  EXPECT_EQ(a.metrics.total_cold_starts, b.metrics.total_cold_starts);
  EXPECT_EQ(a.memory_series, b.memory_series);
  EXPECT_EQ(a.accounts.size(), b.accounts.size());
  for (size_t f = 0; f < a.accounts.size(); ++f) {
    EXPECT_EQ(a.accounts[f].invocations, b.accounts[f].invocations) << f;
    EXPECT_EQ(a.accounts[f].cold_starts, b.accounts[f].cold_starts) << f;
  }
}

TEST(LatencyStreamTest, CreateRejectsABadLatencyBlock) {
  Trace trace = MakeTrace({{1, 0, 1}});
  FixedKeepAlivePolicy policy(2);
  SimOptions options = Window(0);
  options.latency = LatencySpec{};
  options.latency->model.name = "pareto";
  const auto stream = SimStream::Create(trace, &policy, options);
  EXPECT_FALSE(stream.ok());
  EXPECT_NE(stream.status().message().find("pareto"), std::string::npos);
}

TEST(LatencyStreamTest, LockstepLanesShareTheDecodeAndSampleAlike) {
  Trace trace = MakeTrace({{1, 2, 0, 3, 1, 0}, {0, 1, 1, 0, 2, 1}});
  FixedKeepAlivePolicy a(2), b(2);
  SimStream stream =
      SimStream::Create(trace, {&a, &b}, Window(1, "constant")).ValueOrDie();
  const std::vector<SimulationOutcome> outcomes =
      stream.FinishAll().ValueOrDie();
  ASSERT_EQ(outcomes.size(), 2u);
  ASSERT_NE(outcomes[0].latency, nullptr);
  ASSERT_NE(outcomes[1].latency, nullptr);
  // Identical policies see identical cold flags, so the whole latency
  // outcome matches lane for lane.
  EXPECT_EQ(*outcomes[0].latency, *outcomes[1].latency);
}

TEST(LatencyStreamTest, CheckpointRoundTripsThroughBytes) {
  Trace trace = MakeTrace({{2, 1, 0, 3, 1, 0, 2, 1, 0, 4},
                           {0, 1, 2, 0, 1, 2, 0, 1, 2, 0}});
  const std::string block =
      "lognormal @ queue{concurrency=1,capacity=4,timeout_ms=200,seed=5}";
  FixedKeepAlivePolicy original_policy(2);
  SimStream original =
      SimStream::Create(trace, &original_policy, Window(1, block))
          .ValueOrDie();
  ASSERT_TRUE(original.RunUntil(5).ok());
  const SimCheckpoint checkpoint = original.Checkpoint().ValueOrDie();
  ASSERT_EQ(checkpoint.lanes.size(), 1u);
  EXPECT_FALSE(checkpoint.lanes[0].latency_state.empty());
  const std::string bytes = SerializeCheckpoint(checkpoint);
  const SimCheckpoint parsed = ParseCheckpoint(bytes).ValueOrDie();

  FixedKeepAlivePolicy resumed_policy(2);
  SimStream resumed =
      SimStream::Create(trace, &resumed_policy, Window(1, block))
          .ValueOrDie();
  ASSERT_TRUE(resumed.Restore(parsed).ok());
  const SimulationOutcome from_start = original.Finish().ValueOrDie();
  const SimulationOutcome from_restore = resumed.Finish().ValueOrDie();
  ASSERT_NE(from_start.latency, nullptr);
  ASSERT_NE(from_restore.latency, nullptr);
  EXPECT_EQ(*from_start.latency, *from_restore.latency);
  EXPECT_EQ(from_start.metrics.total_cold_starts, from_restore.metrics.total_cold_starts);
  EXPECT_EQ(from_start.memory_series, from_restore.memory_series);
}

TEST(LatencyStreamTest, DisabledCheckpointsStayLatencyFree) {
  Trace trace = MakeTrace({{1, 0, 2, 0, 3, 0}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(1)).ValueOrDie();
  ASSERT_TRUE(stream.RunUntil(3).ok());
  const SimCheckpoint checkpoint = stream.Checkpoint().ValueOrDie();
  ASSERT_EQ(checkpoint.lanes.size(), 1u);
  EXPECT_TRUE(checkpoint.lanes[0].latency_state.empty());
  // And the byte form still parses (version-1 layout).
  const SimCheckpoint parsed =
      ParseCheckpoint(SerializeCheckpoint(checkpoint)).ValueOrDie();
  EXPECT_TRUE(parsed.lanes[0].latency_state.empty());
}

TEST(LatencyStreamTest, RestoreRejectsALatencyMismatch) {
  Trace trace = MakeTrace({{1, 0, 2, 0, 3, 0}});
  FixedKeepAlivePolicy with_policy(2);
  SimStream with_latency =
      SimStream::Create(trace, &with_policy, Window(1, "constant"))
          .ValueOrDie();
  ASSERT_TRUE(with_latency.RunUntil(3).ok());
  const SimCheckpoint checkpoint = with_latency.Checkpoint().ValueOrDie();

  FixedKeepAlivePolicy without_policy(2);
  SimStream without_latency =
      SimStream::Create(trace, &without_policy, Window(1)).ValueOrDie();
  const Status mismatch = without_latency.Restore(checkpoint);
  EXPECT_EQ(mismatch.code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// ClusterSession integration
// ---------------------------------------------------------------------

Trace MakeFleet(int functions, int minutes) {
  std::vector<std::vector<uint32_t>> rows;
  for (int f = 0; f < functions; ++f) {
    std::vector<uint32_t> row;
    row.reserve(static_cast<size_t>(minutes));
    for (int t = 0; t < minutes; ++t) {
      row.push_back(static_cast<uint32_t>((t + f) % 3 == 0 ? 2 : 1));
    }
    rows.push_back(std::move(row));
  }
  return MakeTrace(std::move(rows));
}

TEST(LatencyClusterTest, PerNodeOutcomesMergeExactlyIntoTheFleet) {
  const Trace trace = MakeFleet(8, 40);
  ClusterSession session =
      ClusterSession::Create(
          trace, ClusterSpec{2, 0, {"hash", {}}, {}},
          ParsePolicySpec("fixed_keepalive{minutes=10}").ValueOrDie(),
          Window(2, "constant @ queue{concurrency=2,capacity=16,"
                    "timeout_ms=5000}"))
          .ValueOrDie();
  const ClusterOutcome outcome = session.Finish().ValueOrDie();
  ASSERT_NE(outcome.fleet.latency, nullptr);
  uint64_t served = 0, timeouts = 0, shed = 0;
  FixedBucketHistogram merged;
  for (const NodeOutcome& node : outcome.nodes) {
    ASSERT_NE(node.sim.latency, nullptr);
    served += node.sim.latency->served;
    timeouts += node.sim.latency->timeouts;
    shed += node.sim.latency->shed;
    merged.Merge(node.sim.latency->histogram);
  }
  EXPECT_EQ(outcome.fleet.latency->served, served);
  EXPECT_EQ(outcome.fleet.latency->timeouts, timeouts);
  EXPECT_EQ(outcome.fleet.latency->shed, shed);
  EXPECT_EQ(outcome.fleet.latency->histogram, merged);
  EXPECT_EQ(outcome.fleet.latency->offered(),
            outcome.fleet.metrics.total_invocations);
  // Fleet depth series sums the per-node series minute by minute.
  EXPECT_EQ(outcome.fleet.latency->queue_depth_series.size(), 38u);
}

TEST(LatencyClusterTest, SingleNodeClusterMatchesAPlainStream) {
  const Trace trace = MakeFleet(4, 30);
  const std::string block =
      "lognormal @ queue{concurrency=2,capacity=8,timeout_ms=300,seed=11}";
  ClusterSession session =
      ClusterSession::Create(
          trace, ClusterSpec{},
          ParsePolicySpec("fixed_keepalive{minutes=10}").ValueOrDie(),
          Window(2, block))
          .ValueOrDie();
  const ClusterOutcome cluster = session.Finish().ValueOrDie();

  FixedKeepAlivePolicy policy(10);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(2, block)).ValueOrDie();
  const SimulationOutcome plain = stream.Finish().ValueOrDie();
  ASSERT_NE(cluster.fleet.latency, nullptr);
  ASSERT_NE(plain.latency, nullptr);
  EXPECT_EQ(*cluster.fleet.latency, *plain.latency);
}

TEST(LatencyClusterTest, CheckpointRoundTripsThroughBytes) {
  const Trace trace = MakeFleet(8, 60);
  const ClusterSpec cluster{3, 0, {"hash", {}}, {}};
  const PolicySpec policy =
      ParsePolicySpec("fixed_keepalive{minutes=10}").ValueOrDie();
  const SimOptions options =
      Window(2, "lognormal @ queue{concurrency=1,capacity=4,"
                "timeout_ms=200,seed=5}");
  ClusterSession original =
      ClusterSession::Create(trace, cluster, policy, options).ValueOrDie();
  ASSERT_TRUE(original.RunUntil(30).ok());
  const ClusterCheckpoint checkpoint = original.Checkpoint().ValueOrDie();
  ASSERT_EQ(checkpoint.nodes.size(), 3u);
  for (const auto& node : checkpoint.nodes) {
    EXPECT_FALSE(node.latency_state.empty());
  }
  const std::string bytes = SerializeClusterCheckpoint(checkpoint);
  const ClusterCheckpoint parsed =
      ParseClusterCheckpoint(bytes).ValueOrDie();

  ClusterSession resumed =
      ClusterSession::Create(trace, cluster, policy, options).ValueOrDie();
  ASSERT_TRUE(resumed.Restore(parsed).ok());
  const ClusterOutcome from_start = original.Finish().ValueOrDie();
  const ClusterOutcome from_restore = resumed.Finish().ValueOrDie();
  ASSERT_NE(from_start.fleet.latency, nullptr);
  ASSERT_NE(from_restore.fleet.latency, nullptr);
  EXPECT_EQ(*from_start.fleet.latency, *from_restore.fleet.latency);
  ASSERT_EQ(from_start.nodes.size(), from_restore.nodes.size());
  for (size_t i = 0; i < from_start.nodes.size(); ++i) {
    ASSERT_NE(from_start.nodes[i].sim.latency, nullptr);
    ASSERT_NE(from_restore.nodes[i].sim.latency, nullptr);
    EXPECT_EQ(*from_start.nodes[i].sim.latency,
              *from_restore.nodes[i].sim.latency)
        << "node " << i;
    EXPECT_EQ(from_start.nodes[i].sim.metrics.total_cold_starts,
              from_restore.nodes[i].sim.metrics.total_cold_starts);
  }
  EXPECT_EQ(from_start.reroutes, from_restore.reroutes);
}

TEST(LatencyClusterTest, CheckpointParseRejectsCorruptBytes) {
  const Trace trace = MakeFleet(4, 20);
  ClusterSession session =
      ClusterSession::Create(
          trace, ClusterSpec{2, 0, {"hash", {}}, {}},
          ParsePolicySpec("fixed_keepalive{minutes=10}").ValueOrDie(),
          Window(2, "constant"))
          .ValueOrDie();
  ASSERT_TRUE(session.RunUntil(10).ok());
  const std::string bytes =
      SerializeClusterCheckpoint(session.Checkpoint().ValueOrDie());
  EXPECT_FALSE(ParseClusterCheckpoint("").ok());
  EXPECT_FALSE(ParseClusterCheckpoint(bytes.substr(0, 4)).ok());
  EXPECT_FALSE(ParseClusterCheckpoint(bytes.substr(0, bytes.size() / 2)).ok());
  EXPECT_FALSE(ParseClusterCheckpoint(bytes + "x").ok());
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  const auto result = ParseClusterCheckpoint(bad_magic);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(LatencyClusterTest, RestoreRejectsACheckpointFromAnotherShape) {
  const Trace trace = MakeFleet(4, 20);
  const PolicySpec policy =
      ParsePolicySpec("fixed_keepalive{minutes=10}").ValueOrDie();
  ClusterSession two_nodes =
      ClusterSession::Create(trace, ClusterSpec{2, 0, {"hash", {}}, {}},
                             policy, Window(2, "constant"))
          .ValueOrDie();
  ASSERT_TRUE(two_nodes.RunUntil(10).ok());
  const ClusterCheckpoint checkpoint = two_nodes.Checkpoint().ValueOrDie();

  ClusterSession three_nodes =
      ClusterSession::Create(trace, ClusterSpec{3, 0, {"hash", {}}, {}},
                             policy, Window(2, "constant"))
          .ValueOrDie();
  EXPECT_EQ(three_nodes.Restore(checkpoint).code(),
            StatusCode::kInvalidArgument);

  ClusterSession no_latency =
      ClusterSession::Create(trace, ClusterSpec{2, 0, {"hash", {}}, {}},
                             policy, Window(2))
          .ValueOrDie();
  EXPECT_EQ(no_latency.Restore(checkpoint).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace spes
