// SimStream unit tests: incremental stepping semantics, observer hooks
// and early stop, checkpoint/restore (including the serialized byte
// form and its failure modes), lockstep multi-policy lanes, and the
// observer contract (observers see committed minutes only, on streams,
// lockstep groups and clusters). The bitwise streaming-vs-batch
// equivalence on the golden fleet lives in golden_metrics_test.cc.

#include "sim/stream.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "policies/fixed_keepalive.h"
#include "policies/oracle.h"
#include "sim/engine.h"
#include "sim/observers.h"
#include "tests/make_trace.h"

namespace spes {
namespace {

SimOptions Window(int train, int end = 0) {
  SimOptions options;
  options.train_minutes = train;
  options.end_minute = end;
  return options;
}

const std::vector<SimCheckpoint::Lane>& LaneRecords(const SimCheckpoint& c) {
  return c.lanes;
}
const std::vector<ClusterCheckpoint::Node>& LaneRecords(
    const ClusterCheckpoint& c) {
  return c.nodes;
}

// Snapshots every lane of `session` from inside OnMinute, the way any
// observer may, and records each way the snapshot is not a committed
// minute: the checkpoint cursor must be past the minute, every lane
// record must satisfy the outcome identities and match its live totals,
// and on a SimStream SnapshotMetrics must agree with the view's totals.
template <typename Session>
class CommittedMinuteProbe : public SimObserver {
 public:
  explicit CommittedMinuteProbe(const Session* session) : session_(session) {}

  bool OnMinute(const MinuteView& view) override {
    ++calls_;
    const std::string at = "minute " + std::to_string(view.minute) +
                           ", lane " + std::to_string(view.lane) + ": ";
    const auto checkpoint = session_->Checkpoint();
    if (!checkpoint.ok()) {
      failures_.push_back(at + checkpoint.status().ToString());
      return true;
    }
    if (checkpoint.ValueOrDie().cursor != view.minute + 1) {
      failures_.push_back(at + "checkpoint cursor " +
                          std::to_string(checkpoint.ValueOrDie().cursor));
    }
    const auto& records = LaneRecords(checkpoint.ValueOrDie());
    for (size_t k = 0; k < records.size(); ++k) {
      const LaneCheckpoint& lane = records[k];
      SimulationOutcome snapshot;
      snapshot.accounts = lane.accounts;
      snapshot.memory_series = lane.memory_series;
      snapshot.metrics = ComputeFleetMetrics(lane.policy_name, lane.accounts,
                                             lane.memory_series, 0.0);
      const std::string where = at + "snapshot of lane " + std::to_string(k);
      const Status invariants = CheckOutcomeInvariants(snapshot);
      if (!invariants.ok()) {
        failures_.push_back(where + ": " + invariants.ToString());
      }
      if (snapshot.metrics.wasted_memory_minutes !=
              lane.totals.wasted_memory_minutes ||
          snapshot.metrics.loaded_instance_minutes !=
              lane.totals.loaded_instance_minutes) {
        failures_.push_back(where + ": accounts disagree with live totals");
      }
    }
    if constexpr (requires { session_->SnapshotMetrics(size_t{0}); }) {
      const FleetMetrics metrics = session_->SnapshotMetrics(view.lane);
      if (metrics.wasted_memory_minutes != view.totals.wasted_memory_minutes ||
          metrics.loaded_instance_minutes !=
              view.totals.loaded_instance_minutes) {
        failures_.push_back(at + "SnapshotMetrics wasted " +
                            std::to_string(metrics.wasted_memory_minutes) +
                            ", view totals " +
                            std::to_string(view.totals.wasted_memory_minutes));
      }
    }
    return true;
  }

  [[nodiscard]] int calls() const { return calls_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  const Session* session_;
  int calls_ = 0;
  std::vector<std::string> failures_;
};

TEST(SimStreamTest, StepAdvancesCursorAndStopsAtEnd) {
  Trace trace = MakeTrace({{1, 0, 1, 0, 1, 0}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(1)).ValueOrDie();
  EXPECT_EQ(stream.cursor(), 1);
  EXPECT_EQ(stream.start_minute(), 1);
  EXPECT_EQ(stream.end_minute(), 6);
  EXPECT_FALSE(stream.done());

  EXPECT_TRUE(stream.Step().ok());
  EXPECT_EQ(stream.cursor(), 2);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(stream.Step().ok());
  EXPECT_TRUE(stream.done());
  EXPECT_EQ(stream.minutes_decoded(), 5);

  const Status past_end = stream.Step();
  EXPECT_EQ(past_end.code(), StatusCode::kOutOfRange);
  EXPECT_NE(past_end.message().find("end_minute (=6)"), std::string::npos);
}

TEST(SimStreamTest, RunUntilClampsAndIsIdempotent) {
  Trace trace = MakeTrace({{1, 0, 1, 0, 1, 0, 1, 0}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(0)).ValueOrDie();
  EXPECT_TRUE(stream.RunUntil(3).ok());
  EXPECT_EQ(stream.cursor(), 3);
  // At or before the cursor: a no-op, not an error.
  EXPECT_TRUE(stream.RunUntil(2).ok());
  EXPECT_EQ(stream.cursor(), 3);
  // Past the end: clamps.
  EXPECT_TRUE(stream.RunUntil(1000).ok());
  EXPECT_EQ(stream.cursor(), 8);
  EXPECT_TRUE(stream.done());
}

TEST(SimStreamTest, CreateRejectsNullAndDuplicateLanes) {
  Trace trace = MakeTrace({{1, 0, 1}});
  FixedKeepAlivePolicy policy(2);

  const auto null_single = SimStream::Create(trace, nullptr, Window(0));
  EXPECT_EQ(null_single.status().code(), StatusCode::kInvalidArgument);

  const auto null_lane = SimStream::Create(
      trace, std::vector<Policy*>{&policy, nullptr}, Window(0));
  EXPECT_NE(null_lane.status().message().find("lane 1"), std::string::npos);

  const auto duplicate = SimStream::Create(
      trace, std::vector<Policy*>{&policy, &policy}, Window(0));
  EXPECT_EQ(duplicate.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(duplicate.status().message().find("distinct"), std::string::npos);

  const auto empty =
      SimStream::Create(trace, std::vector<Policy*>{}, Window(0));
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
}

TEST(SimStreamTest, FinishOnMultiLaneStreamIsAnError) {
  Trace trace = MakeTrace({{1, 0, 1}});
  FixedKeepAlivePolicy a(2), b(3);
  SimStream stream =
      SimStream::Create(trace, {&a, &b}, Window(0)).ValueOrDie();
  const auto outcome = stream.Finish();
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(outcome.status().message().find("FinishAll"), std::string::npos);
}

TEST(SimStreamTest, FinishConsumesTheStream) {
  Trace trace = MakeTrace({{1, 0, 1}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(0)).ValueOrDie();
  EXPECT_TRUE(stream.Finish().ok());
  EXPECT_TRUE(stream.done());
  EXPECT_EQ(stream.Finish().status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(stream.Step().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(stream.Checkpoint().status().code(), StatusCode::kOutOfRange);
}

TEST(SimStreamTest, ObserverSeesEveryMinuteInOrder) {
  Trace trace = MakeTrace({{1, 1, 0, 2, 0, 1}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(1)).ValueOrDie();

  std::vector<int> minutes;
  std::vector<uint64_t> cumulative_invocations;
  CallbackObserver observer([&](const MinuteView& view) {
    minutes.push_back(view.minute);
    cumulative_invocations.push_back(view.totals.invocations);
    EXPECT_EQ(view.lane, 0u);
    EXPECT_EQ(view.policy->name(), "Fixed-2min");
    return true;
  });
  stream.AddObserver(&observer);
  EXPECT_TRUE(stream.RunToEnd().ok());

  EXPECT_EQ(minutes, (std::vector<int>{1, 2, 3, 4, 5}));
  // Arrivals after training: t=1 (1), t=3 (2), t=5 (1), cumulatively.
  EXPECT_EQ(cumulative_invocations,
            (std::vector<uint64_t>{1, 1, 3, 3, 4}));
}

TEST(SimStreamTest, StreamStartAndEndHooksFire) {
  Trace trace = MakeTrace({{1, 0, 1, 0}, {0, 1, 0, 1}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(1, 3)).ValueOrDie();

  struct Recorder : SimObserver {
    StreamInfo info;
    int starts = 0;
    int ends = 0;
    uint64_t final_invocations = 0;
    void OnStreamStart(const StreamInfo& i) override {
      info = i;
      ++starts;
    }
    void OnStreamEnd(size_t lane, const SimulationOutcome& out) override {
      EXPECT_EQ(lane, 0u);
      final_invocations = out.metrics.total_invocations;
      ++ends;
    }
  } recorder;
  stream.AddObserver(&recorder);
  EXPECT_TRUE(stream.Finish().ok());

  EXPECT_EQ(recorder.starts, 1);
  EXPECT_EQ(recorder.ends, 1);
  EXPECT_EQ(recorder.info.train_minutes, 1);
  EXPECT_EQ(recorder.info.start_minute, 1);
  EXPECT_EQ(recorder.info.end_minute, 3);
  EXPECT_EQ(recorder.info.num_lanes, 1u);
  EXPECT_EQ(recorder.info.num_functions, 2u);
  EXPECT_EQ(recorder.final_invocations, 2u);  // t=1 (f1), t=2 (f0)
}

TEST(SimStreamTest, ZeroStepStreamStillPairsStartAndEndHooks) {
  // train == horizon: a valid empty window. Observers must still get
  // their OnStreamStart sizing hook before OnStreamEnd.
  Trace trace = MakeTrace({{1, 1, 1}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(3)).ValueOrDie();
  TimeSeriesObserver capture(1);
  int ends = 0;
  struct EndCounter : SimObserver {
    int* ends;
    explicit EndCounter(int* e) : ends(e) {}
    void OnStreamEnd(size_t, const SimulationOutcome&) override {
      ++*ends;
    }
  } end_counter(&ends);
  stream.AddObserver(&capture);
  stream.AddObserver(&end_counter);
  const SimulationOutcome outcome = stream.Finish().ValueOrDie();
  EXPECT_TRUE(outcome.memory_series.empty());
  // The capture is sized (one empty lane), not left unallocated.
  ASSERT_EQ(capture.series().size(), 1u);
  EXPECT_TRUE(capture.series()[0].empty());
  EXPECT_EQ(ends, 1);
}

TEST(SimStreamTest, ObserverEarlyStopHaltsAfterTheCurrentMinute) {
  Trace trace = MakeTrace({{1, 1, 1, 1, 1, 1}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(0)).ValueOrDie();
  CallbackObserver stop_at_minute_2(
      [](const MinuteView& view) { return view.minute < 2; });
  stream.AddObserver(&stop_at_minute_2);
  // The unreached target is signalled, distinguishably from exhaustion.
  EXPECT_EQ(stream.RunToEnd().code(), StatusCode::kCancelled);
  EXPECT_TRUE(stream.stopped_early());
  EXPECT_TRUE(stream.done());
  EXPECT_EQ(stream.cursor(), 3);  // minute 2 completed, then halted

  const SimulationOutcome outcome = stream.Finish().ValueOrDie();
  EXPECT_EQ(outcome.memory_series.size(), 3u);
  EXPECT_EQ(outcome.metrics.total_invocations, 3u);
}

TEST(SimStreamTest, EarlyStopSignalsCancelledFromStepAndRunUntilAlike) {
  // Regression test: RunUntil/RunToEnd used to return OK after an
  // observer stop while Step() returned OutOfRange. Both now report
  // Cancelled, and a reached target stays a no-op OK.
  Trace trace = MakeTrace({{1, 1, 1, 1, 1, 1}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(0)).ValueOrDie();
  CallbackObserver stop_at_minute_1(
      [](const MinuteView& view) { return view.minute < 1; });
  stream.AddObserver(&stop_at_minute_1);
  EXPECT_EQ(stream.RunToEnd().code(), StatusCode::kCancelled);
  EXPECT_EQ(stream.Step().code(), StatusCode::kCancelled);
  EXPECT_EQ(stream.RunUntil(stream.end_minute()).code(),
            StatusCode::kCancelled);
  // A target at or before the cursor is still a successful no-op.
  EXPECT_TRUE(stream.RunUntil(stream.cursor()).ok());
  // Exhaustion (not an early stop) still reads OutOfRange.
  SimulationOutcome ignored = stream.Finish().ValueOrDie();
  (void)ignored;
  EXPECT_EQ(stream.Step().code(), StatusCode::kOutOfRange);
}

TEST(SimStreamTest, RequestStopHaltsTheStream) {
  Trace trace = MakeTrace({{1, 1, 1, 1}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(0)).ValueOrDie();
  EXPECT_TRUE(stream.Step().ok());
  stream.RequestStop();
  EXPECT_TRUE(stream.done());
  EXPECT_EQ(stream.Step().code(), StatusCode::kCancelled);
  const SimulationOutcome outcome = stream.Finish().ValueOrDie();
  EXPECT_EQ(outcome.memory_series.size(), 1u);
}

TEST(SimStreamTest, SnapshotMetricsTracksThePartialWindow) {
  Trace trace = MakeTrace({{1, 1, 1, 1, 1, 1}});
  FixedKeepAlivePolicy policy(10);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(0)).ValueOrDie();
  EXPECT_TRUE(stream.RunUntil(2).ok());
  const FleetMetrics snapshot = stream.SnapshotMetrics(0);
  EXPECT_EQ(snapshot.total_invocations, 2u);
  EXPECT_EQ(snapshot.total_cold_starts, 1u);  // only the t=0 arrival
  // The stream keeps running after a snapshot.
  EXPECT_TRUE(stream.RunToEnd().ok());
  EXPECT_EQ(stream.SnapshotMetrics(0).total_invocations, 6u);
}

TEST(SimStreamTest, LockstepLanesMatchIndividualRunsAndDecodeOnce) {
  Trace trace = MakeTrace({{1, 1, 0, 2, 0, 1, 1, 0},
                           {0, 1, 1, 0, 0, 1, 0, 1},
                           {1, 0, 0, 0, 1, 0, 0, 0}});
  const SimOptions options = Window(2);

  FixedKeepAlivePolicy solo_fixed(2);
  OraclePolicy solo_oracle;
  const SimulationOutcome batch_fixed =
      Simulate(trace, &solo_fixed, options).ValueOrDie();
  const SimulationOutcome batch_oracle =
      Simulate(trace, &solo_oracle, options).ValueOrDie();

  FixedKeepAlivePolicy lane_fixed(2);
  OraclePolicy lane_oracle;
  SimStream stream =
      SimStream::Create(trace, {&lane_fixed, &lane_oracle}, options)
          .ValueOrDie();
  EXPECT_EQ(stream.num_lanes(), 2u);
  const std::vector<SimulationOutcome> outcomes =
      stream.FinishAll().ValueOrDie();

  // One shared decode per minute, not one per lane.
  EXPECT_EQ(stream.minutes_decoded(), 6);

  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].memory_series, batch_fixed.memory_series);
  EXPECT_EQ(outcomes[1].memory_series, batch_oracle.memory_series);
  for (size_t f = 0; f < 3; ++f) {
    EXPECT_EQ(outcomes[0].accounts[f].cold_starts,
              batch_fixed.accounts[f].cold_starts);
    EXPECT_EQ(outcomes[1].accounts[f].cold_starts,
              batch_oracle.accounts[f].cold_starts);
  }
}

TEST(SimStreamTest, LockstepObserverSeesEveryLane) {
  Trace trace = MakeTrace({{1, 0, 1, 0}});
  FixedKeepAlivePolicy a(1), b(3);
  SimStream stream =
      SimStream::Create(trace, {&a, &b}, Window(1)).ValueOrDie();
  std::vector<std::pair<int, size_t>> seen;  // (minute, lane)
  CallbackObserver observer([&](const MinuteView& view) {
    seen.emplace_back(view.minute, view.lane);
    return true;
  });
  stream.AddObserver(&observer);
  EXPECT_TRUE(stream.FinishAll().ok());
  EXPECT_EQ(seen, (std::vector<std::pair<int, size_t>>{
                      {1, 0}, {1, 1}, {2, 0}, {2, 1}, {3, 0}, {3, 1}}));
}

TEST(SimStreamTest, CheckpointRequiresCheckpointablePolicies) {
  // An anonymous policy without checkpoint support.
  class OpaquePolicy : public Policy {
   public:
    std::string name() const override { return "Opaque"; }
    void Train(const Trace&, int) override {}
    void OnMinute(int, const std::vector<Invocation>&, MemSet*) override {}
  };
  Trace trace = MakeTrace({{1, 0, 1}});
  FixedKeepAlivePolicy fixed(2);
  OpaquePolicy opaque;
  SimStream stream =
      SimStream::Create(trace, {&fixed, &opaque}, Window(0)).ValueOrDie();
  const auto checkpoint = stream.Checkpoint();
  EXPECT_EQ(checkpoint.status().code(), StatusCode::kNotImplemented);
  EXPECT_NE(checkpoint.status().message().find("Opaque"), std::string::npos);
  EXPECT_NE(checkpoint.status().message().find("lane 1"), std::string::npos);
}

TEST(SimStreamTest, CheckpointRestoreResumesExactly) {
  Trace trace = MakeTrace({{1, 1, 0, 2, 0, 1, 1, 0},
                           {0, 1, 1, 0, 0, 1, 0, 1}});
  const SimOptions options = Window(1);

  FixedKeepAlivePolicy reference_policy(2);
  const SimulationOutcome reference =
      Simulate(trace, &reference_policy, options).ValueOrDie();

  FixedKeepAlivePolicy original(2);
  SimStream first =
      SimStream::Create(trace, &original, options).ValueOrDie();
  EXPECT_TRUE(first.RunUntil(4).ok());
  const SimCheckpoint checkpoint = first.Checkpoint().ValueOrDie();
  EXPECT_EQ(checkpoint.cursor, 4);

  FixedKeepAlivePolicy fresh(2);
  SimStream second = SimStream::Create(trace, &fresh, options).ValueOrDie();
  EXPECT_TRUE(second.Restore(checkpoint).ok());
  EXPECT_EQ(second.cursor(), 4);
  const SimulationOutcome resumed = second.Finish().ValueOrDie();

  EXPECT_EQ(resumed.memory_series, reference.memory_series);
  for (size_t f = 0; f < 2; ++f) {
    EXPECT_EQ(resumed.accounts[f].invocations,
              reference.accounts[f].invocations);
    EXPECT_EQ(resumed.accounts[f].cold_starts,
              reference.accounts[f].cold_starts);
    EXPECT_EQ(resumed.accounts[f].loaded_minutes,
              reference.accounts[f].loaded_minutes);
    EXPECT_EQ(resumed.accounts[f].wasted_minutes,
              reference.accounts[f].wasted_minutes);
  }
}

TEST(SimStreamTest, SerializedCheckpointRoundTrips) {
  Trace trace = MakeTrace({{1, 1, 0, 2, 0, 1}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(0)).ValueOrDie();
  EXPECT_TRUE(stream.RunUntil(3).ok());
  const SimCheckpoint checkpoint = stream.Checkpoint().ValueOrDie();
  const std::string bytes = SerializeCheckpoint(checkpoint);

  const SimCheckpoint parsed = ParseCheckpoint(bytes).ValueOrDie();
  EXPECT_EQ(parsed.cursor, checkpoint.cursor);
  EXPECT_EQ(parsed.train_minutes, checkpoint.train_minutes);
  EXPECT_EQ(parsed.end_minute, checkpoint.end_minute);
  EXPECT_EQ(parsed.num_functions, checkpoint.num_functions);
  ASSERT_EQ(parsed.lanes.size(), 1u);
  EXPECT_EQ(parsed.lanes[0].policy_name, "Fixed-2min");
  EXPECT_EQ(parsed.lanes[0].memory_series,
            checkpoint.lanes[0].memory_series);
  EXPECT_EQ(parsed.lanes[0].loaded, checkpoint.lanes[0].loaded);
  EXPECT_EQ(parsed.lanes[0].policy_state, checkpoint.lanes[0].policy_state);

  FixedKeepAlivePolicy fresh(2);
  SimStream resumed =
      SimStream::Create(trace, &fresh, Window(0)).ValueOrDie();
  EXPECT_TRUE(resumed.Restore(parsed).ok());
  EXPECT_EQ(resumed.cursor(), 3);
  EXPECT_TRUE(resumed.Finish().ok());
}

TEST(SimStreamTest, ParseCheckpointRejectsCorruptBytes) {
  EXPECT_EQ(ParseCheckpoint("").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseCheckpoint("definitely not a checkpoint").status().code(),
            StatusCode::kInvalidArgument);

  Trace trace = MakeTrace({{1, 0, 1}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(0)).ValueOrDie();
  EXPECT_TRUE(stream.Step().ok());
  std::string bytes = SerializeCheckpoint(stream.Checkpoint().ValueOrDie());
  // Truncation is detected, never UB.
  const std::string truncated = bytes.substr(0, bytes.size() / 2);
  EXPECT_EQ(ParseCheckpoint(truncated).status().code(),
            StatusCode::kInvalidArgument);
  // Trailing garbage is rejected too.
  EXPECT_EQ(ParseCheckpoint(bytes + "x").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SimStreamTest, ParseCheckpointRejectsAnUnpinnedWindow) {
  Trace trace = MakeTrace({{1, 0, 1}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(0)).ValueOrDie();
  EXPECT_TRUE(stream.Step().ok());
  std::string bytes = SerializeCheckpoint(stream.Checkpoint().ValueOrDie());
  // The execution pin byte follows the magic (an 8-byte length and
  // "SPESCKPT"), the version and cursor/train_minutes/end_minute.
  constexpr size_t kPinByte = 8 + 8 + 4 + 3 * 4;
  ASSERT_EQ(bytes[kPinByte], '\x01');
  bytes[kPinByte] = '\x00';
  const Status status = ParseCheckpoint(bytes).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("execution pin flag (=false)"),
            std::string::npos)
      << status.message();
}

TEST(SimStreamTest, RestoreRejectsAccountsBreakingTheWasteIdentity) {
  Trace trace = MakeTrace({{1, 1, 0, 2, 0, 1}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(0)).ValueOrDie();
  EXPECT_TRUE(stream.RunUntil(4).ok());
  const SimCheckpoint checkpoint = stream.Checkpoint().ValueOrDie();
  const FunctionAccount& acc = checkpoint.lanes[0].accounts[0];
  ASSERT_EQ(acc.wasted_minutes + acc.invoked_minutes, acc.loaded_minutes);

  // More waste than idle loaded minutes, and more invoked than loaded
  // minutes (a derived waste would underflow).
  SimCheckpoint extra_waste = checkpoint;
  extra_waste.lanes[0].accounts[0].wasted_minutes += 1;
  SimCheckpoint extra_invoked = checkpoint;
  extra_invoked.lanes[0].accounts[0].invoked_minutes =
      acc.loaded_minutes + 1;
  for (const SimCheckpoint* tampered : {&extra_waste, &extra_invoked}) {
    FixedKeepAlivePolicy fresh(2);
    SimStream other =
        SimStream::Create(trace, &fresh, Window(0)).ValueOrDie();
    const Status status =
        other.Restore(ParseCheckpoint(SerializeCheckpoint(*tampered))
                          .ValueOrDie());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("checkpoint lane 0 function (=0)"),
              std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("wasted_minutes"), std::string::npos);
  }
}

TEST(SimStreamTest, RestoreValidatesShapeAndLineup) {
  Trace trace = MakeTrace({{1, 1, 0, 2, 0, 1}});
  FixedKeepAlivePolicy policy(2);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(1)).ValueOrDie();
  EXPECT_TRUE(stream.RunUntil(3).ok());
  const SimCheckpoint checkpoint = stream.Checkpoint().ValueOrDie();

  {
    // Different window.
    FixedKeepAlivePolicy p(2);
    SimStream other = SimStream::Create(trace, &p, Window(2)).ValueOrDie();
    const Status status = other.Restore(checkpoint);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("train_minutes (=1)"),
              std::string::npos);
  }
  {
    // Different policy line-up.
    OraclePolicy oracle;
    SimStream other =
        SimStream::Create(trace, &oracle, Window(1)).ValueOrDie();
    const Status status = other.Restore(checkpoint);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("Fixed-2min"), std::string::npos);
  }
  {
    // Different fleet size.
    Trace small = MakeTrace({{1, 1, 0, 2, 0, 1}, {0, 0, 1, 0, 1, 0}});
    FixedKeepAlivePolicy p(2);
    SimStream other = SimStream::Create(small, &p, Window(1)).ValueOrDie();
    const Status status = other.Restore(checkpoint);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("num_functions"), std::string::npos);
  }
  {
    // Mismatching policy parameters: caught by the lane name check (the
    // fixed keep-alive's name embeds its window).
    FixedKeepAlivePolicy p(5);
    SimStream other = SimStream::Create(trace, &p, Window(1)).ValueOrDie();
    const Status status = other.Restore(checkpoint);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("Fixed-2min"), std::string::npos);
    EXPECT_NE(status.message().find("Fixed-5min"), std::string::npos);
  }
}

TEST(SimStreamTest, PolicyRestoreStateRejectsMismatchedFleetSize) {
  // A blob saved from a different fleet must be rejected, not indexed
  // out of bounds by the next OnMinute.
  FixedKeepAlivePolicy saved(2), target(2);
  Trace small = MakeTrace({{1, 0, 1}});
  Trace large = MakeTrace({{1, 0, 1}, {0, 1, 0}});
  saved.Train(small, 0);
  target.Train(large, 0);
  const Status status =
      target.RestoreState(saved.SaveState().ValueOrDie());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("(=1)"), std::string::npos);
  EXPECT_NE(status.message().find("(=2)"), std::string::npos);
}

TEST(SimStreamTest, PolicyRestoreStateRejectsMismatchedParameters) {
  // Drive RestoreState directly: the blob pins the keep-alive window it
  // was saved with.
  FixedKeepAlivePolicy saved(2), target(5);
  Trace trace = MakeTrace({{1, 0, 1}});
  saved.Train(trace, 0);
  target.Train(trace, 0);
  const std::string blob = saved.SaveState().ValueOrDie();
  const Status status = target.RestoreState(blob);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("(=2)"), std::string::npos);
  EXPECT_NE(status.message().find("(=5)"), std::string::npos);
}

TEST(SimStreamTest, TimeSeriesObserverCapturesStridedSamples) {
  Trace trace = MakeTrace({{1, 1, 1, 1, 1, 1, 1, 1}});
  FixedKeepAlivePolicy policy(10);
  SimStream stream =
      SimStream::Create(trace, &policy, Window(2)).ValueOrDie();
  TimeSeriesObserver capture(3);
  stream.AddObserver(&capture);
  EXPECT_TRUE(stream.Finish().ok());
  ASSERT_EQ(capture.series().size(), 1u);
  const std::vector<MinuteSample>& samples = capture.series()[0];
  ASSERT_EQ(samples.size(), 2u);  // minutes 2 and 5
  EXPECT_EQ(samples[0].minute, 2);
  EXPECT_EQ(samples[1].minute, 5);
  EXPECT_EQ(samples[1].invocations, 4u);
  EXPECT_EQ(samples[0].loaded_instances, 1u);
}

// ProgressObserver reads wall time only through its injectable clock, so
// the stride, the throttle and the final report are checked without
// sleeping.
double g_fake_seconds = 0.0;
double FakeSeconds() { return g_fake_seconds; }

/// Drives a ProgressObserver over a two-lane, 10-minute window whose wall
/// clock advances 2 s per simulated minute, and returns the simulated
/// minutes it reported, parsed from its output lines.
std::vector<int> ReportedMinutes(int every_minutes, double min_wall_seconds) {
  std::FILE* out = std::tmpfile();
  if (out == nullptr) {
    ADD_FAILURE() << "tmpfile failed";
    return {};
  }
  ProgressObserver progress(every_minutes, out, min_wall_seconds,
                            &FakeSeconds);
  StreamInfo info;
  info.start_minute = 10;
  info.end_minute = 20;
  info.num_lanes = 2;
  g_fake_seconds = 100.0;
  progress.OnStreamStart(info);
  FixedKeepAlivePolicy policy(2);
  MemSet mem(4);
  for (int minute = 10; minute < 20; ++minute) {
    g_fake_seconds += 2.0;
    for (size_t lane = 0; lane < 2; ++lane) {
      MinuteView view;
      view.minute = minute;
      view.lane = lane;
      view.policy = &policy;
      view.mem = &mem;
      EXPECT_TRUE(progress.OnMinute(view));
    }
  }
  std::rewind(out);
  std::vector<int> reported;
  char line[256];
  while (std::fgets(line, sizeof(line), out) != nullptr) {
    int simulated = 0;
    int window = 0;
    EXPECT_EQ(std::sscanf(line, "minute %d/%d", &simulated, &window), 2)
        << line;
    EXPECT_EQ(window, 10) << line;
    reported.push_back(simulated);
  }
  std::fclose(out);
  return reported;
}

TEST(ProgressObserverTest, ReportsLaneZeroOnTheStrideAndTheFinalMinute) {
  // Lane 1 never reports; minute 10 is off the stride of 3 but final.
  EXPECT_EQ(ReportedMinutes(3, 0.0), (std::vector<int>{3, 6, 9, 10}));
}

TEST(ProgressObserverTest, WallThrottleSkipsReportsButNeverTheFinalOne) {
  // The stride proposes minutes 2, 4, 6, 8 and 10. At 2 s per minute a
  // 5 s throttle keeps every other one; the final minute reports although
  // only 4 s have passed since minute 8.
  EXPECT_EQ(ReportedMinutes(2, 5.0), (std::vector<int>{4, 8, 10}));
}


// One function that arrives at minute 1 only. Its arrival loads it at
// minute 1, so a snapshot taken before the minute is committed would
// count its invoked minute but not its loaded one (wasted = -1).
Trace ProbeTrace() { return MakeTrace({{0, 1, 0, 0}}); }

TEST(ObserverContractTest, StreamObserversSeeCommittedMinutes) {
  const Trace trace = ProbeTrace();
  FixedKeepAlivePolicy policy(2);
  SimStream stream = SimStream::Create(trace, &policy, Window(0)).ValueOrDie();
  CommittedMinuteProbe<SimStream> probe(&stream);
  stream.AddObserver(&probe);
  const SimulationOutcome outcome = stream.Finish().ValueOrDie();
  EXPECT_TRUE(CheckOutcomeInvariants(outcome).ok());
  EXPECT_EQ(probe.calls(), 4);
  EXPECT_EQ(probe.failures(), std::vector<std::string>{});
}

TEST(ObserverContractTest, LockstepObserversSeeEveryLaneCommitted) {
  const Trace trace = ProbeTrace();
  FixedKeepAlivePolicy a(2), b(2);
  SimStream stream =
      SimStream::Create(trace, std::vector<Policy*>{&a, &b}, Window(0))
          .ValueOrDie();
  CommittedMinuteProbe<SimStream> probe(&stream);
  stream.AddObserver(&probe);
  ASSERT_TRUE(stream.FinishAll().ok());
  EXPECT_EQ(probe.calls(), 8);
  EXPECT_EQ(probe.failures(), std::vector<std::string>{});
}

TEST(ObserverContractTest, CappedClusterObserversSeeEveryNodeCommitted) {
  const Trace trace = ProbeTrace();
  ClusterSpec cluster;
  cluster.nodes = 2;
  cluster.node_capacity = 1;
  cluster.router = {"locality", {}};
  auto created = ClusterSession::Create(
      trace, cluster, PolicySpec{"fixed_keepalive", {{"minutes", 2}}},
      Window(0));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ClusterSession session = std::move(created).ValueOrDie();
  CommittedMinuteProbe<ClusterSession> probe(&session);
  session.AddObserver(&probe);
  const ClusterOutcome outcome = session.Finish().ValueOrDie();
  EXPECT_TRUE(CheckOutcomeInvariants(outcome).ok());
  EXPECT_EQ(probe.calls(), 8);
  EXPECT_EQ(probe.failures(), std::vector<std::string>{});
}

}  // namespace
}  // namespace spes
