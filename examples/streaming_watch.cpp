// Streaming engine tour: drive a simulation minute-by-minute instead of
// run-to-completion — watch it live through observers, stop it early on a
// predicate, checkpoint it mid-window, resume the checkpoint in a fresh
// stream, and race several policies in lockstep over ONE trace walk.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/streaming_watch

#include <cstdio>
#include <string>

#include "metrics/report.h"
#include "runner/suite_runner.h"
#include "sim/observers.h"
#include "sim/scenario.h"
#include "sim/stream.h"
#include "trace/generator.h"

int main() {
  using namespace spes;

  // A small fleet: 2 days of training, 1 day simulated.
  GeneratorConfig generator;
  generator.num_functions = 400;
  generator.days = 3;
  generator.seed = 7;
  const Trace trace =
      RealizeTrace(TraceSpec::FromGenerator(generator)).ValueOrDie();

  ScenarioSpec scenario;
  scenario.options.train_minutes = 2 * kMinutesPerDay;
  scenario.policy = {"spes", {}};

  // ---------------------------------------------------------------------
  // 1. Observe a run in flight: progress lines every 6 simulated hours,
  //    plus an hourly time-series capture rendered as a table afterwards.
  // ---------------------------------------------------------------------
  std::printf("== 1. observed run ==\n");
  ProgressObserver progress(6 * 60);
  TimeSeriesObserver hourly(60);
  scenario.observers = {&progress, &hourly};
  const ScenarioOutcome watched = RunScenario(trace, scenario).ValueOrDie();
  std::printf("\nhourly timeline (first 6 samples):\n");
  Table timeline = BuildTimelineTable(
      {"SPES"}, {{hourly.series()[0].begin(), hourly.series()[0].begin() + 6}});
  timeline.Print();
  std::printf("full run: %llu cold starts\n\n",
              static_cast<unsigned long long>(
                  watched.outcome.metrics.total_cold_starts));
  scenario.observers.clear();

  // ---------------------------------------------------------------------
  // 2. Early stop: halt as soon as the fleet pays 300 cold starts, then
  //    read the partial-window metrics.
  // ---------------------------------------------------------------------
  std::printf("== 2. early stop ==\n");
  CallbackObserver stop_at_300_cold([](const MinuteView& view) {
    return view.totals.cold_starts < 300;  // false => halt the stream
  });
  // Driving a run by hand means opening its SimStream directly over a
  // registry-built policy.
  const std::unique_ptr<Policy> stopped_policy =
      PolicyRegistry::Global().Create(scenario.policy).ValueOrDie();
  SimStream open =
      SimStream::Create(trace, stopped_policy.get(), scenario.options)
          .ValueOrDie();
  open.AddObserver(&stop_at_300_cold);
  // An observer stop surfaces as Cancelled — the partial outcome is
  // still available through Finish().
  const Status run = open.RunToEnd();
  if (!run.ok() && run.code() != StatusCode::kCancelled) run.CheckOK();
  std::printf("stopped early: %s, cursor at minute %d of [%d, %d)\n",
              open.stopped_early() ? "yes" : "no", open.cursor(),
              open.start_minute(), open.end_minute());
  const SimulationOutcome partial = open.Finish().ValueOrDie();
  std::printf("partial window: %llu cold starts over %zu minutes\n\n",
              static_cast<unsigned long long>(
                  partial.metrics.total_cold_starts),
              partial.memory_series.size());

  // ---------------------------------------------------------------------
  // 3. Checkpoint mid-window, serialize to bytes, resume in a new stream.
  // ---------------------------------------------------------------------
  std::printf("== 3. checkpoint / resume ==\n");
  const std::unique_ptr<Policy> first_policy =
      PolicyRegistry::Global().Create(scenario.policy).ValueOrDie();
  SimStream first =
      SimStream::Create(trace, first_policy.get(), scenario.options)
          .ValueOrDie();
  const int midpoint =
      first.start_minute() + (first.end_minute() - first.start_minute()) / 2;
  first.RunUntil(midpoint).CheckOK();
  const std::string bytes =
      SerializeCheckpoint(first.Checkpoint().ValueOrDie());
  std::printf("checkpointed at minute %d (%zu bytes)\n", first.cursor(),
              bytes.size());

  const std::unique_ptr<Policy> resumed_policy =
      PolicyRegistry::Global().Create(scenario.policy).ValueOrDie();
  SimStream resumed =
      SimStream::Create(trace, resumed_policy.get(), scenario.options)
          .ValueOrDie();
  resumed.Restore(ParseCheckpoint(bytes).ValueOrDie()).CheckOK();
  const SimulationOutcome resumed_outcome = resumed.Finish().ValueOrDie();
  const SimulationOutcome full_outcome =
      first.Finish().ValueOrDie();  // the original, run to the end
  const bool resume_matches =
      resumed_outcome.metrics.total_cold_starts ==
          full_outcome.metrics.total_cold_starts &&
      resumed_outcome.memory_series == full_outcome.memory_series;
  std::printf("resumed run matches the uninterrupted one: %s\n\n",
              resume_matches ? "yes" : "NO — BUG");
  if (!resume_matches) {
    std::fprintf(stderr, "BUG: checkpoint resume diverged from the "
                         "uninterrupted run\n");
    return 1;  // let CI smoke runs fail on stream-vs-batch drift
  }

  // ---------------------------------------------------------------------
  // 4. Lockstep: race SPES against two baselines over ONE trace walk.
  // ---------------------------------------------------------------------
  std::printf("== 4. lockstep multi-policy ==\n");
  std::vector<ScenarioSpec> lanes(3, scenario);
  lanes[1].policy = ParsePolicySpec("fixed_keepalive{minutes=10}").ValueOrDie();
  lanes[2].policy = {"oracle", {}};
  const std::vector<JobResult> raced = SuiteRunner().RunLockstep(trace, lanes);
  Table race({"policy", "Q3-CSR", "avg memory", "cold starts"});
  for (const JobResult& lane : raced) {
    lane.status.CheckOK();
    const FleetMetrics& m = lane.outcome.metrics;
    race.AddRow({m.policy_name, FormatDouble(m.q3_csr, 4),
                 FormatDouble(m.average_memory, 1),
                 std::to_string(m.total_cold_starts)});
  }
  race.Print();
  return 0;
}
