#include "runner/suite_runner.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/recorder.h"
#include "sim/scenario.h"
#include "trace/trace_source.h"

namespace spes {

namespace {

using Workloads = std::vector<Result<std::shared_ptr<const Trace>>>;

/// Moves a core outcome into its slot; an unlabeled slot takes the
/// policy's name.
void Fill(ScenarioOutcome run, JobResult* result) {
  result->outcome = std::move(run.outcome);
  result->policy = std::move(run.policy);
  result->cluster = std::move(run.cluster);
  if (result->label.empty()) {
    result->label = result->outcome.metrics.policy_name;
  }
}

/// True when two specs can be lanes of one stream: lanes share one
/// cursor and one engine, so every SimOptions field but the recorder
/// slot must agree.
bool SameSession(const SimOptions& a, const SimOptions& b) {
  return a.train_minutes == b.train_minutes && a.end_minute == b.end_minute &&
         a.latency == b.latency && a.recorder == b.recorder;
}

/// The thread pool behind both Run() forms.
std::vector<JobResult> RunPooled(const SuiteRunnerOptions& options,
                                 int num_threads,
                                 const std::vector<ScenarioSpec>& specs,
                                 Workloads workloads) {
  std::vector<JobResult> results(specs.size());
  if (specs.empty()) return results;

  // Work queue: an atomic cursor over slots. Each worker claims the next
  // slot, runs it to completion, and writes the result into its slot, so
  // result order never depends on scheduling.
  std::atomic<size_t> next{0};
  // Guarded by progress_mutex so callbacks see a monotonic count.
  size_t finished = 0;
  std::mutex progress_mutex;

  auto run_one = [&](size_t slot) {
    const ScenarioSpec& spec = specs[slot];
    JobResult& result = results[slot];
    result.label = spec.label;
    // Observability: every event this slot emits carries its slot index —
    // a logical id, so recorded traces are identical at any thread count.
    const ScopedSpan job_span(spec.options.recorder, "job",
                              static_cast<int>(slot), 0, spec.label);
    result.status = workloads[slot].status();
    if (result.status.ok()) {
      InMemoryTraceSource source(*workloads[slot].ValueOrDie());
      Result<std::vector<ScenarioOutcome>> run =
          scenario_internal::RunValidated(source, {&spec},
                                          static_cast<int>(slot));
      if (run.ok()) {
        Fill(std::move(run.ValueOrDie()[0]), &result);
      } else {
        result.status = run.status();
      }
    }
    if (options.progress) {
      std::lock_guard<std::mutex> lock(progress_mutex);
      options.progress(++finished, specs.size(), result);
    }
  };

  auto worker = [&] {
    while (true) {
      const size_t slot = next.fetch_add(1, std::memory_order_relaxed);
      if (slot >= specs.size()) return;
      run_one(slot);
    }
  };

  if (num_threads == 1) {
    worker();
    return results;
  }

  std::vector<std::thread> pool;
  pool.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return results;
}

}  // namespace

SuiteRunner::SuiteRunner(SuiteRunnerOptions options)
    : options_(std::move(options)) {}

int SuiteRunner::EffectiveThreads(size_t num_jobs) const {
  int threads = options_.num_threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  if (static_cast<size_t>(threads) > num_jobs) {
    threads = static_cast<int>(num_jobs);
  }
  return threads < 1 ? 1 : threads;
}

std::vector<JobResult> SuiteRunner::Run(
    const Trace& trace, const std::vector<ScenarioSpec>& specs) const {
  return RunPooled(options_, EffectiveThreads(specs.size()), specs,
                   scenario_internal::ResolveWorkloads(&trace, specs));
}

std::vector<JobResult> SuiteRunner::Run(
    const std::vector<ScenarioSpec>& specs) const {
  return RunPooled(options_, EffectiveThreads(specs.size()), specs,
                   scenario_internal::ResolveWorkloads(nullptr, specs));
}

std::vector<JobResult> SuiteRunner::RunLockstep(
    const Trace& trace, const std::vector<ScenarioSpec>& specs) const {
  std::vector<JobResult> results(specs.size());
  const Workloads workloads =
      scenario_internal::ResolveWorkloads(&trace, specs);

  // Group the healthy slots: specs over one workload with one session's
  // options become lanes of one stream; a cluster is a group of its own.
  std::vector<std::vector<size_t>> groups;
  for (size_t slot = 0; slot < specs.size(); ++slot) {
    const ScenarioSpec& spec = specs[slot];
    JobResult& result = results[slot];
    result.label = spec.label;
    result.status = workloads[slot].status();
    if (result.status.ok() && !spec.cluster.has_value()) {
      // A throwaway (untrained, so cheap) instance surfaces registry
      // errors here, so a bad spec fails its own slot, not its group.
      result.status = PolicyRegistry::Global().Create(spec.policy).status();
    }
    if (!result.status.ok()) continue;
    const auto joins = [&](const std::vector<size_t>& group) {
      const ScenarioSpec& lead = specs[group[0]];
      return !spec.cluster.has_value() && !lead.cluster.has_value() &&
             workloads[group[0]].ValueOrDie() ==
                 workloads[slot].ValueOrDie() &&
             SameSession(lead.options, spec.options);
    };
    const auto group = std::find_if(groups.begin(), groups.end(), joins);
    if (group == groups.end()) {
      groups.push_back({slot});
    } else {
      group->push_back(slot);
    }
  }

  size_t finished = 0;
  auto report = [&](size_t slot) {
    if (options_.progress) {
      options_.progress(++finished, specs.size(), results[slot]);
    }
  };
  // Failed slots report first, in slot order, so `finished` stays
  // monotonic over the whole batch.
  for (size_t slot = 0; slot < specs.size(); ++slot) {
    if (!results[slot].status.ok()) report(slot);
  }

  for (const std::vector<size_t>& group : groups) {
    std::vector<const ScenarioSpec*> lanes;
    lanes.reserve(group.size());
    for (size_t slot : group) lanes.push_back(&specs[slot]);
    // Recorded events from a shared lockstep stream carry the group's
    // first slot; lanes keep each member apart.
    InMemoryTraceSource source(*workloads[group[0]].ValueOrDie());
    Result<std::vector<ScenarioOutcome>> run =
        scenario_internal::RunValidated(source, lanes,
                                        static_cast<int>(group[0]));
    for (size_t k = 0; k < group.size(); ++k) {
      if (run.ok()) {
        Fill(std::move(run.ValueOrDie()[k]), &results[group[k]]);
      } else {
        results[group[k]].status = run.status();
      }
      report(group[k]);
    }
  }
  return results;
}

std::vector<FleetMetrics> CollectMetrics(
    const std::vector<JobResult>& results) {
  std::vector<FleetMetrics> metrics;
  metrics.reserve(results.size());
  for (const JobResult& result : results) {
    if (result.status.ok()) metrics.push_back(result.outcome.metrics);
  }
  return metrics;
}

}  // namespace spes
