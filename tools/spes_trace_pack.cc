// spes_trace_pack: convert a trace source into the packed binary trace
// format (trace/trace_file.h) and optionally verify / simulate it through
// the streaming path.
//
// The generator source is packed function by function through
// GenerateTraceStreamed, so the full trace never exists in memory — an
// Azure-scale million-function fleet packs in ~1 GiB of RSS (the
// encoded payload), not the ~22 GiB its dense minute matrix would take.
//
// Usage:
//   spes_trace_pack --out=fleet.spt [flags]
//
// Source selection (default: generator):
//   --source=generator|csv     --csv-dir=DIR (csv source)
//   --functions=N --days=N --seed=N --rare-fraction=F (generator source)
//
// Format knobs:
//   --no-compress              store blocks raw
//   --block-minutes=N          block granularity (default 256)
//
// Post-pack actions:
//   --verify                   stream-decode the whole file and check the
//                              per-function and total invocation counts
//                              against the index/header
//   --simulate                 run a streamed scenario over the packed
//                              file and print its fleet metrics
//   --policy=SPEC              policy for --simulate (default "spes")
//   --train-days=N             train window for --simulate (default
//                              days - 2)
//   --run-log=FILE             record the --simulate run as a schema-
//                              versioned JSONL run log (obs/run_log.h);
//                              analyze it with spes_report
//
// Every run prints size/ratio stats; on Linux the peak RSS (VmHWM) is
// reported so out-of-core claims are checkable.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/recorder.h"
#include "obs/run_log.h"
#include "sim/scenario.h"
#include "trace/azure_csv.h"
#include "trace/generator.h"
#include "trace/trace_file.h"

namespace {

using namespace spes;

struct Args {
  std::string source = "generator";
  std::string csv_dir;
  std::string out;
  int functions = 4000;
  int days = 14;
  uint64_t seed = 20240317;
  double rare_fraction = 0.0;
  bool compress = true;
  int block_minutes = 256;
  bool verify = false;
  bool simulate = false;
  std::string policy = "spes";
  int train_days = -1;
  std::string run_log;
};

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --out=FILE [--source=generator|csv] [--csv-dir=DIR]\n"
               "       [--functions=N] [--days=N] [--seed=N]\n"
               "       [--rare-fraction=F] [--no-compress]\n"
               "       [--block-minutes=N] [--verify] [--simulate]\n"
               "       [--policy=SPEC] [--train-days=N] [--run-log=FILE]\n",
               argv0);
  return 2;
}

/// Linux peak RSS in KiB from /proc/self/status (0 when unavailable).
long PeakRssKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

void PrintStats(const TraceFileStats& stats) {
  const double mib = 1024.0 * 1024.0;
  std::printf("packed: %llu functions x %u minutes, %llu invocations\n",
              static_cast<unsigned long long>(stats.num_functions),
              stats.num_minutes,
              static_cast<unsigned long long>(stats.total_invocations));
  std::printf(
      "  file %.2f MiB (metadata %.2f MiB, payload %.2f MiB stored / "
      "%.2f MiB raw)\n",
      static_cast<double>(stats.file_bytes) / mib,
      static_cast<double>(stats.metadata_bytes) / mib,
      static_cast<double>(stats.payload_stored_bytes) / mib,
      static_cast<double>(stats.payload_raw_bytes) / mib);
  std::printf("  dense u32 matrix would be %.2f MiB -> %.1fx smaller\n",
              static_cast<double>(stats.DenseBytes()) / mib,
              stats.CompressionRatio());
}

/// Streams every minute of the packed file and cross-checks the decoded
/// event counts against the per-function totals and the header total.
int VerifyPacked(const std::string& path) {
  auto opened = OpenTraceFile(path);
  if (!opened.ok()) {
    std::fprintf(stderr, "verify: %s\n",
                 opened.status().message().c_str());
    return 1;
  }
  std::unique_ptr<TraceFileSource> source = std::move(opened).ValueOrDie();
  const size_t n = source->num_functions();
  const int minutes = source->num_minutes();
  const int window = source->block_minutes();
  std::vector<uint64_t> totals(n, 0);
  std::vector<std::vector<Invocation>> buckets;
  uint64_t grand_total = 0;
  for (int begin = 0; begin < minutes; begin += window) {
    const int end = std::min(begin + window, minutes);
    const Status filled = source->FillArrivals(begin, end, &buckets);
    if (!filled.ok()) {
      std::fprintf(stderr, "verify: decode [%d,%d): %s\n", begin, end,
                   filled.message().c_str());
      return 1;
    }
    for (int i = 0; i < end - begin; ++i) {
      for (const Invocation& inv : buckets[static_cast<size_t>(i)]) {
        totals[inv.function] += inv.count;
        grand_total += inv.count;
      }
    }
  }
  for (size_t f = 0; f < n; ++f) {
    if (totals[f] != source->function_total(f)) {
      std::fprintf(stderr,
                   "verify: function %zu decoded %llu invocations but the "
                   "table records %llu\n",
                   f, static_cast<unsigned long long>(totals[f]),
                   static_cast<unsigned long long>(source->function_total(f)));
      return 1;
    }
  }
  if (grand_total != source->stats().total_invocations) {
    std::fprintf(stderr,
                 "verify: decoded %llu invocations but the header records "
                 "%llu\n",
                 static_cast<unsigned long long>(grand_total),
                 static_cast<unsigned long long>(
                     source->stats().total_invocations));
    return 1;
  }
  std::printf("verify: OK (%llu invocations across %zu functions)\n",
              static_cast<unsigned long long>(grand_total), n);
  return 0;
}

int SimulatePacked(const std::string& path, const std::string& policy,
                   int train_days, const std::string& run_log_path) {
  auto opened = OpenTraceFile(path);
  if (!opened.ok()) {
    std::fprintf(stderr, "simulate: %s\n",
                 opened.status().message().c_str());
    return 1;
  }
  std::unique_ptr<TraceFileSource> source = std::move(opened).ValueOrDie();

  ScenarioSpec spec;
  auto parsed = ParsePolicySpec(policy);
  if (!parsed.ok()) {
    std::fprintf(stderr, "simulate: %s\n",
                 parsed.status().message().c_str());
    return 1;
  }
  spec.policy = std::move(parsed).ValueOrDie();
  spec.options.train_minutes = train_days * kMinutesPerDay;

  // Opt-in observability: stream a JSONL run log next to the simulation.
  // The recorder is write-only, so the printed metrics are bitwise
  // identical with or without --run-log.
  std::unique_ptr<FileLogSink> sink;
  std::unique_ptr<RunRecorder> recorder;
  if (!run_log_path.empty()) {
    sink = std::make_unique<FileLogSink>(run_log_path);
    if (!sink->ok()) {
      std::fprintf(stderr, "simulate: cannot open run log '%s'\n",
                   run_log_path.c_str());
      return 1;
    }
    RunRecorder::Options rec_options;
    rec_options.label = "spes_trace_pack --simulate " + path;
    recorder = std::make_unique<RunRecorder>(sink.get(), rec_options);
    recorder->Config("policy", policy);
    recorder->Config("train_days", std::to_string(train_days));
    recorder->Config("trace_file", path);
    spec.options.recorder = recorder.get();
  }

  auto run = RunScenario(*source, spec);
  if (recorder != nullptr) {
    recorder->Finish();
    if (run.ok()) std::printf("run log: %s\n", run_log_path.c_str());
  }
  if (!run.ok()) {
    std::fprintf(stderr, "simulate: %s\n", run.status().message().c_str());
    return 1;
  }
  const FleetMetrics& metrics = run.ValueOrDie().outcome.metrics;
  std::printf(
      "simulate: policy %s over %d train days: %llu invocations, "
      "%llu cold starts, Q3-CSR %.6f, avg memory %.1f instances\n",
      metrics.policy_name.c_str(), train_days,
      static_cast<unsigned long long>(metrics.total_invocations),
      static_cast<unsigned long long>(metrics.total_cold_starts),
      metrics.q3_csr, metrics.average_memory);
  return 0;
}

int Run(const Args& args) {
  TraceFileOptions options;
  options.compress = args.compress;
  options.block_minutes = args.block_minutes;

  TraceFileStats stats;
  if (args.source == "generator") {
    GeneratorConfig config;
    config.num_functions = args.functions;
    config.days = args.days;
    config.seed = args.seed;
    config.rare_fraction = args.rare_fraction;
    const int horizon = config.days * kMinutesPerDay;

    auto created = TraceFileWriter::Create(horizon, options);
    if (!created.ok()) {
      std::fprintf(stderr, "pack: %s\n",
                   created.status().message().c_str());
      return 1;
    }
    TraceFileWriter writer = std::move(created).ValueOrDie();
    // Function-by-function: each FunctionTrace is dropped right after the
    // writer delta-encodes it, so packing is out-of-core by construction.
    const Status generated = GenerateTraceStreamed(
        config,
        [&writer](FunctionTrace&& f, const GroundTruth&) -> Status {
          return writer.Add(f.meta, f.counts);
        });
    if (!generated.ok()) {
      std::fprintf(stderr, "pack: %s\n", generated.message().c_str());
      return 1;
    }
    auto written = writer.WriteTo(args.out);
    if (!written.ok()) {
      std::fprintf(stderr, "pack: %s\n",
                   written.status().message().c_str());
      return 1;
    }
    stats = written.ValueOrDie();
  } else if (args.source == "csv") {
    if (args.csv_dir.empty()) {
      std::fprintf(stderr, "pack: --source=csv requires --csv-dir\n");
      return 2;
    }
    auto loaded = ReadAzureTraceDir(args.csv_dir);
    if (!loaded.ok()) {
      std::fprintf(stderr, "pack: %s\n",
                   loaded.status().message().c_str());
      return 1;
    }
    auto written =
        WriteTraceFile(loaded.ValueOrDie(), args.out, options);
    if (!written.ok()) {
      std::fprintf(stderr, "pack: %s\n",
                   written.status().message().c_str());
      return 1;
    }
    stats = written.ValueOrDie();
  } else {
    std::fprintf(stderr, "pack: unknown --source '%s'\n",
                 args.source.c_str());
    return 2;
  }

  std::printf("wrote %s\n", args.out.c_str());
  PrintStats(stats);

  if (args.verify) {
    const int rc = VerifyPacked(args.out);
    if (rc != 0) return rc;
  }
  if (args.simulate) {
    const int train_days =
        args.train_days > 0 ? args.train_days : std::max(args.days - 2, 1);
    const int rc =
        SimulatePacked(args.out, args.policy, train_days, args.run_log);
    if (rc != 0) return rc;
  }

  const long peak_kib = PeakRssKib();
  if (peak_kib > 0) {
    std::printf("peak RSS: %.1f MiB\n",
                static_cast<double>(peak_kib) / 1024.0);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "source", &value)) {
      args.source = value;
    } else if (ParseFlag(arg, "csv-dir", &value)) {
      args.csv_dir = value;
    } else if (ParseFlag(arg, "out", &value)) {
      args.out = value;
    } else if (ParseFlag(arg, "functions", &value)) {
      args.functions = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "days", &value)) {
      args.days = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "seed", &value)) {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "rare-fraction", &value)) {
      args.rare_fraction = std::atof(value.c_str());
    } else if (ParseFlag(arg, "block-minutes", &value)) {
      args.block_minutes = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "policy", &value)) {
      args.policy = value;
    } else if (ParseFlag(arg, "train-days", &value)) {
      args.train_days = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "run-log", &value)) {
      args.run_log = value;
    } else if (arg == "--no-compress") {
      args.compress = false;
    } else if (arg == "--verify") {
      args.verify = true;
    } else if (arg == "--simulate") {
      args.simulate = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (args.out.empty()) {
    std::fprintf(stderr, "--out is required\n");
    return Usage(argv[0]);
  }
  return Run(args);
}
