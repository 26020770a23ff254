#!/usr/bin/env python3
"""End-to-end benchmark of the SPES simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (and through it the
simulator library) in Release under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then repeats the workload until --seconds have
passed, each repetition in a fresh single-threaded spes_perfbench process.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the host
measurements summarized over the repetitions (see HOST_STATS), and the
simulated outcome, which must be identical in every repetition. --trace 1
alternates untraced and traced repetitions and reports the per-layer
metrics: medians of the traced layer timers, the simulated counters, and
the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Every output check the binary
makes, plus the cross-repetition determinism checks made here, counts as
one attempted operation; any failure makes the exit code 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("spes_tail_streamed", "keepalive_sweep_dense", "cluster_burst_slo")
# Repetitions at least, whatever --seconds says; a traced run makes pairs
# of one untraced and one traced process.
MIN_REPS = 3
MIN_PAIRS = 2
# No repetition starts after this many seconds, so a run on a slow host
# still ends well inside three minutes.
LAST_START_S = 120.0
REP_TIMEOUT_S = 150.0
# Host measurements the binary prints at the top level, and how each is
# summarized over the repetitions; everything else an end-to-end metric
# names is a simulated outcome under "sim". simulate_s is the best
# repetition: on a shared host, interference only ever slows a repetition
# down, and whole processes land in a fast or a slow mode, so a median
# jumps between the modes while the best stays put (perfbench/README.md has
# the measurements). setup_s is the median of the repeated set-ups.
HOST_STATS = {
    "setup_s": statistics.median,
    "simulate_s": min,
    "peak_rss_mib": statistics.median,
}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds spes_perfbench; returns the binary's path."""
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (ROOT / target_dir / "perfbench").resolve()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=str(build_dir / "tmp"))
    (build_dir / "tmp").mkdir(parents=True, exist_ok=True)
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "spes_perfbench",
         "-j", jobs],
    ]
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr,
                                stderr=sys.stderr, check=False)
        if result.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(step)}")
    return build_dir / "spes_perfbench"


def repetition(binary, workload, seed, traced):
    """One fresh process; returns its parsed JSON report."""
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--trace", "1" if traced else "0"]
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True,
                                timeout=REP_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: repetition timed out") from exc
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise BenchError(f"{workload}: spes_perfbench exited with "
                         f"{result.returncode}")
    return json.loads(lines[-1])


def load_metric_specs(traced):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as spec_file:
        spec = json.load(spec_file)
    return spec["per_layer" if traced else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    traced = args.trace == 1

    specs = load_metric_specs(traced)
    binary = build()

    plain, timed = [], []
    start = time.monotonic()
    while True:
        plain.append(repetition(binary, args.workload, args.seed, False))
        if traced:
            timed.append(repetition(binary, args.workload, args.seed, True))
        elapsed = time.monotonic() - start
        enough = len(plain) >= (MIN_PAIRS if traced else MIN_REPS)
        if (enough and elapsed >= args.seconds) or elapsed >= LAST_START_S:
            break

    reps = plain + timed
    attempted = sum(rep["ops"] for rep in reps)
    failures = [f for rep in reps for f in rep["failures"]]
    # The simulated outcome repeats exactly across processes, and the
    # traced run simulates exactly what the untraced one does.
    reference = plain[0]["sim"]
    for rep in reps[1:]:
        attempted += 1
        if rep["sim"] != reference:
            kind = "traced" if rep["traced"] else "untraced"
            failures.append(f"{kind} repetition differs from the first "
                            "untraced one on a simulated counter")

    metrics = {}
    for spec in specs:
        name = spec["name"]
        if name == "obs.trace_overhead":
            traced_s = min(r["simulate_s"] for r in timed)
            plain_s = min(r["simulate_s"] for r in plain)
            value = traced_s / plain_s - 1.0
        elif traced and name in timed[0]["layers"]:
            value = statistics.median([r["layers"][name] for r in timed])
        elif name in HOST_STATS:
            value = HOST_STATS[name]([r[name] for r in plain])
        elif name in reference:
            value = reference[name]
        else:
            raise BenchError(f"no measurement for metric '{name}'")
        metrics[name] = {"value": value, "unit": spec["unit"]}

    log(f"host: nproc {os.cpu_count()}, compiler {plain[0]['compiler']}, "
        f"optimized build {'yes' if plain[0]['optimized'] else 'NO'}")
    log(f"{args.workload} seed {args.seed}: {len(plain)} untraced, "
        f"{len(timed)} traced repetitions in {time.monotonic() - start:.1f} s")
    for key in ("setup_s", "simulate_s"):
        log(f"  {key}: " + " ".join(f"{r[key]:.3f}" for r in plain))
    for failure in failures:
        log(f"  FAILED: {failure}")

    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as error:
        log(f"perfbench: {error}")
        sys.exit(1)
