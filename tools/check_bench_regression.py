#!/usr/bin/env python3
"""Gate the simulation kernel's throughput against the committed baseline.

Reads two google-benchmark JSON files — the committed trajectory artifact
(BENCH_micro_hotpaths.json) and a fresh run — and fails when the fresh
items_per_second of any gated benchmark drops more than --tolerance
(default 20%) below the committed value.

The fresh run must come from a Release build of this project: its
context must carry spes_build_type "Release" (bench_micro_hotpaths records
CMAKE_BUILD_TYPE there; google-benchmark's own library_build_type only
says how the benchmark library was compiled).

Also enforces three machine-independent invariants inside the fresh run
itself (each compares two measurements from the same process on the same
machine, so they hold on any runner class):

  * --min-ratio R: BM_SimKernelColumnar must be at least R times faster
    (items/sec) than BM_SimKernelReference at every common fleet size.
  * --max-stream-overhead F: BM_TraceFileStreamDecode (the packed-file
    streaming decode) may be at most F times slower than BM_InMemoryDecode
    at every common fleet size — the out-of-core path must stay within a
    bounded factor of reading RAM.
  * --min-spes-ratio R: BM_SpesProvisionMinute (SPES's event-driven minute
    step) must be at least R times faster (items/sec) than
    BM_SpesProvisionMinuteScan (the per-minute scan reference) at every
    common fleet size.

A BASELINE of "-" skips the baseline comparison and checks only the
in-run invariants (for a fresh run made at a scale no baseline covers).

Usage:
  tools/check_bench_regression.py BASELINE.json FRESH.json \
      [--tolerance 0.20] [--min-ratio 10] [--max-stream-overhead 6] \
      [--min-spes-ratio 2] [--gate BM_SimKernelColumnar]
"""

import argparse
import json
import sys


def load_doc(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def items_per_second(doc):
    """Returns {benchmark name: items_per_second} for aggregate-free runs."""
    result = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue  # skip aggregates (mean/median/stddev) if present
        ips = bench.get("items_per_second")
        if ips is not None:
            result[bench["name"]] = float(ips)
    return result


def fleet_size(name):
    """'BM_SimKernelColumnar/4000' -> '4000' (or '' when unparameterized)."""
    return name.rsplit("/", 1)[1] if "/" in name else ""


def by_size(fresh, family):
    """{fleet size: items/sec} of one benchmark family ('BM_X' matches
    'BM_X/4000' but not 'BM_XScan/4000')."""
    return {fleet_size(n): v for n, v in fresh.items()
            if n == family or n.startswith(family + "/")}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_*.json artifact, "
                                         "or - for none")
    parser.add_argument("fresh", help="freshly produced benchmark JSON")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="max allowed fractional drop vs the baseline")
    parser.add_argument("--min-ratio", type=float, default=None,
                        help="required columnar/reference items/sec ratio "
                             "within the fresh run")
    parser.add_argument("--max-stream-overhead", type=float, default=None,
                        help="max allowed in-memory/streamed decode "
                             "items/sec ratio within the fresh run")
    parser.add_argument("--min-spes-ratio", type=float, default=None,
                        help="required event-driven/scan SPES minute-step "
                             "items/sec ratio within the fresh run")
    parser.add_argument("--gate", action="append", default=None,
                        help="benchmark name prefix to gate vs the baseline "
                             "(repeatable; default: BM_SimKernelColumnar)")
    args = parser.parse_args()
    gates = args.gate or ["BM_SimKernelColumnar"]

    baseline = ({} if args.baseline == "-"
                else items_per_second(load_doc(args.baseline)))
    fresh_doc = load_doc(args.fresh)
    fresh = items_per_second(fresh_doc)
    failures = []

    build_type = fresh_doc.get("context", {}).get("spes_build_type")
    print(f"fresh run spes_build_type: {build_type}")
    if build_type != "Release":
        failures.append(f"the fresh run's spes_build_type is {build_type!r}, "
                        f"not 'Release' (configure with "
                        f"-DCMAKE_BUILD_TYPE=Release)")

    for name, base_ips in sorted(baseline.items()):
        if not any(name.startswith(g) for g in gates):
            continue
        fresh_ips = fresh.get(name)
        if fresh_ips is None:
            failures.append(f"{name}: present in baseline, missing from "
                            f"the fresh run")
            continue
        drop = 1.0 - fresh_ips / base_ips
        status = "REGRESSED" if drop > args.tolerance else "ok"
        print(f"{name}: baseline {base_ips:.3e} -> fresh {fresh_ips:.3e} "
              f"items/s ({-drop:+.1%}) [{status}]")
        if drop > args.tolerance:
            failures.append(
                f"{name}: throughput dropped {drop:.1%} "
                f"(> {args.tolerance:.0%} tolerance)")

    if args.min_ratio is not None:
        columnar = {fleet_size(n): v for n, v in fresh.items()
                    if n.startswith("BM_SimKernelColumnar")}
        reference = {fleet_size(n): v for n, v in fresh.items()
                     if n.startswith("BM_SimKernelReference")}
        common = sorted(set(columnar) & set(reference))
        if not common:
            failures.append("--min-ratio given but the fresh run has no "
                            "common SimKernel Columnar/Reference sizes")
        for size in common:
            ratio = columnar[size] / reference[size]
            status = "ok" if ratio >= args.min_ratio else "TOO SLOW"
            print(f"SimKernel columnar/reference @ {size or 'default'} "
                  f"functions: {ratio:.1f}x [{status}]")
            if ratio < args.min_ratio:
                failures.append(
                    f"columnar kernel only {ratio:.1f}x the reference at "
                    f"{size or 'default'} functions "
                    f"(requires >= {args.min_ratio:g}x)")

    if args.max_stream_overhead is not None:
        in_memory = {fleet_size(n): v for n, v in fresh.items()
                     if n.startswith("BM_InMemoryDecode")}
        streamed = {fleet_size(n): v for n, v in fresh.items()
                    if n.startswith("BM_TraceFileStreamDecode")}
        common = sorted(set(in_memory) & set(streamed))
        if not common:
            failures.append("--max-stream-overhead given but the fresh run "
                            "has no common InMemory/TraceFileStream decode "
                            "sizes")
        for size in common:
            overhead = in_memory[size] / streamed[size]
            status = ("ok" if overhead <= args.max_stream_overhead
                      else "TOO SLOW")
            print(f"streamed decode overhead @ {size or 'default'} "
                  f"functions: {overhead:.2f}x [{status}]")
            if overhead > args.max_stream_overhead:
                failures.append(
                    f"streamed decode {overhead:.2f}x slower than in-memory "
                    f"at {size or 'default'} functions "
                    f"(allows <= {args.max_stream_overhead:g}x)")

    if args.min_spes_ratio is not None:
        event = by_size(fresh, "BM_SpesProvisionMinute")
        scan = by_size(fresh, "BM_SpesProvisionMinuteScan")
        common = sorted(set(event) & set(scan))
        if not common:
            failures.append("--min-spes-ratio given but the fresh run has no "
                            "common SpesProvisionMinute event/scan sizes")
        for size in common:
            ratio = event[size] / scan[size]
            status = "ok" if ratio >= args.min_spes_ratio else "TOO SLOW"
            print(f"SPES minute step event/scan @ {size or 'default'} "
                  f"functions: {ratio:.2f}x [{status}]")
            if ratio < args.min_spes_ratio:
                failures.append(
                    f"event-driven SPES step only {ratio:.2f}x the scan at "
                    f"{size or 'default'} functions "
                    f"(requires >= {args.min_spes_ratio:g}x)")

    if failures:
        print("\nBENCH REGRESSION CHECK FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nbench regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
