#!/usr/bin/env python3
"""The repository benchmark: build the program optimised, run one workload.

Run from the repository root:

    python3 polybench/run.py --workload steady_serve --seed 1 --seconds 10 --trace 0

builds polybench/ (and with it every source under src/) optimised into
.bench_build/, runs the workload and forwards its output.  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics, or with --trace 1 the per-layer ones).
A traced run also writes its spans as Chrome trace-event JSON to
.bench_build/traces/<workload>-seed<seed>.json.

Two more modes serve the benchmark itself:

    python3 polybench/run.py --selftest
        smoke-sized runs of every workload, traced and untraced, checking
        each run's output, the metric names and that a fixed seed repeats
        every simulated metric exactly (seconds to a minute).

    python3 polybench/run.py --steadiness 10 [--first-seed 1]
        runs every workload the given number of times, one seed per round,
        alternating the workload order, and prints each end-to-end
        metric's median, quartiles and spread next to its bound.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "polybench")

WORKLOADS = ["steady_serve", "catastrophe", "paper_cycle"]

# The end-to-end metrics, in BENCHMARK.json's order; every workload
# reports each of them.
END_TO_END = ["setup_s", "peak_rss_mb", "messages_per_node_round",
              "reliability"]
# Host measurements; every other end-to-end metric is simulated and
# repeats exactly for a fixed seed.
HOST_METRICS = {"setup_s", "peak_rss_mb"}
# Per-layer figures --steadiness reports beside the end-to-end ones: the
# host throughput, too unsteady on the reference host to bound
# (README.md), and the simulated figures that are per-layer only because
# one workload lacks them.  A workload that lacks one prints 0 for it.
REPORTED_LAYERS = ["cluster.node_rounds_per_s", "mem.state_bytes_per_node",
                   "traffic.requests_completed", "traffic.p99_latency_ms",
                   "metrics.homogeneity", "sync.reshaping_rounds"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the optimised binary; False on failure."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                            stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0 and os.path.isfile(BINARY)


def run_binary(workload, seed, seconds, trace, smoke=False, echo=True):
    """Runs one workload; returns (exit code, stdout lines, result dict)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{seed}.json")]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines:
            print(line)
    if proc.returncode != 0:
        # The program logs every dropped frame; show only the end.
        for line in proc.stderr.splitlines()[-20:]:
            log(line)
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_bounds():
    return {m["name"]: m for m in load_spec()["end_to_end"]}


def selftest():
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    spec = load_spec()
    expect([m["name"] for m in spec["end_to_end"]] == END_TO_END,
           "BENCHMARK.json declares the end-to-end metrics run.py expects")
    per_layer = [m["name"] for m in spec["per_layer"]]

    for workload in WORKLOADS:
        seen = []
        for trace in (False, True, False):
            code, _, result = run_binary(workload, 1, 0, trace, smoke=True,
                                         echo=False)
            tag = f"{workload} trace={int(trace)}"
            expect(code == 0 and result is not None,
                   f"{tag}: exit 0 with a JSON last line")
            if result is None:
                continue
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{tag}: result keys")
            expect(result["correct"] is True, f"{tag}: outputs correct")
            expect(result["attempted"] >= 1, f"{tag}: attempted >= 1")
            if not trace:
                expect(list(result["metrics"]) == END_TO_END,
                       f"{tag}: end-to-end metric names")
                expect(all(m["value"] != 0
                           for m in result["metrics"].values()),
                       f"{tag}: no end-to-end metric reads 0")
                seen.append(result)
            else:
                expect(list(result["metrics"]) == per_layer,
                       f"{tag}: per-layer metric names")
        if len(seen) == 2:
            a, b = (r["metrics"] for r in seen)
            same = all(a[m]["value"] == b[m]["value"]
                       for m in END_TO_END if m not in HOST_METRICS)
            expect(same, f"{workload}: simulated metrics repeat for one seed")
            expect(seen[0]["failed"] == seen[1]["failed"],
                   f"{workload}: failed count repeats for one seed")
    print("selftest: " + ("passed" if not failures else
                          f"{len(failures)} failure(s)"))
    return 0 if not failures else 1


def steadiness(rounds, first_seed, seconds):
    bounds = load_bounds()
    values = {w: {} for w in WORKLOADS}
    shares = {w: set() for w in WORKLOADS}
    walls = {w: [] for w in WORKLOADS}
    for i in range(rounds):
        order = WORKLOADS if i % 2 == 0 else list(reversed(WORKLOADS))
        for workload in order:
            seed = first_seed + i
            start = time.monotonic()
            code, lines, result = run_binary(workload, seed, seconds, False,
                                             echo=False)
            walls[workload].append(time.monotonic() - start)
            if result is None:
                log(f"{workload} seed {seed}: run failed (exit {code})")
                return 1
            shares[workload].add(
                (result["failed"], result["attempted"], result["correct"]))
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
            # Per-layer figures, printed beside the result but unbounded.
            for line in lines:
                fields = line.split()
                if (len(fields) >= 3 and fields[0] == "layer" and
                        fields[1] in REPORTED_LAYERS):
                    values[workload].setdefault(fields[1], []).append(
                        float(fields[2]))
            log(f"{workload} seed {seed}: {walls[workload][-1]:.1f} s")
    print(f"{'workload':<13} {'metric':<26} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}  ok")
    for workload in WORKLOADS:
        for name, vals in values[workload].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            if name not in bounds and med == 0:
                continue  # a layer this workload does not run
            spread = (q3 - q1) / med if med else float("inf")
            if name not in bounds:
                print(f"{workload:<13} {name:<26} {med:>12.6g} {q1:>12.6g} "
                      f"{q3:>12.6g} {spread:>7.2%} {'-':>6}  (per-layer)")
                continue
            bound = bounds[name]["bound"]
            # Set-up time's run-to-run spread is not gated; only the
            # medians of two sets of runs must agree within its bound.
            verdict = ("spread not gated" if name == "setup_s" else
                       "yes" if spread <= bound / 3 else
                       "within bound" if spread <= bound else "NO")
            print(f"{workload:<13} {name:<26} {med:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread:>7.2%} {bound:>6.0%}  {verdict}")
        print(f"{workload:<13} failed/attempted/correct per run: "
              f"{sorted(shares[workload])}; wall "
              f"{statistics.median(walls[workload]):.1f} s median, "
              f"{max(walls[workload]):.1f} s max")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--steadiness", type=int, metavar="RUNS")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    if not build():
        log("polybench: build failed")
        return 1
    if args.selftest:
        return selftest()
    if args.steadiness:
        return steadiness(args.steadiness, args.first_seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    code, _, result = run_binary(args.workload, args.seed, args.seconds,
                                 args.trace == 1)
    if code != 0 or result is None:
        log(f"polybench: {args.workload} run failed (exit {code})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
