#!/usr/bin/env python3
"""Build and run the repo benchmark.

One run (the form the benchmark contract uses):

    python3 perfbench/run.py --workload paper_prompt --seed 1 --seconds 36 --trace 0

builds perfbench/ (CMake, into $CARGO_TARGET_DIR or .bench_build under the
checkout root), runs the benchmark binary with the workload's settings from
perfbench/workloads.json and relays its output. The last stdout line is the
result: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a separate traced run,
whose spans are written to <build dir>/traces/.

Every workload, untraced and traced, with a table of every metric:

    python3 perfbench/run.py --all [--seeds 1,2] [--seconds 36] [--out DIR]

--out keeps each run's result as DIR/<workload>/seed<N>.trace<T>.json for
perfbench/compare.py. The exit code is non-zero when any run fails a
correctness check or does not produce a result.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_workloads():
    with open(os.path.join(HERE, "workloads.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once, then builds incrementally. Returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def calibration_bound():
    """throughput_rps's bound: the drift of the calibration GEMM between the
    start and the end of a run beyond which it is flagged as a noisy-host
    run."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        return next(m["bound"] for m in bench["end_to_end"]
                    if m["name"] == "throughput_rps")
    except (OSError, ValueError, KeyError, StopIteration):
        return 0.25


def run_once(binary, workloads, name, seed, seconds, trace):
    """Runs the binary once. Returns (stdout lines, parsed result or None,
    exit code)."""
    spec = workloads["workloads"][name]
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    command = [
        binary,
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--nominal-rps", str(spec["nominal_rps"]),
        "--ladder", ",".join(str(r) for r in spec["ladder_rps"]),
        "--latency-limit-ms", str(spec["latency_limit_ms"]),
        "--client-threads", str(spec["client_threads"]),
        "--bound", str(calibration_bound()),
    ]
    if trace:
        command += ["--trace-out",
                    os.path.join(traces, "%s-seed%d.jsonl" % (name, seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("perfbench: %s seed %d timed out after %d s"
            % (name, seed, BINARY_TIMEOUT_S))
        return [], None, 1
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        result = None
    return lines, result, proc.returncode


def samples_of(lines):
    for line in lines:
        if line.startswith("samples "):
            return json.loads(line[len("samples "):])
    return {}


def single(args, workloads):
    if args.workload not in workloads["workloads"]:
        log("perfbench: unknown workload %r (have %s)"
            % (args.workload, ", ".join(workloads["workloads"])))
        return 2
    binary = build()
    lines, result, code = run_once(binary, workloads, args.workload,
                                   args.seed, args.seconds, args.trace)
    if result is None:
        for line in lines:
            print(line, file=sys.stderr)
        log("perfbench: no result (exit code %d)" % code)
        return 1
    for line in lines:
        print(line)
    sys.stdout.flush()
    return 0 if result["correct"] and code == 0 else 1


def run_all(args, workloads):
    binary = build()
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    ok = True
    rows = []
    for name in workloads["workloads"]:
        for seed in seeds:
            for trace in (0, 1):
                started = time.time()
                lines, result, code = run_once(binary, workloads, name, seed,
                                               seconds, trace)
                elapsed = time.time() - started
                if result is None or not result["correct"] or code != 0:
                    ok = False
                    log("\n".join(lines[-20:]))
                    log("perfbench: %s seed %d trace %d FAILED (exit %d)"
                        % (name, seed, trace, code))
                    continue
                samples = samples_of(lines)
                for metric, value in result["metrics"].items():
                    rows.append((name, seed, trace, metric, value["value"],
                                 value["unit"], samples.get(metric, 0)))
                log("perfbench: %s seed %d trace %d done in %.1f s "
                    "(attempted %d, failed %d)"
                    % (name, seed, trace, elapsed, result["attempted"],
                       result["failed"]))
                if args.out:
                    path = os.path.join(args.out, name,
                                        "seed%d.trace%d.json" % (seed, trace))
                    os.makedirs(os.path.dirname(path), exist_ok=True)
                    with open(path, "w") as f:
                        json.dump({"workload": name, "seed": seed,
                                   "trace": trace, "seconds": seconds,
                                   "result": result, "samples": samples,
                                   "details": [l for l in lines
                                               if l.startswith("detail ")]},
                                  f, indent=1)
    print("%-20s %5s %-5s %-34s %16s %-8s %s"
          % ("workload", "seed", "trace", "metric", "value", "unit", "n"))
    for name, seed, trace, metric, value, unit, n in rows:
        print("%-20s %5d %-5d %-34s %16.6f %-8s %d"
              % (name, seed, trace, metric, value, unit, n))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--out")
    args = parser.parse_args()
    workloads = load_workloads()
    try:
        if args.all:
            return run_all(args, workloads)
        if not args.workload or args.seconds is None:
            parser.error("--workload and --seconds are required")
        return single(args, workloads)
    except (subprocess.CalledProcessError, OSError) as error:
        log("perfbench: %s" % error)
        return 1


if __name__ == "__main__":
    sys.exit(main())
