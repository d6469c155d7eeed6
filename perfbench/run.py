#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload spec|spec_mt|minic|service \
        --seed N --seconds S --trace 0|1

Builds the benchmark package (perfbench/CMakeLists.txt, Release) into
.bench_build/perfbench on first use, runs the perfbench binary, and prints
as the last line of stdout one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list, taken from the Chrome trace the
binary writes to .bench_build/traces/ (see trace_summary.py). Exits
non-zero without printing a result when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
RUN_TIMEOUT_S = 170

sys.dont_write_bytecode = True  # Write nothing outside .bench_build.
sys.path.insert(0, HERE)
import trace_summary  # noqa: E402


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def stale_cache():
    """A build directory configured for another checkout location."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(cache):
        return False
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return os.path.realpath(line.split("=", 1)[1].strip()) != \
                    os.path.realpath(HERE)
    return True


def build():
    if stale_cache():
        shutil.rmtree(BUILD)
    cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    configured = os.path.exists(os.path.join(BUILD, "CMakeCache.txt"))
    steps = [] if configured else [cmd]
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            log("build failed: " + " ".join(step))
            return None
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload %r" % args.workload)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    binary = build()
    if not binary:
        return 1

    trace_path = os.path.join(BUILD_ROOT, "traces",
                              "%s-seed%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    if proc.returncode:
        log("perfbench exited with %d" % proc.returncode)
        return 1
    lines = proc.stdout.strip().splitlines()
    env, result = json.loads(lines[-2]), json.loads(lines[-1])

    metrics = result["metrics"]
    if args.trace:
        metrics = trace_summary.summarize(trace_path)
        # A layer the workload does not exercise did no work on it.
        for name in units:
            metrics.setdefault(name, 0.0)
    if set(metrics) != set(units):
        log("metric names differ from BENCHMARK.json: missing %s, extra %s"
            % (sorted(set(units) - set(metrics)),
               sorted(set(metrics) - set(units))))
        return 1

    print(json.dumps(env))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
