#!/usr/bin/env python3
"""Interleaved parent/change pairs of the repository benchmark.

Usage:

    python3 bench/pairs.py --parent DIR --change DIR --workload W \\
        [--pairs N] [--seed S] [--seconds T] [--trace 0|1]
    python3 bench/pairs.py --selftest

Runs `python3 perfbench/run.py` (see perfbench/README.md) in two
checkouts for N pairs of processes. Each pair runs one process per side,
and the side that goes first alternates from pair to pair, so drift over
time lands on both sides alike.

For every metric of BENCHMARK.json that the workload reports, it prints
one line in the form CHANGES.md records measurements in:

    spec_mt overhead_full_x: 2.716 [2.707,2.764] -> 2.464, change better 5/5
        (parent 2.707 2.764 2.716 ...; change 2.466 2.455 2.464 ...)

that is the parent's median [Q1,Q3], the change's median, the number of
pairs in which the change was better (by the metric's "better"
direction) and every run. A metric is marked UNRESOLVED when the
parent's own runs spread (max - min, relative to their median) wider
than its BENCHMARK.json bound, so that no regression within the bound
can be told from noise, unless every run of the change reads better
than every run of the parent. A metric is marked GAIN when the change
was better in at least 9 of 10 pairs (ties count for neither side) and
its median beats the parent's by more than the parent's interquartile
distance.

Both checkouts build their own benchmark (perfbench/run.py builds into
each checkout's .bench_build/ on first use). Only the checkouts'
committed files matter; this script writes nothing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartiles(values):
    """(Q1, median, Q3), inclusive quartiles; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(name, better, bound, parent, change):
    """The verdict for one metric from paired runs parent[i], change[i]."""
    q1, med, q3 = quartiles(parent)
    _, change_med, _ = quartiles(change)
    lower = better == "lower"
    wins = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
    spread = (max(parent) - min(parent)) / abs(med) if med else 0.0
    all_better = max(change) < min(parent) if lower else \
        min(change) > max(parent)
    gain = (change_med < med if lower else change_med > med) and \
        abs(change_med - med) > q3 - q1 and wins * 10 >= 9 * len(parent)
    return {
        "name": name, "parent_median": med, "q1": q1, "q3": q3,
        "change_median": change_med, "wins": wins, "pairs": len(parent),
        "spread": spread,
        "unresolved": bound is not None and spread > bound and not all_better,
        "gain": gain, "parent": parent, "change": change,
    }


def fmt(x):
    return "%.4g" % x


def render(workload, s):
    verdict = []
    if s["gain"]:
        verdict.append("GAIN")
    if s["unresolved"]:
        verdict.append("UNRESOLVED (parent spread %.0f%%)" %
                       (100 * s["spread"]))
    return ("%s %s: %s [%s,%s] -> %s, change better %d/%d%s\n"
            "    (parent %s; change %s)" % (
                workload, s["name"], fmt(s["parent_median"]), fmt(s["q1"]),
                fmt(s["q3"]), fmt(s["change_median"]), s["wins"], s["pairs"],
                "".join(" " + v for v in verdict),
                " ".join(fmt(v) for v in s["parent"]),
                " ".join(fmt(v) for v in s["change"])))


def run_once(checkout, args):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit("pairs: %s failed in %s" % (" ".join(cmd), checkout))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print("pairs: %s: a run was not correct (%d failed)" %
              (checkout, result["failed"]), file=sys.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}


def selftest():
    def near(a, b):
        return abs(a - b) < 1e-9
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    q1, med, q3 = quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, med, q3) == (2.0, 3.0, 4.0)
    q1, med, q3 = quartiles([4.0, 1.0, 3.0, 2.0])
    assert near(q1, 1.75) and near(med, 2.5) and near(q3, 3.25)

    # Lower is better: the change wins 9 of 10 pairs by more than the
    # parent's interquartile distance.
    parent = [2.70, 2.72, 2.71, 2.76, 2.73, 2.70, 2.74, 2.72, 2.71, 2.75]
    change = [2.46, 2.45, 2.47, 2.46, 2.48, 2.44, 2.46, 2.45, 2.47, 2.80]
    s = summarize("overhead_full_x", "lower", 0.2, parent, change)
    assert s["wins"] == 9 and s["gain"] and not s["unresolved"]
    assert near(s["parent_median"], 2.72) and near(s["change_median"], 2.46)
    assert "change better 9/10 GAIN" in render("spec_mt", s)

    # 8 of 10 is not a gain however large the median difference.
    s = summarize("m", "lower", 0.2, parent,
                  change[:8] + [2.9, 2.9])
    assert s["wins"] == 8 and not s["gain"]

    # Higher is better flips the comparison.
    s = summarize("requests_s", "higher", None, [10.0, 11.0, 12.0],
                  [13.0, 10.5, 12.5])
    assert s["wins"] == 2 and not s["unresolved"] and not s["gain"]

    # A parent spread of 0.5 around a median of 2.0 (25%) is wider than
    # a 0.2 bound: unresolved, whatever the change did.
    s = summarize("m", "lower", 0.2, [1.8, 2.0, 2.3], [1.9, 2.0, 2.1])
    assert near(s["spread"], 0.25) and s["unresolved"]
    assert "UNRESOLVED (parent spread 25%)" in render("spec", s)
    # Unless every change run beats every parent run.
    s = summarize("m", "lower", 0.2, [1.8, 2.0, 2.3], [1.5, 1.6, 1.7])
    assert not s["unresolved"]
    # Exactly at the bound is still resolved.
    s = summarize("m", "lower", 0.25, [1.8, 2.0, 2.3], [1.9, 2.0, 2.1])
    assert not s["unresolved"]

    # The median difference must exceed the parent's IQR for a gain.
    s = summarize("m", "lower", 0.5, [1.0, 2.0, 3.0] * 4, [1.5] * 12)
    assert s["wins"] == 8 and not s["gain"]
    print("pairs selftest: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not (args.parent and args.change and args.workload):
        parser.error("--parent, --change and --workload are required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            runs[side].append(run_once(checkout, args))
        print("pairs: pair %d/%d done (%s first)" % (i + 1, args.pairs,
                                                     order[0]),
              file=sys.stderr, flush=True)

    for m in metrics:
        name = m["name"]
        if name not in runs["parent"][0]:
            continue
        s = summarize(name, m["better"], m.get("bound"),
                      [r[name] for r in runs["parent"]],
                      [r[name] for r in runs["change"]])
        print(render(args.workload, s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
