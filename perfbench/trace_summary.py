#!/usr/bin/env python3
"""Per-layer metrics from a perfbench trace.

Usage: python3 perfbench/trace_summary.py TRACE.json

A trace (written by `perfbench --trace 1`) is Chrome trace-event JSON:
one complete ("X") event per span, with args.span / args.parent linking
each span to the span open on its thread when it began, and args.count
giving how many calls a batched span covers. A span's self time is its
duration minus the durations of its child spans. The metrics the
benchmark computes itself (counts, variant-difference costs) arrive in
otherData.metrics; this script adds the span-derived ones and prints
every per-layer metric by name.
"""

import json
import sys
from collections import defaultdict

# metric name -> (span name, how the span's self time is reported)
#   "ms_per_pass": milliseconds per traced corpus pass
#   "ns_per_call" / "us_per_call": per call the spans cover (args.count)
SPAN_METRICS = {
    "minic.parse_ms": ("minic.parse", "ms_per_pass"),
    "minic.sema_ms": ("minic.sema", "ms_per_pass"),
    "ir.lower_ms": ("ir.lower", "ms_per_pass"),
    "ir.verify_ms": ("ir.verify", "ms_per_pass"),
    "instrument.cse_ms": ("instrument.cse", "ms_per_pass"),
    "instrument.pass_ms": ("instrument.pass", "ms_per_pass"),
    "instrument.merge_ms": ("instrument.merge", "ms_per_pass"),
    "bytecode.compile_ms": ("bytecode.compile", "ms_per_pass"),
    "api.malloc_ns": ("api.malloc", "ns_per_call"),
    "api.free_ns": ("api.free", "ns_per_call"),
    "api.type_check_ns": ("api.typeCheck", "ns_per_call"),
    "api.bounds_check_ns": ("api.boundsCheck", "ns_per_call"),
    "service.open_us": ("service.open", "us_per_call"),
    "service.lease_us": ("service.lease", "us_per_call"),
    "service.release_us": ("service.release", "us_per_call"),
    "service.close_us": ("service.close", "us_per_call"),
}

# otherData.metrics entries that parameterize the summary, not metrics.
PASSES_KEY = "trace.passes"


def self_times(events):
    """Per span name: (total self time in us, calls covered, spans)."""
    spans = [e for e in events if e.get("ph") == "X"]
    child_us = defaultdict(float)
    for e in spans:
        parent = e["args"]["parent"]
        if parent >= 0:
            child_us[parent] += e["dur"]
    totals = defaultdict(lambda: [0.0, 0, 0])
    for e in spans:
        t = totals[e["name"]]
        t[0] += e["dur"] - child_us[e["args"]["span"]]
        t[1] += e["args"]["count"]
        t[2] += 1
    return totals


def summarize(path):
    with open(path) as f:
        trace = json.load(f)
    metrics = dict(trace["otherData"]["metrics"])
    passes = metrics.pop(PASSES_KEY, 0)
    totals = self_times(trace["traceEvents"])
    for metric, (span, kind) in SPAN_METRICS.items():
        if span not in totals:
            continue
        self_us, calls, _ = totals[span]
        if kind == "ms_per_pass":
            if passes:
                metrics[metric] = self_us / 1e3 / passes
        elif kind == "ns_per_call":
            metrics[metric] = self_us * 1e3 / calls
        else:
            metrics[metric] = self_us / calls
    return metrics


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    for name, value in sorted(summarize(argv[1]).items()):
        print("%-36s %.6g" % (name, value))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
