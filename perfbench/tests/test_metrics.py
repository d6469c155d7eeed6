#!/usr/bin/env python3
"""The benchmark's contract tests.

Usage (from the repository root): python3 perfbench/tests/test_metrics.py

Runs every workload briefly, untraced and traced, and checks that the
printed metric names are exactly BENCHMARK.json's, that every operation
succeeded, and that end-to-end values are positive. Also checks the
self-time arithmetic of trace_summary.py on a hand-made trace.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.dont_write_bytecode = True
sys.path.insert(0, PERFBENCH)
import trace_summary  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload",
         workload, "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    return proc


class ContractTest(unittest.TestCase):
    def check(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-4000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        listed = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in listed})
        for m in listed:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)

    def test_unknown_workload_is_refused(self):
        proc = run("no-such-workload", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        def span(name, sid, parent, ts, dur, count=1):
            return {"name": name, "ph": "X", "ts": ts, "dur": dur,
                    "args": {"span": sid, "parent": parent, "count": count}}
        trace = {
            "traceEvents": [
                span("minic.round", 1, -1, 0, 100),
                span("minic.parse", 2, 1, 0, 30),
                span("ir.verify", 3, 2, 5, 10),
                span("api.malloc", 4, 1, 40, 20, count=4),
            ],
            "otherData": {"metrics": {"trace.passes": 2, "core.reports": 3}},
        }
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            json.dump(trace, f)
        try:
            m = trace_summary.summarize(f.name)
        finally:
            os.unlink(f.name)
        self.assertAlmostEqual(m["minic.parse_ms"], (30 - 10) / 1e3 / 2)
        self.assertAlmostEqual(m["ir.verify_ms"], 10 / 1e3 / 2)
        self.assertAlmostEqual(m["api.malloc_ns"], 20 * 1e3 / 4)
        self.assertEqual(m["core.reports"], 3)
        self.assertNotIn("trace.passes", m)


if __name__ == "__main__":
    unittest.main()
