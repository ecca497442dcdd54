#!/usr/bin/env python3
"""The benchmark's own tests: every workload at a tiny size.

    python3 e2ebench/test_e2ebench.py

Checks that every metric BENCHMARK.json names is reported with its unit,
that two runs with the same seed produce identical counts, and that no
frame fails.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from compare import EXACT  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, seed=7):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d" % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinyWorkloads(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for workload in WORKLOADS:
            for trace in (0, 1):
                cls.runs[(workload, trace)] = [run(workload, trace), run(workload, trace)]

    def test_every_metric_present_with_unit(self):
        for (workload, trace), results in self.runs.items():
            expected = SPEC["per_layer" if trace else "end_to_end"]
            with self.subTest(workload=workload, trace=trace):
                metrics = results[0]["metrics"]
                self.assertEqual(sorted(metrics), sorted(m["name"] for m in expected))
                for m in expected:
                    self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])

    def test_same_seed_same_counts(self):
        for (workload, trace), (first, second) in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(first["attempted"], second["attempted"])
                for name in EXACT & set(first["metrics"]):
                    self.assertEqual(first["metrics"][name]["value"], second["metrics"][name]["value"], name)

    def test_no_frame_fails(self):
        for (workload, trace), results in self.runs.items():
            for result in results:
                with self.subTest(workload=workload, trace=trace):
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    metric = "failed_frac" if trace else "delivered_frac"
                    self.assertEqual(result["metrics"][metric]["value"], 0 if trace else 1)


if __name__ == "__main__":
    unittest.main()
