#!/usr/bin/env python3
"""Tests of the nmrs Database benchmark.

    python3 perfbench/tests/test_bench.py

Builds the benchmark (see run.py), runs the C++ checks of the span
self-time arithmetic and the tail-percentile rule, and checks that the
workload and metric names the benchmark prints equal BENCHMARK.json's.
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build = run.build(("perfbench", "perfbench_tests"))

    def test_trace_and_stats(self):
        subprocess.run([os.path.join(self.build, "perfbench_tests")],
                       check=True)

    def test_names_match_benchmark_json(self):
        out = subprocess.run([os.path.join(self.build, "perfbench"),
                              "--describe"], stdout=subprocess.PIPE,
                             text=True, check=True).stdout
        printed = json.loads(out)
        bench = run.spec()
        self.assertEqual(printed["workloads"],
                         [w["name"] for w in bench["workloads"]])
        for key in ("end_to_end", "per_layer"):
            self.assertEqual(
                [(m["name"], m["unit"]) for m in printed[key]],
                [(m["name"], m["unit"]) for m in bench[key]], key)

    def test_result_check_rejects_wrong_names(self):
        bench = run.spec()
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                   for m in bench["end_to_end"]}
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": metrics}
        workload = bench["workloads"][0]["name"]
        self.assertIsNone(run.check_result(result, workload, False))
        self.assertIsNotNone(run.check_result(result, workload, True))
        self.assertIsNotNone(run.check_result(result, "nope", False))
        del metrics[bench["end_to_end"][0]["name"]]
        self.assertIsNotNone(run.check_result(result, workload, False))


if __name__ == "__main__":
    unittest.main()
