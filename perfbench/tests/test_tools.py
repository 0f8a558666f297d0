#!/usr/bin/env python3
"""Tests of the benchmark's scripts and of its result line.

Run from the root of a checkout:

    python3 perfbench/tests/test_tools.py

The quartile helpers are checked against hand-computed values. The
result-line tests run every workload for one second, untraced and traced,
through perfbench/run.py (which builds the benchmark first), and parse the
last line of standard output against BENCHMARK.json.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import sweep  # noqa: E402


class SweepHelpers(unittest.TestCase):
    def test_quartiles_match_hand_values(self):
        # statistics.quantiles' exclusive method: positions (n+1)p.
        # For 1..10: Q1 at 2.75, median at 5.5, Q3 at 8.25.
        self.assertEqual(sweep.quartiles(list(range(1, 11))),
                         (2.75, 5.5, 8.25))
        # For 1..4: Q1 at 1.25, Q3 at 3.75.
        self.assertEqual(sweep.quartiles([4, 1, 3, 2]), (1.25, 2.5, 3.75))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(sweep.spread(list(range(1, 11))),
                               (8.25 - 2.75) / 5.5)
        self.assertEqual(sweep.spread([3, 3, 3, 3]), 0)

    def test_parse_seeds(self):
        self.assertEqual(sweep.parse_seeds("1-3,7"), [1, 2, 3, 7])

    def test_result_line_is_the_last_line(self):
        out = 'progress\n{"correct": true, "attempted": 1, "failed": 0, ' \
              '"metrics": {}}\n'
        self.assertTrue(sweep.result_line(out)["correct"])
        with self.assertRaises(ValueError):
            sweep.result_line('{"correct": true}\n')
        with self.assertRaises(ValueError):
            sweep.result_line("")


class ResultLine(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def run_workload(self, name, trace):
        done = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", name, "--seed", "7", "--seconds", "1",
             "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=300)
        self.assertEqual(done.returncode, 0, done.stdout)
        self.assertTrue(done.stdout.endswith("\n"))
        lines = done.stdout.splitlines()
        self.assertEqual(len(lines), 1, "stdout holds only the result line")
        return json.loads(lines[-1])

    def check(self, record, metrics):
        self.assertEqual(set(record),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(record["correct"], True)
        self.assertIsInstance(record["attempted"], int)
        self.assertGreaterEqual(record["attempted"], 1)
        self.assertEqual(record["failed"], 0)
        self.assertEqual(set(record["metrics"]),
                         {m["name"] for m in metrics})
        for m in metrics:
            got = record["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_every_workload_untraced(self):
        for w in self.bench["workloads"]:
            with self.subTest(workload=w["name"]):
                record = self.run_workload(w["name"], 0)
                self.check(record, self.bench["end_to_end"])
                for name, m in record["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_every_workload_traced(self):
        for w in self.bench["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(self.run_workload(w["name"], 1),
                           self.bench["per_layer"])

    def test_bad_arguments_print_no_result(self):
        done = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", "nosuch", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=300)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
