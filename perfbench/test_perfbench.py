#!/usr/bin/env python3
"""Self-test of the serving benchmark.

    python3 perfbench/test_perfbench.py

Runs every workload briefly at a tiny set-up size, untraced and traced, and
checks that the result line has exactly the contract's keys and that every
metric BENCHMARK.json names appears in it with its unit, and on a report line
with the same unit and a sample count. Also checks that the response checker
rejects a planted dominated frontier.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

ROOT = os.path.dirname(HERE)
METRIC_LINE = re.compile(r"^metric (\S+) (\S+) (\S+) n=(\d+)")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.binary = run.build()

    def test_checker_rejects_planted_dominated_frontier(self):
        proc = subprocess.run([self.binary, "--self-test"],
                              stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("planted dominated frontier rejected", proc.stdout)

    def run_workload(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "5", "--seconds", "1.5", "--trace",
             str(trace), "--tiny"],
            stdout=subprocess.PIPE, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        lines = proc.stdout.strip().splitlines()
        return lines, json.loads(lines[-1])

    def check_metrics(self, lines, result, names):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], lines)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        reported = {}
        for line in lines:
            m = METRIC_LINE.match(line)
            if m:
                reported[m.group(1)] = (m.group(3), int(m.group(4)))
        for metric in names:
            name, unit = metric["name"], metric["unit"]
            self.assertIn(name, result["metrics"])
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
            self.assertIsInstance(result["metrics"][name]["value"],
                                  (int, float), name)
            self.assertIn(name, reported, f"no report line for {name}")
            self.assertEqual(reported[name][0], unit, name)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in names})

    def test_every_metric_with_unit_and_sample_count(self):
        for workload in self.spec["workloads"]:
            for trace, names in ((0, self.spec["end_to_end"]),
                                 (1, self.spec["per_layer"])):
                with self.subTest(workload=workload["name"], trace=trace):
                    lines, result = self.run_workload(workload["name"], trace)
                    self.check_metrics(lines, result, names)


if __name__ == "__main__":
    unittest.main()
