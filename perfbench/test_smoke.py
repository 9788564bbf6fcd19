#!/usr/bin/env python3
"""Smoke test of the benchmark command.

    python3 perfbench/test_smoke.py

Runs every workload at a tiny size (20,000 IRQs, a 1-config corpus) with
--trace 0 and --trace 1, and asserts that the command exits 0, that every
correctness check passes, and that every metric BENCHMARK.json and
perfbench/meta.json name is printed with a finite value and its unit.
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
META = json.loads((ROOT / "perfbench" / "meta.json").read_text())


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    return proc


def printed_metrics(stdout):
    """name -> (value, unit) from the 'metric <name> <value> <unit> ...' lines."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            out[parts[1]] = (float(parts[2]), parts[3])
    return out


class Smoke(unittest.TestCase):
    def check_run(self, workload, trace, gated, described):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr + proc.stdout)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in gated})
        for m in gated:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        self.assertNotIn("FAILED", proc.stdout)
        printed = printed_metrics(proc.stdout)
        for name, unit in described.items():
            self.assertIn(name, printed, f"{workload}: {name} not printed")
            value, printed_unit = printed[name]
            self.assertTrue(math.isfinite(value), name)
            self.assertEqual(printed_unit, unit, name)

    def test_workloads(self):
        # Every workload the command runs, gated in BENCHMARK.json or not.
        for w in META["workloads"]:
            with self.subTest(workload=w, trace=0):
                e2e = {n: m["unit"] for n, m in META["end_to_end"].items()
                       if w in m["workloads"]}
                self.check_run(w, 0, BENCH["end_to_end"], e2e)
            with self.subTest(workload=w, trace=1):
                layers = {n: m["unit"] for n, m in META["per_layer"].items()}
                self.check_run(w, 1, BENCH["per_layer"], layers)

    def test_gated_workloads_are_described(self):
        gated = [n for n, w in META["workloads"].items() if w["gated"]]
        self.assertEqual(sorted(gated), sorted(w["name"] for w in BENCH["workloads"]))

    def test_metric_lists_agree(self):
        self.assertEqual([m["name"] for m in BENCH["per_layer"]], list(META["per_layer"]))
        for m in BENCH["end_to_end"]:
            self.assertTrue(META["end_to_end"][m["name"]]["gated"], m["name"])


if __name__ == "__main__":
    unittest.main()
